"""Exception types shared across the package, and the one rule by which
every message quotes a value: :func:`clip` cuts a token read from input,
and :func:`quote` cuts the ``repr`` of any value, so a one-line file or a
flag of any size gives a short message.  Both are module-level helpers
of the package, not part of its exported API."""


def clip(token: str) -> str:
    """``token`` cut to its first 40 characters, as an error message quotes it."""
    return token if len(token) <= 40 else token[:40] + "\u2026"


def quote(value: object) -> str:
    """``repr(value)`` cut by :func:`clip`: how an error message quotes a
    value read from a document of any size."""
    try:
        return clip(repr(value))
    except ValueError:  # an int past the interpreter's limit on decimal digits
        return f"<{type(value).__name__} too long to print>"


class GraphFormatError(ValueError):
    """Malformed graph file. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: "int | None" = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class GraphValidationError(ValueError):
    """Graph violates a structural requirement (connectivity, degree floor)."""


class CycleGraphError(ValueError):
    """The graph is a single cycle. A cycle embeds on every surface once its
    length is rescaled, so none of the genus machinery applies to it."""


class CapExceededError(RuntimeError):
    """An exhaustive enumeration would exceed its configured cap."""


class MovePreconditionError(ValueError):
    """A local move was requested at a vertex that does not meet enough
    boundary walks."""


class NoIncreasingMoveError(ValueError):
    """No single-dart reinsertion increases the boundary-walk count."""


class InternalInvariantError(RuntimeError):
    """A guaranteed search failed or double-entry bookkeeping disagreed.
    Always a bug, never a user error; raised loudly on purpose."""


class TargetGenusError(ValueError):
    """Requested genus is below the essential genus of the graph."""


class SchemaFormatError(ValueError):
    """Malformed embedding-schema document."""
