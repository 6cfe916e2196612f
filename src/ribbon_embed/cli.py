"""Command-line front end.

Four subcommands:

* ``analyze``  invariant report for a graph file (text or JSON)
* ``embed``    build a verified embedding schema and print it as JSON
* ``oracle``   brute-force re-verification of the theory on one graph
* ``verify``   recheck a schema document produced by ``embed``

Exit codes: 0 success, 1 verification found errors, 2 bad input (a file
that cannot be read included), 3 cycle graph, 4 unreachable target genus,
5 enumeration cap exceeded, 6 internal invariant violation or any other
unexpected exception (always a bug), 141 stdout closed by its reader,
with nothing more printed.

Human-oriented chatter goes to stderr; stdout carries only the payload
(report or schema), so output can be piped.  For a fixed input file, seed
and flags, the emitted schema is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable

from .assembly import (
    assemble_sigma_surface,
    cap_standard,
    cap_target_genus,
    schema_from_json,
    schema_to_json,
    verify_schema,
)
from .errors import (
    CapExceededError,
    CycleGraphError,
    InternalInvariantError,
    TargetGenusError,
    quote,
)
from .graph import parse_graph, smooth
from .invariants import DEFAULT_TREE_CAP
from .moves import DEFAULT_RESTARTS, analyze, maximize_boundaries, minimize_boundaries, oracle
from .rotation import DEFAULT_ROTATION_CAP, ORDERS_LIMIT, OrdersRefusal, refusal

OK = 0
VERIFY_FAILED = 1
BAD_INPUT = 2
CYCLE_GRAPH = 3
TARGET_UNREACHABLE = 4
CAP_EXCEEDED = 5
INVARIANT_VIOLATION = 6


_COMMANDS = ("analyze", "embed", "oracle", "verify")


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _read_text(path: str, split: Callable[[str], list[str]] = str.splitlines) -> str:
    """The text of an input file, a graph or a schema: UTF-8, with a leading
    byte-order mark dropped.  A byte that is not UTF-8 is refused at its
    line: the text before it, and a stand-in for it, split into lines by
    ``split``, the file format's own rule (:func:`parse_graph` splits by
    ``str.splitlines``; JSON counts only ``\\n``)."""
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(b"\xef\xbb\xbf")  # the UTF-8 byte-order mark
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(split(data[: exc.start].decode("utf-8") + "?"))
        raise ValueError(f"line {line}: not UTF-8 text at byte 0x{data[exc.start]:02x}") from None


def _target_kind(value: str):
    if value in ("minimal", "maximal"):
        return value
    if value.startswith("genus="):
        try:
            return ("genus", int(value[len("genus="):]))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad genus in target {quote(value)}; expected genus=<int>"
            ) from None
    raise argparse.ArgumentTypeError(
        f"unknown target {quote(value)}; expected minimal, maximal or genus=<int>"
    )


def _typed(to: type, value: str) -> int | float:
    """``value`` converted by ``to``, int or float: the one conversion of a
    typed flag.  Its refusal is worded as argparse's own, but quotes the
    value short."""
    try:
        return to(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {to.__name__} value: {quote(value)}") from None


def _count(value: str) -> int:
    """A count of restarts, trees or rotations: an int, 0 or more."""
    if (number := _typed(int, value)) < 0:
        raise argparse.ArgumentTypeError(f"negative count {quote(number)}; expected 0 or more")
    return number


def cmd_analyze(args: argparse.Namespace) -> int:
    graph = parse_graph(_read_text(args.graph))
    report = analyze(graph, tree_cap=args.max_trees, rotation_cap=args.max_rotations)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # rotation_count can pass it
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        print(json.dumps(report.to_json_dict(), indent=2) if args.json else report.to_text())
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return OK


def cmd_embed(args: argparse.Namespace) -> int:
    graph = smooth(parse_graph(_read_text(args.graph)))
    target = args.target
    search = {"restarts": args.restarts, "seed": args.seed, "rotation_cap": args.max_rotations}
    if target == "maximal":
        result = maximize_boundaries(graph, **search)
    else:
        result = minimize_boundaries(graph, tree_cap=args.max_trees, **search)
    if not result.certified:  # so the gate refused the DP, which certifies wherever it runs
        refused = refusal(graph, args.max_rotations)
        lifted = not isinstance(refused, OrdersRefusal)  # by a larger --max-rotations
        rotations = " / --max-rotations" if lifted else ""
        if result.optimum is None:  # maximize has no tree rung for --max-trees to reach
            flag = "--restarts" if target == "maximal" else "--max-trees"
            gap, flags = "within the enumeration caps", flag + rotations
        else:  # a rung knows the optimum, but the search's rotation misses it
            gap = (
                f"at {result.boundary_count} walk(s); the {result.certificate} rung "
                f"settles the optimum at {result.optimum}"
            )
            flags = "--restarts" + rotations
        if not lifted:  # name the refusal that no flag lifts
            gap += f" ({refused})"
        if isinstance(target, tuple):  # refused before anything is built
            _say(
                f"error: optimum not certified {gap}; an exact genus target needs a "
                f"certified minimal-boundary surface; raise {flags}"
            )
            return CAP_EXCEEDED
        _say(f"warning: optimum not certified {gap}; using the best rotation found; raise {flags}")
    bordered = assemble_sigma_surface(graph, result.rotation, margin=args.margin)
    if isinstance(target, tuple):
        schema = cap_target_genus(bordered, target[1], minimum=result.boundary_count)
    else:
        schema = cap_standard(bordered)
    diagnostics = verify_schema(schema)
    for note in diagnostics.notes:
        _say(f"note: {note}")
    if diagnostics.errors:
        for err in diagnostics.errors:
            _say(f"fail: {err}")
        _say("refusing to emit a schema that does not verify")
        return INVARIANT_VIOLATION
    text = schema_to_json(schema)
    if args.output is None or args.output == "-":
        print(text, end="")  # skipped, as every report is, where stdout was closed at start
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    rung = result.certificate
    settled = f"optimum from the {rung} rung" if rung else "no rung settled the optimum"
    _say(
        f"schema: genus {schema.summary.genus}, "
        f"{result.boundary_count} boundary walk(s) before capping, "
        f"{len(result.moves)} move(s), {settled}, "
        f"{'certified' if result.certified else 'not certified'}"
    )
    return OK


def cmd_oracle(args: argparse.Namespace) -> int:
    lines, passed = oracle(parse_graph(_read_text(args.graph)), args.max_trees, args.max_rotations)
    print("\n".join(lines))
    return OK if passed else INVARIANT_VIOLATION


def cmd_verify(args: argparse.Namespace) -> int:
    schema = schema_from_json(_read_text(args.schema, lambda text: text.split("\n")))
    diagnostics = verify_schema(schema)
    for note in diagnostics.notes:
        print(f"note: {note}")
    if diagnostics.errors:
        for err in diagnostics.errors:
            print(f"fail: {err}")
        return VERIFY_FAILED
    s = schema.summary
    print(
        f"ok: genus {s.genus}, {s.boundary_count} boundary circle(s), "
        f"construction {s.construction}"
    )
    return OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    :func:`main` call in the process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="ribbon-embed",
        description="Surface-embedding invariants and verified hyperbolic "
        "embedding schemas for metric graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_caps(p: argparse.ArgumentParser, trees_help: str) -> None:
        p.add_argument("--max-trees", type=_count, default=DEFAULT_TREE_CAP, help=trees_help)
        p.add_argument(
            "--max-rotations",
            type=_count,
            default=DEFAULT_ROTATION_CAP,
            help="refuse the exhaustive rotation stages (frontier DP, oracle pass) "
            "above this many rotations, or where they would list more than "
            f"10^{len(str(ORDERS_LIMIT)) - 1} cyclic orders",
        )

    p_analyze = sub.add_parser("analyze", help="print the invariant report")
    p_analyze.add_argument("graph", help="graph file (edge lines)")
    p_analyze.add_argument("--json", action="store_true", help="emit JSON")
    tree_rung = "the ladder's tree rung (ribbon_embed.moves), run past --max-rotations, is skipped"
    add_caps(p_analyze, f"above this many spanning trees, tree_count is null and {tree_rung}")
    p_analyze.set_defaults(func=cmd_analyze)

    p_embed = sub.add_parser("embed", help="emit a verified embedding schema")
    p_embed.add_argument("graph", help="graph file (edge lines)")
    p_embed.add_argument(
        "--target",
        type=_target_kind,
        default="minimal",
        help="minimal (essential genus), maximal, or genus=<int>",
    )
    p_embed.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    real, integer = functools.partial(_typed, float), functools.partial(_typed, int)
    p_embed.add_argument("--margin", type=real, default=0.1, help="scaling slack, > 0")
    p_embed.add_argument("--seed", type=integer, default=0, help="seed for restart rotations")
    p_embed.add_argument(
        "--restarts", type=_count, default=DEFAULT_RESTARTS,
        help="random restarts before the frontier DP decides the optimum",
    )
    add_caps(p_embed, "minimal and genus targets only: above this many spanning trees, "
             f"by Kirchhoff's count, {tree_rung}")
    p_embed.set_defaults(func=cmd_embed)

    p_oracle = sub.add_parser(
        "oracle", help="re-verify the boundary-walk theory by brute force"
    )
    p_oracle.add_argument("graph", help="graph file (edge lines)")
    add_caps(p_oracle, "abort if the graph has more spanning trees than this")
    p_oracle.set_defaults(func=cmd_oracle)

    p_verify = sub.add_parser("verify", help="recheck a schema document")
    p_verify.add_argument("schema", help="schema JSON file")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def _command(argv: list[str]) -> str | None:
    """The subcommand argparse reads from ``argv``, its first argument not
    led by '-'; None where there is none, or where a help flag comes first,
    which argparse answers before it reads the subcommand."""
    for arg in argv:
        if arg == "-h" or len(arg) > 2 and "--help".startswith(arg):
            return None
        if not arg.startswith("-"):
            return arg
    return None


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        if (command := _command(argv)) not in (None, *_COMMANDS):
            # argparse's own refusal, but quoted short: argparse quotes it whole
            choices = ", ".join(map(repr, _COMMANDS))
            parser.error(
                f"argument command: invalid choice: {quote(command)} (choose from {choices})"
            )
        args, extras = parser.parse_known_args(argv)
        if extras:  # refused as parse_args refuses them, but quoted short
            parser.error(f"unrecognized arguments: {quote(' '.join(extras))}")
    except SystemExit as exc:  # argparse exits 2 on bad usage, 0 on --help
        return int(exc.code or 0)
    try:
        code = args.func(args)
        print(end="", flush=True)  # a closed pipe meets us here, not at exit; None is skipped
        return code
    except CycleGraphError as exc:
        _say(f"cycle graph: {exc}")
        return CYCLE_GRAPH
    except TargetGenusError as exc:
        _say(f"error: {exc}")
        return TARGET_UNREACHABLE
    except CapExceededError as exc:
        _say(f"error: {exc}")
        return CAP_EXCEEDED
    except InternalInvariantError as exc:
        _say(f"internal invariant violation: {exc}")
        return INVARIANT_VIOLATION
    except BrokenPipeError:  # the reader of stdout has gone: exit as SIGPIPE would end us
        if sys.stdout is sys.__stdout__ is not None:  # the process's own, not a caller's
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the exit's flush
        return 141  # 128 + SIGPIPE, as a shell reports a writer a closed pipe ended
    except OSError as exc:  # a file that cannot be read or written, named short
        path = "" if exc.filename is None else f": {quote(exc.filename)}"
        _say(f"error: {exc.strerror or exc}{path}")
        return BAD_INPUT
    except ValueError as exc:  # every input error class is a ValueError
        _say(f"error: {exc}")
        return BAD_INPUT
    except Exception as exc:  # a bug; keep it apart from exit 1, "verification failed"
        _say(f"internal error: {type(exc).__name__}: {exc}")
        return INVARIANT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
