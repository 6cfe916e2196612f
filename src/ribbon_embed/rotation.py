"""Rotation systems (fat-graph structures) and boundary-walk extraction.

A rotation system assigns each vertex a cyclic order of its darts.  Walking
a boundary component alternates "step back one dart in the cyclic order,
then hop to the other end of that edge": the next dart after ``d`` is
``mate(prev(d))``.  Of the four ways to compose the two involved
permutations this one is pinned package-wide, so that walks, their labels
and everything serialized from them are reproducible byte for byte.  All
four conventions produce the same number of walks, which is the only thing
the genus bookkeeping consumes.

Cyclic orders are stored rotated so the smallest dart id comes first,
giving rotation systems a canonical equality.

One tracer, :func:`_trace`, follows the orbits of the successor table,
and one writer, :func:`_set_succ`, fills that table in at the vertex
cycles it is given.  Only the oracle (:func:`ribbon_embed.moves.oracle`)
and the tests walk through every rotation in :func:`enumerate_rotations`
order; the oracle traces each one from a table it rewrites only at the
vertices whose cycle changed, and no search walks them at all.

:func:`boundary_profile` needs only how many rotations give each walk
count, and takes it from a frontier DP that places one vertex at a time
and keeps, for each way the open face paths can cross the cut around the
placed vertices, a histogram of the faces already closed (Gross and
Furst's bar-amalgamation; the partitioned genus distributions of Gross,
Khan and Poshni).  Its cost grows with the cut width, not with the number
of rotations; and with minimum degree 3 the partial-rotation count at
least doubles with each placed vertex, so even where the cut never
narrows (one-vertex bouquets, dipoles) it makes fewer than twice as many
compositions as there are rotations.  The DP runs over given per-vertex
orders (:func:`_profile`), and each bucket of its histogram also keeps
the smallest :func:`enumerate_rotations` index among its partial
rotations, so the same pass gives the first rotation at every walk count
(:func:`_rotation_at` decodes it).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import CapExceededError, GraphFormatError, InternalInvariantError
from .graph import MetricGraph, _clip, _quote, edge_of, euler_char

DEFAULT_ROTATION_CAP = 10**6


def canonical_cycle(cycle: Sequence[int]) -> tuple[int, ...]:
    """Rotate a cyclic sequence so its minimum element comes first."""
    cycle = tuple(cycle)
    i = cycle.index(min(cycle))
    return cycle[i:] + cycle[:i]


@dataclass(frozen=True)
class RotationSystem:
    """One cyclic dart order per vertex, indexed by vertex id.

    Construct through :func:`make_rotation` (or the enumeration helpers),
    which canonicalize and validate against a graph.
    """

    cycles: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class BoundaryWalk:
    """One boundary component as the cyclic dart sequence it traverses."""

    darts: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.darts)


def make_rotation(graph: MetricGraph, cycles: Iterable[Sequence[int]]) -> RotationSystem:
    """Build a rotation system from per-vertex dart sequences."""
    rotation = RotationSystem(tuple(canonical_cycle(c) for c in cycles))
    validate_rotation(graph, rotation)
    return rotation


def validate_rotation(graph: MetricGraph, rotation: RotationSystem) -> None:
    """Check that the cycles partition the darts vertex by vertex, or raise GraphFormatError."""
    if len(rotation.cycles) != graph.vertex_count:
        raise GraphFormatError(
            f"rotation has {len(rotation.cycles)} cycles for {graph.vertex_count} vertices"
        )
    for v, cycle in enumerate(rotation.cycles):
        if sorted(cycle) != list(graph.darts_at(v)):
            raise GraphFormatError(
                f"cycle at vertex {_clip(graph.vertex_names[v])} is not a permutation "
                f"of the darts at that vertex"
            )


def default_rotation(graph: MetricGraph, seed: int = 0) -> RotationSystem:
    """File-order rotation for seed 0, a seeded uniform shuffle otherwise."""
    if seed == 0:
        return RotationSystem(tuple(graph.darts_at(v) for v in range(graph.vertex_count)))
    rng = random.Random(seed)
    cycles = []
    for v in range(graph.vertex_count):
        darts = list(graph.darts_at(v))
        rng.shuffle(darts)
        cycles.append(canonical_cycle(darts))
    return RotationSystem(tuple(cycles))


def _set_succ(succ: list[int], cycles: Iterable[Sequence[int]]) -> None:
    """Write ``succ[d] = mate(prev(d))`` for the darts of the given vertex
    cycles."""
    for cycle in cycles:
        p = cycle[-1]
        for d in cycle:
            succ[d] = p ^ 1
            p = d


def _succ(dart_count: int, cycles: Sequence[Sequence[int]]) -> list[int]:
    """The face permutation ``succ[d] = mate(prev(d))`` of a rotation."""
    succ = [0] * dart_count
    _set_succ(succ, cycles)
    return succ


def _trace(succ: Sequence[int]) -> tuple[list[int], int]:
    """Trace the orbits of ``succ``: (face id per dart, walk count).

    This is the one walk tracer of the package.  Faces are numbered from 0
    in the order of their smallest dart.
    """
    face = [-1] * len(succ)
    count = 0
    for start in range(len(succ)):
        if face[start] < 0:
            d = start
            while face[d] < 0:
                face[d] = count
                d = succ[d]
            count += 1
    return face, count


def _faces(dart_count: int, cycles: Sequence[Sequence[int]]) -> tuple[list[int], int, list[int]]:
    """Trace the faces of a rotation: (face id per dart, walk count, successor).

    The cycles are trusted: rotations are validated where they enter, in
    :func:`make_rotation`, not here in the hot loop.
    """
    succ = _succ(dart_count, cycles)
    face, count = _trace(succ)
    return face, count, succ


def boundary_walks(graph: MetricGraph, rotation: RotationSystem) -> list[BoundaryWalk]:
    """The boundary components of the thickened fat graph.

    Walks are returned sorted by their smallest dart, each starting at that
    dart, so the list (and the labels derived from it) is canonical.
    """
    face, count, succ = _faces(graph.dart_count, rotation.cycles)
    slack = 2 - euler_char(graph) - count
    if slack < 0 or slack % 2:
        raise InternalInvariantError(
            f"walk count {count} breaks Euler parity for chi={euler_char(graph)}"
        )
    walks: list[BoundaryWalk] = []
    for start, f in enumerate(face):
        if f == len(walks):  # the smallest dart of the next face
            orbit = [start]
            while (d := succ[orbit[-1]]) != start:  # around the walk, back to its start
                orbit.append(d)
            walks.append(BoundaryWalk(tuple(orbit)))
    return walks


def boundary_count(graph: MetricGraph, rotation: RotationSystem) -> int:
    return _faces(graph.dart_count, rotation.cycles)[1]


def fat_genus(graph: MetricGraph, rotation: RotationSystem) -> int:
    """Genus of the closed surface the fat graph fills: (2 - chi - walks)/2."""
    return (2 - euler_char(graph) - boundary_count(graph, rotation)) // 2


def _incidence(cycle: Sequence[int], face: Sequence[int]) -> int:
    """How many distinct faces the darts of one vertex cycle lie on."""
    return len({face[d] for d in cycle})


def _crowded(cycle: Sequence[int], face: Sequence[int]) -> bool:
    """Whether the darts of one vertex cycle lie on three or more distinct
    faces: :func:`_incidence` ``>= 3``, stopping at the third face."""
    first = face[cycle[0]]
    second = -1  # face ids are never negative
    for d in cycle:
        f = face[d]
        if f != first:
            if second < 0:
                second = f
            elif f != second:
                return True
    return False


def vertex_boundary_incidence(graph: MetricGraph, rotation: RotationSystem) -> dict[int, int]:
    """How many distinct boundary walks pass through each vertex."""
    face = _faces(graph.dart_count, rotation.cycles)[0]
    return {v: _incidence(cycle, face) for v, cycle in enumerate(rotation.cycles)}


def count_rotations(graph: MetricGraph) -> int:
    """Number of rotation systems: the product of (deg(v) - 1)! over vertices."""
    return math.prod(math.factorial(graph.degree(v) - 1) for v in range(graph.vertex_count))


def _cyclic_orders(darts: Sequence[int]) -> list[tuple[int, ...]]:
    """Every cyclic order of ``darts``: the first pinned, tails in
    lexicographic order."""
    head, *tail = darts
    return [(head, *p) for p in itertools.permutations(tail)]


def _vertex_orders(graph: MetricGraph, cap: int) -> list[list[tuple[int, ...]]]:
    """The cyclic orders at each vertex, smallest dart first.  Raises
    :class:`CapExceededError`, before building any, when the product of
    their counts exceeds ``cap``; a count of 600 digits or more, which
    the interpreter's limit on decimal digits may refuse to print, is named
    by its order of magnitude."""
    total = count_rotations(graph)
    if total > cap:
        shown = total if total < 10**600 else f"over 10^{int(math.log10(total))}"
        raise CapExceededError(f"{shown} rotation systems exceed the cap of {cap}")
    return [_cyclic_orders(graph.darts_at(v)) for v in range(graph.vertex_count)]


def enumerate_rotations(
    graph: MetricGraph, cap: int = DEFAULT_ROTATION_CAP
) -> Iterator[RotationSystem]:
    """Yield every rotation system exactly once.

    The smallest dart at each vertex is pinned first, which quotients out
    rotations of each cycle; what remains is the product of the per-vertex
    (deg - 1)! tail permutations, streamed in lexicographic order with the
    last vertex varying fastest.  Raises :class:`CapExceededError` up front
    when the total exceeds ``cap``.
    """
    for combo in itertools.product(*_vertex_orders(graph, cap)):
        yield RotationSystem(combo)


def boundary_profile(graph: MetricGraph, cap: int = DEFAULT_ROTATION_CAP) -> dict[int, int]:
    """Histogram {walk count: rotation count} over all rotation systems.

    Raises :class:`CapExceededError` when there are more than ``cap``
    rotations, before any work; :func:`_profile` computes it.
    """
    profile = _profile(graph, _vertex_orders(graph, cap))
    return {walks: profile[walks][0] for walks in sorted(profile)}


def _strides(orders: Sequence[Sequence[tuple[int, ...]]]) -> list[int]:
    """The :func:`enumerate_rotations` index step of one order at each
    vertex: mixed radix, vertex 0 most significant, the last fastest."""
    strides = [1] * len(orders)
    for v in range(len(orders) - 1, 0, -1):
        strides[v - 1] = strides[v] * len(orders[v])
    return strides


def _rotation_at(orders: Sequence[Sequence[tuple[int, ...]]], index: int) -> RotationSystem:
    """The rotation at ``index`` in :func:`enumerate_rotations` order over
    ``orders``."""
    steps = zip(orders, _strides(orders))
    return RotationSystem(tuple(choices[index // s % len(choices)] for choices, s in steps))


def _profile(
    graph: MetricGraph, orders: Sequence[Sequence[tuple[int, ...]]]
) -> dict[int, list[int]]:
    """{walk count: [rotation count, index of the first rotation]} over the
    rotations that take each vertex's cyclic order from ``orders[v]``, by a
    frontier DP over vertex placements; the index is the rotation's
    position in :func:`enumerate_rotations` order (:func:`_strides`).

    The next vertex placed is the one with the most edges into the placed
    set S, ties to the smallest id.  Under a rotation of S alone the face
    permutation splits into closed faces, which are only counted, and open
    paths, each entering S at the S-side dart of a cut edge (in
    ``entries``, sorted) and leaving at an outside dart.  A state is the
    tuple of those exits, aligned with ``entries``, and maps to a dict
    {closed faces: [partial rotations, smallest index among them]}.
    Placing w composes each of its orders into each state, adding the
    order's position times w's stride to the index; with every vertex
    placed the one state left is empty.  Partial rotations that share a
    state and a closed-face count have the same completions, so the
    smallest index is kept exactly: the first rotation at a count extends
    the first partial rotation of every bucket it passes through.
    """
    vertex_of = graph.vertex_of
    placed = [False] * graph.vertex_count
    into = [0] * graph.vertex_count  # edges from each vertex into S
    strides = _strides(orders)
    entries: list[int] = []
    states: dict[tuple[int, ...], dict[int, list[int]]] = {(): {0: [1, 0]}}
    for _ in range(graph.vertex_count):
        w = max((v for v, done in enumerate(placed) if not done), key=lambda v: (into[v], -v))
        placed[w] = True
        darts = graph.darts_at(w)
        for d in darts:
            into[vertex_of[d ^ 1]] += 1
        new_entries = sorted(
            [e for e in entries if vertex_of[e ^ 1] != w]
            + [d for d in darts if not placed[vertex_of[d ^ 1]]]
        )
        steps = [
            ({d: p ^ 1 for d, p in zip(order, order[-1:] + order[:-1])}, i * strides[w])
            for i, order in enumerate(orders[w])
        ]
        composed: dict[tuple[int, ...], dict[int, list[int]]] = {}
        for state, counts in states.items():
            exit_of = dict(zip(entries, state))
            for step, offset in steps:
                succ = {**exit_of, **step}
                seen = set()
                exits = []
                for z in new_entries:
                    while z in succ:
                        seen.add(z)
                        z = succ[z]
                    exits.append(z)
                closed = 0  # faces through w met by no path are closed here
                for x in darts:
                    if x not in seen:
                        closed += 1
                        while x not in seen:
                            seen.add(x)
                            x = succ[x]
                key = tuple(exits)
                target = composed.get(key)
                if target is None:
                    target = composed[key] = {}
                for faces, (rotations, first) in counts.items():
                    bucket = target.get(faces + closed)
                    if bucket is None:
                        target[faces + closed] = [rotations, first + offset]
                    else:
                        bucket[0] += rotations
                        if first + offset < bucket[1]:
                            bucket[1] = first + offset
        states = composed
        entries = new_entries
    return states[()]


def dart_label(graph: MetricGraph, dart: int) -> str:
    """``<edge>+`` for the file-direction dart, ``<edge>-`` for its mate."""
    return graph.edge_names[edge_of(dart)] + ("+" if dart % 2 == 0 else "-")


def _dart_from_label(edge_ids: dict[str, int], label: str) -> int:
    if len(label) < 2 or label[-1] not in "+-":
        raise GraphFormatError(f"bad dart label {_quote(label)}")
    name = label[:-1]
    if name not in edge_ids:
        raise GraphFormatError(f"unknown edge {_quote(name)} in dart label")
    return 2 * edge_ids[name] + (0 if label[-1] == "+" else 1)


def rotation_to_lines(graph: MetricGraph, rotation: RotationSystem) -> list[str]:
    """Serialize as one ``rot <vertex> <dart> ...`` line per vertex."""
    labels = [name + sign for name in graph.edge_names for sign in "+-"]  # by dart id
    return [
        f"rot {graph.vertex_names[v]} " + " ".join([labels[d] for d in cycle])
        for v, cycle in enumerate(rotation.cycles)
    ]


def rotation_from_lines(graph: MetricGraph, lines: Iterable[str]) -> RotationSystem:
    """Parse the output of :func:`rotation_to_lines`."""
    darts = {}  # every label _dart_from_label accepts, to its dart
    for e, name in enumerate(graph.edge_names):
        if isinstance(name, str) and name:
            darts[name + "+"], darts[name + "-"] = 2 * e, 2 * e + 1
    cycles: dict[int, tuple[int, ...]] = {}
    for raw in lines:
        if type(raw) is not str:
            raise GraphFormatError(f"bad rotation record {_quote(raw)}")
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] != "rot" or len(parts) < 3:
            raise GraphFormatError(f"bad rotation record {_quote(raw)}")
        v = graph.vertex_ids.get(parts[1])
        if v is None:
            raise GraphFormatError(f"unknown vertex {_quote(parts[1])}")
        if v in cycles:
            raise GraphFormatError(f"vertex {_quote(parts[1])} listed twice")
        try:
            cycles[v] = tuple([darts[label] for label in parts[2:]])
        except KeyError:  # raise for the first label that names no dart
            cycles[v] = tuple(_dart_from_label(graph.edge_ids, label) for label in parts[2:])
    missing = [graph.vertex_names[v] for v in range(graph.vertex_count) if v not in cycles]
    if missing:
        raise GraphFormatError(f"missing rotation for vertices {_quote(missing)}")
    return make_rotation(graph, [cycles[v] for v in range(graph.vertex_count)])
