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
vertices whose cycle changed, and no search walks them at all.  A climb
of moves (:func:`ribbon_embed.moves._climb`) keeps one table the same
way, rewritten at each moved vertex.  Which vertices meet three or more
faces is one scan, :func:`_crowded_vertices`.

:func:`boundary_profile` needs only how many rotations give each walk
count, and takes it from a frontier DP that places one vertex at a time
and keeps, for each way the open face paths can cross the cut around the
placed vertices, one payload over the partial rotations that cross it that
way (Gross and Furst's bar-amalgamation; the partitioned genus
distributions of Gross, Khan and Poshni; run as a frontier-based search in
the manner of Kawahara et al.).  Its cost grows with the cut width, not
with the number of rotations, so :func:`_plan` orders the placements to
keep the cut narrow; and with minimum degree 3 the partial-rotation count
at least doubles with each placed vertex, so even where the cut never
narrows (one-vertex bouquets, dipoles) it makes fewer than twice as many
compositions as there are rotations.  One driver, :func:`_frontier`, runs
one kernel, :func:`_compose`, over those placements, and merges the
payloads that meet with a fold it is given.  Two folds
run on it: :func:`_profile` keeps the histogram of walk counts, and
:func:`_extremes` only its least and greatest counts, each with the
smallest :func:`enumerate_rotations` index that reaches it, decoded by
:func:`_rotation_at`, which is all the searches of
:mod:`ribbon_embed.moves` read.

The exhaustive stages (:func:`enumerate_rotations`,
:func:`boundary_profile`, the DP pass of the searches and the oracle) run
only where one gate, :func:`refusal`, admits the graph: at most ``cap``
rotations, and at most :data:`DEFAULT_ROTATION_CAP` cyclic orders to list
(the sum of (deg - 1)! over the vertices of degree 3 or more, which
:func:`_vertex_orders` would build).  Each such term is at least 2, so
the sum never passes the product, the rotation count: at the default cap
the orders refuse only where the rotation count does too.  Where both
refuse, the gate names the orders, as an :class:`OrdersRefusal`, which no
cap lifts, so no message advises one.

The DP runs over half the rotations, wherever some vertex has degree 3
or more.  Reversing every cyclic order keeps the walk count: prev becomes
prev^-1, so the face permutation mate . prev becomes mate . prev^-1 =
mate . phi^-1 . mate, conjugate to phi^-1, with as many orbits as phi (the
mirror image of the surface).  Let v* be the smallest vertex id of degree
3 or more (:func:`_mirror_vertex`).  Reversal pairs v*'s orders with no
fixed point, and every vertex before v* has degree at most 2 and one
order, so of a rotation and its mirror image the one whose order at v*
comes first in ``orders[v*]`` has the smaller :func:`enumerate_rotations`
index.  :func:`_plan` places only that one of each pair at v*, at its own
index offset, so every smallest index stays exact and each partial
rotation stands for two.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import CapExceededError, GraphFormatError, InternalInvariantError, clip, quote
from .graph import MetricGraph, edge_of, euler_char

DEFAULT_ROTATION_CAP = 10**6

_Orders = Sequence[Sequence[tuple[int, ...]]]  # cyclic orders to choose from, per vertex


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
                f"cycle at vertex {clip(graph.vertex_names[v])} is not a permutation "
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


def boundary_walks(graph: MetricGraph, rotation: RotationSystem) -> list[tuple[int, ...]]:
    """The boundary components of the thickened fat graph, each the tuple
    of darts it traverses in cyclic order.

    Walks are returned sorted by their smallest dart, each starting at that
    dart, so the list (and the labels derived from it) is canonical.
    """
    face, count, succ = _faces(graph.dart_count, rotation.cycles)
    slack = 2 - euler_char(graph) - count
    if slack < 0 or slack % 2:
        raise InternalInvariantError(
            f"walk count {count} breaks Euler parity for chi={euler_char(graph)}"
        )
    walks: list[tuple[int, ...]] = []
    for start, f in enumerate(face):
        if f == len(walks):  # the smallest dart of the next face
            orbit = [start]
            while (d := succ[orbit[-1]]) != start:  # around the walk, back to its start
                orbit.append(d)
            walks.append(tuple(orbit))
    return walks


def boundary_count(graph: MetricGraph, rotation: RotationSystem) -> int:
    return _faces(graph.dart_count, rotation.cycles)[1]


def fat_genus(graph: MetricGraph, rotation: RotationSystem) -> int:
    """Genus of the closed surface the fat graph fills: (2 - chi - walks)/2."""
    return (2 - euler_char(graph) - boundary_count(graph, rotation)) // 2


def _incidence(cycle: Sequence[int], face: Sequence[int]) -> int:
    """How many distinct faces the darts of one vertex cycle lie on."""
    return len({face[d] for d in cycle})


def _crowded_vertices(cycles: Sequence[Sequence[int]], face: Sequence[int]) -> list[int]:
    """The vertices, in id order, whose cycles meet three or more faces
    under ``face`` (:func:`_incidence` ``>= 3``), in one pass over
    ``cycles``.  A cycle of three darts is crowded exactly when its three
    faces differ, which is tested inline, so a cubic rotation costs one
    call; any other cycle goes to :func:`_incidence`."""
    return [
        v
        for v, cycle in enumerate(cycles)
        if (
            face[cycle[0]] != face[cycle[1]] != face[cycle[2]] != face[cycle[0]]
            if len(cycle) == 3
            else _incidence(cycle, face) >= 3
        )
    ]


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


class OrdersRefusal(CapExceededError):
    """The gate's refusal of a graph for the cyclic orders it would list,
    which no rotation cap lifts."""


def refusal(graph: MetricGraph, cap: int) -> CapExceededError | None:
    """Why the exhaustive stages may not run over ``graph`` at ``cap``, or
    None where they may: the one gate of the package (module docstring).
    The cyclic orders are asked first, so that where both refuse, the one
    no cap lifts is named: an :class:`OrdersRefusal`.  Public but not
    exported, as the CLI words its advice from it.  A count of 600 digits
    or more, which the interpreter's limit on decimal digits may refuse to
    print, is named by its order of magnitude."""
    degrees = [graph.degree(v) for v in range(graph.vertex_count)]
    listed = sum(math.factorial(d - 1) for d in degrees if d >= 3)
    for count, limit, what, error in (
        (listed, DEFAULT_ROTATION_CAP, "cyclic orders to list exceed the limit", OrdersRefusal),
        (count_rotations(graph), cap, "rotation systems exceed the cap", CapExceededError),
    ):
        if count > limit:
            shown = count if count < 10**600 else f"over 10^{int(math.log10(count))}"
            return error(f"{shown} {what} of {limit}")
    return None


def _vertex_orders(graph: MetricGraph, cap: int | None) -> list[list[tuple[int, ...]]]:
    """The cyclic orders at each vertex, smallest dart first.  The refusal
    of :func:`refusal` at ``cap`` is raised before any is built; ``cap``
    None lists them at once, for a caller that has asked the gate itself."""
    if cap is not None and (refused := refusal(graph, cap)) is not None:
        raise refused
    return [_cyclic_orders(graph.darts_at(v)) for v in range(graph.vertex_count)]


def enumerate_rotations(
    graph: MetricGraph, cap: int = DEFAULT_ROTATION_CAP
) -> Iterator[RotationSystem]:
    """Yield every rotation system exactly once.

    The smallest dart at each vertex is pinned first, which quotients out
    rotations of each cycle; what remains is the product of the per-vertex
    (deg - 1)! tail permutations, streamed in lexicographic order with the
    last vertex varying fastest.  Raises the refusal of :func:`refusal` at
    ``cap`` up front.
    """
    for combo in itertools.product(*_vertex_orders(graph, cap)):
        yield RotationSystem(combo)


def boundary_profile(graph: MetricGraph, cap: int = DEFAULT_ROTATION_CAP) -> dict[int, int]:
    """Histogram {walk count: rotation count} over all rotation systems.

    Raises the refusal of :func:`refusal` at ``cap`` before any work;
    :func:`_profile` computes it.
    """
    return dict(sorted(_profile(graph, _vertex_orders(graph, cap)).items()))


def _strides(orders: _Orders) -> list[int]:
    """The :func:`enumerate_rotations` index step of one order at each
    vertex: mixed radix, vertex 0 most significant, the last fastest."""
    strides = [1] * len(orders)
    for v in range(len(orders) - 1, 0, -1):
        strides[v - 1] = strides[v] * len(orders[v])
    return strides


def _rotation_at(orders: _Orders, index: int) -> RotationSystem:
    """The rotation at ``index`` in :func:`enumerate_rotations` order over
    ``orders``."""
    steps = zip(orders, _strides(orders))
    return RotationSystem(tuple(choices[index // s % len(choices)] for choices, s in steps))


class _Placement(NamedTuple):
    """The tables :func:`_compose` reads to place one vertex w (:func:`_plan`).

    A dart of w is named by its local index, its rank among w's darts.
    After a dart d of w the face goes to mate(prev(d)), named by a code:
    below ``degree``, the local index of a dart of w (prev(d) is a loop
    dart); then one code per removed entry, in ``removed`` order, whose old
    path the state follows; then one per fresh dart's mate, an outside dart
    where the path exits.  The new entries are the kept ones, then the
    fresh darts.
    """

    steps: list[tuple[list[int], int]]  # per order of w: (code after each local dart, offset)
    degree: int
    removed: list[int]  # old positions of the entries whose edges end at w
    kept: list[int]  # old positions of the other entries
    at_w: dict[int, int]  # each dart of w an old path can exit at: its local index
    fresh: list[int]  # local index of each fresh dart of w
    outs: list[int]  # ~mate of each fresh dart: the exits its code resolves to


def _mirror_vertex(graph: MetricGraph) -> int | None:
    """v*, the smallest vertex id of degree 3 or more, or None."""
    return next((v for v in range(graph.vertex_count) if graph.degree(v) >= 3), None)


def _plan(graph: MetricGraph, orders: _Orders) -> list[_Placement]:
    """The placements of the frontier DP over ``orders``, one per vertex,
    each as the tables :func:`_compose` reads.

    The next vertex placed is the one that adds the fewest cut edges: its
    darts to other unplaced vertices less its edges into the placed set,
    ties to the most edges into it, then the smallest id.  At v*
    (:func:`_mirror_vertex`) only one order of each mirror pair has a step
    table: the one before its reverse in ``orders[v*]``, at its own
    position's offset.  So ``orders[v*]`` must be closed under reversal,
    with each order and its reverse led by the same dart, as every
    :func:`_vertex_orders` list is.
    """
    vertex_of = graph.vertex_of
    n = graph.vertex_count
    strides = _strides(orders)
    star = _mirror_vertex(graph)
    placed = [False] * n
    into = [0] * n  # edges from each vertex into S
    base = [sum(vertex_of[d ^ 1] != v for d in graph.darts_at(v)) for v in range(n)]
    heap = [(base[v], 0, v) for v in range(n)]  # (cut growth, -into, v); stale ones skipped
    heapq.heapify(heap)
    entries: list[int] = []
    plan = []
    while heap:
        _, minus_into, w = heapq.heappop(heap)
        if placed[w] or minus_into != -into[w]:
            continue
        placed[w] = True
        darts = graph.darts_at(w)
        for d in darts:
            u = vertex_of[d ^ 1]
            if not placed[u]:
                into[u] += 1
                heapq.heappush(heap, (base[u] - 2 * into[u], -into[u], u))
        removed = [p for p, e in enumerate(entries) if vertex_of[e ^ 1] == w]
        kept = [p for p, e in enumerate(entries) if vertex_of[e ^ 1] != w]
        fresh = [d for d in darts if not placed[vertex_of[d ^ 1]]]
        code = {d: i for i, d in enumerate(darts)}  # a dart of w: its local index
        code.update((entries[p], len(darts) + k) for k, p in enumerate(removed))
        code.update((d ^ 1, len(darts) + len(removed) + k) for k, d in enumerate(fresh))
        position = {order: i for i, order in enumerate(orders[w])} if w == star else {}
        steps = []
        for i, order in enumerate(orders[w]):
            if position and position[order[:1] + order[:0:-1]] < i:
                continue  # its mirror image comes first
            step = [0] * len(darts)
            for d, p in zip(order, order[-1:] + order[:-1]):
                step[code[d]] = code[p ^ 1]  # the face goes from d to mate(prev(d))
            steps.append((step, i * strides[w]))
        at_w = {entries[p] ^ 1: code[entries[p] ^ 1] for p in removed}
        fresh_codes = [code[d] for d in fresh]
        outs = [~(d ^ 1) for d in fresh]
        plan.append(_Placement(steps, len(darts), removed, kept, at_w, fresh_codes, outs))
        entries = [entries[p] for p in kept] + fresh
    return plan


def _compose(
    placement: _Placement, states: dict[tuple[int, ...], Any], fold: Callable
) -> dict[tuple[int, ...], Any]:
    """The states after placing one vertex w, each with its payload: the one
    composition kernel of :func:`_frontier`.  Every state of ``states`` and
    every order of w make a new state, whose payload ``fold`` gives; a
    payload merged in place comes back as it went in and is not stored
    again.

    Per state, ``res`` resolves each code (:class:`_Placement`) to a local
    index or, complemented, an exit: a removed entry's code to where its
    old path exits.  The paths traced start at w's fresh darts and at the
    darts of w where the paths of kept entries exit; every other kept exit
    is copied.  Darts of w that no traced path visits lie on faces closed
    here.
    """
    steps, degree, removed, kept, at_w, fresh, outs = placement
    ids = list(range(degree))
    every = (1 << degree) - 1
    pad = [0] * len(fresh)  # the fresh entries' exits, each traced
    fresh_starts = list(enumerate(fresh, len(kept)))
    composed: dict[tuple[int, ...], Any] = {}
    for state, payload in states.items():
        base = [state[p] for p in kept]
        res = ids + [at_w.get(state[p], ~state[p]) for p in removed] + outs
        starts = [(j, at_w[x]) for j, x in enumerate(base) if x in at_w] + fresh_starts
        base += pad
        for step, offset in steps:
            new = base.copy()
            seen = 0  # bit i: local dart i lies on a traced path
            for j, i in starts:
                while True:
                    seen |= 1 << i
                    t = res[step[i]]
                    if t < 0:
                        break
                    i = t
                new[j] = ~t
            closed = 0
            if seen != every:
                for i in range(degree):
                    if not seen >> i & 1:
                        closed += 1
                        while not seen >> i & 1:
                            seen |= 1 << i
                            i = res[step[i]]
            target = composed.get(key := tuple(new))
            if (merged := fold(target, payload, closed, offset)) is not target:
                composed[key] = merged
    return composed


def _frontier(graph: MetricGraph, orders: _Orders, start: Any, fold: Callable) -> Any:
    """The payload left once every vertex is placed, by the frontier DP
    over the rotations that take each vertex's cyclic order from
    ``orders[v]``, starting from ``start`` before any vertex is placed.
    ``orders[v*]`` must be closed under reversal (:func:`_plan`).

    Under a rotation of the placed set S alone the face permutation splits
    into closed faces, which are only counted, and open paths, each
    entering S at the S-side dart of a cut edge, its entry, and leaving at
    an outside dart, its exit.  A state is the tuple of the exits, one per
    entry, with the entries in the order their vertices were placed and
    each vertex's in dart order.  With every vertex placed the one state
    left is empty.

    Each state carries one payload over the partial rotations that reach
    it, which all have the same completions, and ``fold`` merges the
    payloads that meet: ``fold(target, payload, closed, offset)`` is the
    new state's payload, given ``target``, its payload so far (None for a
    new state), and a state's ``payload`` carried by one more order of the
    placed vertex, which closes ``closed`` faces and adds ``offset`` to
    every :func:`enumerate_rotations` index (the order's position times the
    vertex's stride, :func:`_strides`).  A fold builds a fresh payload for
    a new state and never changes the payload it reads, which the other
    orders read too.  Where v* exists each partial rotation stands for two:
    itself and its mirror image (module docstring).  The order of placement
    changes the cost, never the result.
    """
    states = {(): start}
    for placement in _plan(graph, orders):
        states = _compose(placement, states, fold)
    return states[()]


def _profile(graph: MetricGraph, orders: _Orders) -> dict[int, int]:
    """{walk count: rotation count} over ``orders``, by :func:`_frontier`
    with a fold that keeps a histogram {closed faces: partial rotations},
    which starts at 2, not 1, where v* exists."""

    def histogram(target: dict | None, counts: dict, closed: int, offset: int) -> dict:
        target = {} if target is None else target
        for faces, rotations in counts.items():
            target[faces + closed] = target.get(faces + closed, 0) + rotations
        return target

    return _frontier(graph, orders, {0: 1 if _mirror_vertex(graph) is None else 2}, histogram)


def _extremes(graph: MetricGraph, orders: _Orders) -> dict[int, RotationSystem]:
    """{least walk count: its first rotation, greatest: its first rotation}
    over ``orders``, in :func:`enumerate_rotations` order, each first index
    decoded by :func:`_rotation_at`, by :func:`_frontier` with a fold that
    keeps four ints per state: the least closed-face count with the
    smallest index there, and the greatest with the smallest index there.

    That is exact: a rotation at the global minimum reaches each state at
    that state's least count, or a partial rotation with fewer closed faces
    and the same completion would beat it; and indices add over placements,
    so the smallest partial index gives the smallest total.  The same holds
    for the maximum.
    """

    def bounds(t: list[int] | None, payload: list[int], closed: int, offset: int) -> list[int]:
        lo, lo_first, hi, hi_first = payload
        lo += closed
        hi += closed
        lo_first += offset
        hi_first += offset
        if t is None:
            return [lo, lo_first, hi, hi_first]
        if lo < t[0] or lo == t[0] and lo_first < t[1]:
            t[0], t[1] = lo, lo_first
        if hi > t[2] or hi == t[2] and hi_first < t[3]:
            t[2], t[3] = hi, hi_first
        return t

    lo, lo_first, hi, hi_first = _frontier(graph, orders, [0, 0, 0, 0], bounds)
    return {lo: _rotation_at(orders, lo_first), hi: _rotation_at(orders, hi_first)}


def dart_label(graph: MetricGraph, dart: int) -> str:
    """``<edge>+`` for the file-direction dart, ``<edge>-`` for its mate."""
    return graph.edge_names[edge_of(dart)] + ("+" if dart % 2 == 0 else "-")


def rotation_to_lines(graph: MetricGraph, rotation: RotationSystem) -> list[str]:
    """Serialize as one ``rot <vertex> <dart> ...`` line per vertex."""
    labels = [name + sign for name in graph.edge_names for sign in "+-"]  # by dart id
    return [
        f"rot {graph.vertex_names[v]} " + " ".join([labels[d] for d in cycle])
        for v, cycle in enumerate(rotation.cycles)
    ]


def rotation_from_lines(graph: MetricGraph, lines: Iterable[str]) -> RotationSystem:
    """Parse the output of :func:`rotation_to_lines`."""
    darts = {}  # every dart label, to its dart
    for e, name in enumerate(graph.edge_names):
        if isinstance(name, str) and name:
            darts[name + "+"], darts[name + "-"] = 2 * e, 2 * e + 1
    cycles: dict[int, tuple[int, ...]] = {}
    for raw in lines:
        if type(raw) is not str:
            raise GraphFormatError(f"bad rotation record {quote(raw)}")
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] != "rot" or len(parts) < 3:
            raise GraphFormatError(f"bad rotation record {quote(raw)}")
        v = graph.vertex_ids.get(parts[1])
        if v is None:
            raise GraphFormatError(f"unknown vertex {quote(parts[1])}")
        if v in cycles:
            raise GraphFormatError(f"vertex {quote(parts[1])} listed twice")
        try:
            cycles[v] = tuple([darts[label] for label in parts[2:]])
        except KeyError as exc:  # the first label that names no dart
            label = exc.args[0]
            if len(label) < 2 or label[-1] not in "+-":
                raise GraphFormatError(f"bad dart label {quote(label)}") from None
            raise GraphFormatError(f"unknown edge {quote(label[:-1])} in dart label") from None
    missing = [graph.vertex_names[v] for v in range(graph.vertex_count) if v not in cycles]
    if missing:
        raise GraphFormatError(f"missing rotation for vertices {quote(missing)}")
    return make_rotation(graph, [cycles[v] for v in range(graph.vertex_count)])
