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
rotations, and at most :data:`ORDERS_LIMIT` cyclic orders to list (the
sum of (deg - 1)! over the vertices of degree 3 or more, which
:func:`_vertex_orders` would build), a memory guard that no cap moves.
Each such term is at least 2, so the sum never passes the product, the
rotation count: at the default cap, which equals the limit, the orders
refuse only where the rotation count does too.  Where both
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

Where a graph is planar the most walks need no DP: a genus-0 rotation has
2 - chi of them, which no rotation beats.  :func:`_planar_rotation` finds
one in near-linear time, by the left-right planarity test, or finds the
graph not planar; :func:`ribbon_embed.moves._ge_max` recounts its
rotation with the kernel before reading g_e^max off it.
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
ORDERS_LIMIT = 10**6  # cyclic orders the gate lets be listed, whatever the cap

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
        (listed, ORDERS_LIMIT, "cyclic orders to list exceed the limit", OrdersRefusal),
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


def _planar_rotation(graph: MetricGraph) -> RotationSystem | None:
    """A genus-0 rotation of the connected ``graph``, or None where it is
    not planar, by the left-right planarity test with its embedding phase
    (de Fraysseix and Rosenstiehl; Brandes, "The Left-Right Planarity
    Test", 2009), run without recursion.

    The test runs on the simple graph under ``graph``: loops dropped, each
    parallel class kept as one edge, and more than 3n - 6 such edges
    refused at once.  A depth-first search orients the edges, and each
    edge's lowpoints and nesting depth follow, children first.  A second
    search, in nesting order, keeps a stack of conflict pairs, each two
    intervals of return edges that must lie on opposite sides, and refuses
    where a pair cannot be split.  Each edge's side is then resolved along
    its reference chain, and a third search, in the signed nesting order,
    meets the back edges into each vertex w from below each tree edge
    (w, c) in the order Brandes inserts them.  So w's cyclic order is its
    tree edge up, then its edges out in that order, where a back edge out
    stands alone and a tree edge (w, c) has the left back edges from below
    c just before it and the right ones just after it, each side last met
    first.

    The embedding is lifted back to ``graph``: a parallel class becomes
    consecutive darts, in reverse order at its far end, which adds one
    face per added edge, and each loop's two darts sit side by side, which
    adds one face per loop.  So a planar verdict's rotation has 2 - chi
    walks; a caller recounts it rather than trusting the test.
    """
    n = graph.vertex_count
    vertex_of = graph.vertex_of
    loops: dict[int, list[int]] = {}
    ends: dict[int, int] = {}  # a * n + b, for ends a < b: the simple edge there
    other: list[int] = []  # per simple edge: the xor of its ends
    near: list[list[int]] = []  # per simple edge: its darts at its source, once oriented
    far: list[list[int]] = []  # and at its target, in reverse order
    adj: list[list[int]] = [[] for _ in range(n)]
    for d in range(0, len(vertex_of), 2):
        a, b = vertex_of[d], vertex_of[d + 1]
        if a == b:
            loops.setdefault(a, []).extend((d, d + 1))
            continue
        if a > b:
            a, b, d = b, a, d + 1
        e = ends.setdefault(a * n + b, len(other))
        if e == len(other):
            other.append(a ^ b)
            near.append([d])
            far.append([d ^ 1])
            adj[a].append(e)
            adj[b].append(e)
        else:
            near[e].append(d)
            far[e].insert(0, d ^ 1)
    m = len(other)
    if n > 2 and m > 3 * n - 6:
        return None

    # orientation: one DFS from vertex 0 gives each vertex its height and
    # tree edge up, each edge its target and, for a back edge, the child of
    # its target it returns past (``via``); each vertex, once done, gives
    # its edges out their nesting depths and its tree edge up their
    # lowpoints.  Index m of an edge table stands for "none" (-1).
    height = [-1] * n
    parent = [-1] * n
    target = [-1] * m
    via = [0] * m
    lowpt = [0] * m + [-1]
    lowpt2 = [0] * m
    nesting = [0] * m
    out: list[list[int]] = [[] for _ in range(n)]
    height[0] = 0
    path = [0]  # the tree path from vertex 0, by height
    searches = [iter(adj[0])]
    while searches:
        v = path[-1]
        hv = height[v]
        edges = out[v]
        for e in searches[-1]:
            if target[e] >= 0:
                continue  # oriented from its other end
            w = other[e] ^ v
            target[e] = w
            edges.append(e)
            if vertex_of[near[e][0]] != v:
                near[e], far[e] = far[e], near[e]
            lowpt2[e] = hv
            if height[w] < 0:  # a tree edge
                lowpt[e] = hv
                parent[w] = e
                height[w] = hv + 1
                path.append(w)
                searches.append(iter(adj[w]))
                break
            lowpt[e] = height[w]  # a back edge
            via[e] = path[height[w] + 1]
        else:
            path.pop()
            searches.pop()
            up = parent[v]
            for e in edges:
                low, low2 = lowpt[e], lowpt2[e]
                nesting[e] = 2 * low + (low2 < hv)
                if up < 0:
                    continue
                if low < lowpt[up]:
                    lowpt2[up] = min(lowpt[up], low2)
                    lowpt[up] = low
                elif low > lowpt[up]:
                    lowpt2[up] = min(lowpt2[up], low)
                else:
                    lowpt2[up] = min(lowpt2[up], low2)
    for edges in out:
        if len(edges) > 1:
            edges.sort(key=nesting.__getitem__)

    # testing: conflict pairs [left low, left high, right low, right high]
    ref = [-1] * (m + 1)
    side = [1] * m
    lowpt_edge = [0] * m
    bottom: list[list[int] | None] = [None] * m  # the stack's top when each edge began
    pairs: list[list[int]] = []
    stack = [0]
    pos = [0] * n
    while stack:
        v = stack[-1]
        i = pos[v]
        if i == len(out[v]):
            stack.pop()
            e = parent[v]
            if e < 0:
                continue
            u = other[e] ^ v  # remove the back edges returning to u
            hu = height[u]
            while pairs:
                p = pairs[-1]
                if p[0] < 0 and p[1] < 0:
                    lowest = lowpt[p[2]]
                elif p[2] < 0 and p[3] < 0:
                    lowest = lowpt[p[0]]
                else:
                    lowest = min(lowpt[p[0]], lowpt[p[2]])
                if lowest != hu:
                    break
                pairs.pop()
                if p[0] >= 0:
                    side[p[0]] = -1
            if pairs:
                p = pairs[-1]
                while p[1] >= 0 and target[p[1]] == u:
                    p[1] = ref[p[1]]
                if p[1] < 0 and p[0] >= 0:  # the left interval just emptied
                    ref[p[0]] = p[2]
                    side[p[0]] = -1
                    p[0] = -1
                while p[3] >= 0 and target[p[3]] == u:
                    p[3] = ref[p[3]]
                if p[3] < 0 and p[2] >= 0:  # the right interval just emptied
                    ref[p[2]] = p[0]
                    side[p[2]] = -1
                    p[2] = -1
            if lowpt[e] < hu:  # e's side is that of a highest return edge
                hl, hr = pairs[-1][1], pairs[-1][3]
                ref[e] = hl if hl >= 0 and (hr < 0 or lowpt[hl] > lowpt[hr]) else hr
            ei, v = e, u
        else:
            ei = out[v][i]
            bottom[ei] = pairs[-1] if pairs else None
            if parent[target[ei]] == ei:
                stack.append(target[ei])
                continue
            lowpt_edge[ei] = ei
            pairs.append([-1, -1, ei, ei])
        pos[v] += 1
        if lowpt[ei] >= height[v]:
            continue
        e = parent[v]
        if ei == out[v][0]:
            lowpt_edge[e] = lowpt_edge[ei]
            continue
        # add the constraints of ei: its return edges go right ...
        new = [-1, -1, -1, -1]
        while True:
            q = pairs.pop()
            if q[0] >= 0 or q[1] >= 0:
                q[0], q[1], q[2], q[3] = q[2], q[3], q[0], q[1]
                if q[0] >= 0 or q[1] >= 0:
                    return None
            if lowpt[q[2]] > lowpt[e]:
                if new[2] < 0 and new[3] < 0:
                    new[3] = q[3]
                else:
                    ref[new[2]] = q[3]
                new[2] = q[2]
            else:
                ref[q[2]] = lowpt_edge[e]
            if (pairs[-1] if pairs else None) is bottom[ei]:
                break
        # ... and the conflicting ones of its earlier siblings go left
        low = lowpt[ei]
        while pairs:
            q = pairs[-1]
            swap = q[3] >= 0 and lowpt[q[3]] > low
            if not (swap or (q[1] >= 0 and lowpt[q[1]] > low)):
                break
            pairs.pop()
            if swap:
                q[0], q[1], q[2], q[3] = q[2], q[3], q[0], q[1]
                if q[3] >= 0 and lowpt[q[3]] > low:
                    return None
            ref[new[2]] = q[3]
            if q[2] >= 0:
                new[2] = q[2]
            if new[0] < 0 and new[1] < 0:
                new[1] = q[1]
            else:
                ref[new[0]] = q[1]
            new[0] = q[0]
        if new != [-1, -1, -1, -1]:
            pairs.append(new)

    # each edge's side, resolved along its reference chain, signs its nesting depth
    for e in range(m):
        if ref[e] >= 0:
            chain = []
            f = e
            while ref[f] >= 0:
                chain.append(f)
                f = ref[f]
            s = side[f]
            for f in reversed(chain):
                s = side[f] = side[f] * s
                ref[f] = -1
        nesting[e] *= side[e]
    for edges in out:
        if len(edges) > 1:
            edges.sort(key=nesting.__getitem__)

    # embedding: the darts of the back edges into each vertex from below
    # each of its tree edges, by side, each met by the search in signed
    # order put first, so the last met leads
    left: list[list[int]] = [[] for _ in range(n)]  # by the tree edge's child
    right: list[list[int]] = [[] for _ in range(n)]
    searches = [iter(out[0])]
    while searches:
        for e in searches[-1]:
            w = target[e]
            if parent[w] == e:
                searches.append(iter(out[w]))
                break
            (right if side[e] == 1 else left)[via[e]][:0] = far[e]
        else:
            searches.pop()
    cycles = []
    for v, edges in enumerate(out):
        cycle = loops.get(v) or []
        if v:  # every vertex but vertex 0 has a tree edge up
            cycle += far[parent[v]]
        for e in edges:
            c = target[e]
            if parent[c] == e:
                cycle += left[c] + near[e] + right[c]
            else:
                cycle += near[e]
        cycles.append(canonical_cycle(cycle))
    return RotationSystem(tuple(cycles))


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
