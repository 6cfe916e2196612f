"""Local rotation surgery: trade boundary walks in steps of two.

A move relocates a single dart inside one vertex cycle.  When a vertex
meets at least three distinct boundary walks, some such relocation merges
three walks into one (count - 2); the mirror search looks for a relocation
that splits one walk into three (count + 2).  Taking dart x from before n
and putting it before b rewrites three successor entries, so the new face
permutation is the old one composed with the 3-cycle (n -> x -> b -> n),
and the face ids of one trace score every candidate
(:func:`_relocation_delta`): three distinct faces through n, x and b merge
(-2); one face splits into three (+2) when the walk from n meets b before
x; anything else keeps the count.  A vertex meeting three walks with no
reducing relocation would disprove the underlying theory and raises
:class:`InternalInvariantError`.

One search (:func:`_search`) climbs in either direction and certifies its
result by a ladder of certificates, cheapest first; the rung that settles
the optimum is named by the result's ``certificate``.  A climb
(:func:`_climb`) keeps one list of cycles and one successor table, which
each move rewrites at the moved vertex alone, and builds its rotation
once, at the end; :func:`reduce_move` and :func:`increase_move` trace
afresh and make one move each, its reference.  The ladder:

1. A count no rotation can beat, reached by the climb, is optimal on
   sight: minimizing, 1 plus the bridge floor of zeta
   (:func:`~ribbon_embed.invariants.zeta_floor`, linear time), ``"floor"``;
   maximizing, :func:`_walk_bound` (genus 0, or every walk as long as the
   girth), ``"walk-bound"``.
2. For g_e^max, which is a genus, not a count (:func:`analyze` and
   :func:`ge_max_exact` only), and where the DP is admitted: the plateau.
   One ascent whose count has the capped genus of :func:`_walk_bound`
   pins g_e^max with no DP pass (:func:`_ge_max`).  No search result
   names it: it settles a genus, not a walk count.
3. Short of the bound (or the plateau), one pass of the frontier DP,
   where the rotation gate admits it, decides the optimum and gives the
   first rotation at it: ``"dp"``.
4. Where the gate refuses the DP, minimizing only, Xuong's spanning-tree
   search (:func:`~ribbon_embed.invariants.betti_deficiency`) gives
   1 + zeta when Kirchhoff's count puts the trees within the tree cap
   (:func:`_minimize`): ``"trees"``.  Where the DP is admitted no tree is
   enumerated but by :func:`oracle`.

With no rung in reach, ``certificate`` and ``optimum`` are None.

:func:`analyze`, :func:`essential_genus` and :func:`max_genus` take zeta
from the minimum a rung settles, by one policy (:func:`_zeta`), or refuse.
The costly inputs of the ladder are one call's record (:class:`_Rungs`):
the answer of the rotation gate (:func:`~ribbon_embed.rotation.refusal`),
the DP pass, and Kirchhoff's tree count, each asked for at most once and
only when a rung first needs it.  :func:`analyze` reads zeta, g_e^max and
its report off one record, so the pass runs only where the descent misses
the floor or the ascent the plateau.  Where the gate refuses the DP,
g_e^max stays unknown.

:func:`oracle` re-verifies the theory by brute force, in two passes over
the rotations, each rewriting its table only at the vertices whose cycle
changed since the last rotation.  The first counts every rotation once by
a tracer of the oracle's own, which follows the inverse face permutation
and shares no code with the kernel.  The second traces every rotation once
by the kernel, checks its count against the first pass's, and checks every
reducing move by the first pass's count at the rotation the move reaches;
each greedy descent is read off the rotation its first move reaches.
The second pass finds each rotation's crowded vertices in one call
(:func:`~ribbon_embed.rotation._crowded_vertices`, a vertex of three darts
tested inline), and every move scan, the oracle's and the climbs', scores a
vertex of three darts by its one relocation, once (:func:`_relocated_cycle`).
"""

from __future__ import annotations

import itertools
import math
import random
from array import array
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

from . import rotation as rotation_module
from .errors import (
    CapExceededError,
    InternalInvariantError,
    MovePreconditionError,
    NoIncreasingMoveError,
    clip,
)
from .graph import MetricGraph, betti, euler_char, girth, graph_hash, smooth
from .invariants import (
    DEFAULT_TREE_CAP,
    InvariantReport,
    _tree_count,
    betti_deficiency,
    capped_genus,
    ge_max_bound,
    qr_split,
    zeta_floor,
)
from .rotation import (
    DEFAULT_ROTATION_CAP,
    OrdersRefusal,
    RotationSystem,
    _crowded_vertices,
    _extremes,
    _faces,
    _incidence,
    _set_succ,
    _strides,
    _succ,
    _vertex_orders,
    count_rotations,
    dart_label,
    default_rotation,
)

DEFAULT_RESTARTS = 8


@dataclass(frozen=True)
class MoveRecord:
    """One applied move: a single dart relocated within one vertex cycle."""

    vertex: int
    old_cycle: tuple[int, ...]
    new_cycle: tuple[int, ...]
    boundary_delta: int

    def to_line(self, graph: MetricGraph) -> str:
        old = " ".join(dart_label(graph, d) for d in self.old_cycle)
        new = " ".join(dart_label(graph, d) for d in self.new_cycle)
        sign = f"{self.boundary_delta:+d}"
        return f"move {graph.vertex_names[self.vertex]} {old} -> {new} delta {sign}"


def _relocation_delta(
    face: Sequence[int], succ: Sequence[int], n: int, x: int, b: int
) -> int:
    """How the walk count changes when dart x, now just before n in its
    vertex cycle, moves to just before b.

    Only the successors of n, x and b change: the new face permutation is
    the old one composed with the 3-cycle (n -> x -> b -> n).  Three distinct
    faces through n, x and b merge into one (-2).  On one face, the walk from
    n meets either x first, and the face stays whole (0), or b first, and it
    splits into three (+2).  With exactly two of them on one face the count
    stays (0).
    """
    fn, fx, fb = face[n], face[x], face[b]
    if fn != fx and fx != fb and fb != fn:
        return -2
    if fn != fx or fx != fb:
        return 0
    d = succ[n]
    while d != x and d != b:
        d = succ[d]
    return 2 if d == b else 0


def _relocated_cycle(
    cycle: tuple[int, ...], delta: int, face: Sequence[int], succ: Sequence[int]
) -> tuple[int, ...] | None:
    """The vertex cycle, canonical, after the first relocation in the
    canonical ``cycle`` changing the walk count by ``delta``, or None.

    ``face`` and ``succ`` are one trace of a rotation holding ``cycle``;
    each candidate is scored from them by :func:`_relocation_delta`, with
    no trace of its own.  The scan runs over (source, slot) pairs, source
    position ascending, then insertion slot ascending.  It skips the
    identity, and sources whose x and n rule the sign out, but not cyclic
    duplicates: one has the delta of the candidate it repeats, which was
    already turned down.  The smallest dart leads ``cycle``, so the moved
    cycle is built canonical: led by x when x is that dart, ending in x
    when x lands just before it, and led by it otherwise.

    A cycle of three darts (a, b, c) is scored once, by its first
    candidate (a moved before c).  Every candidate of the scan moves one
    dart into the one slot left to it, and each reaches the same cycle,
    (a, c, b), so each has the same delta, loops included: that one score
    decides the scan exactly, in both directions.
    """
    k = len(cycle)
    if k == 3:
        a, b, c = cycle
        return (a, c, b) if _relocation_delta(face, succ, b, a, c) == delta else None
    for i, x in enumerate(cycle):
        n = cycle[(i + 1) % k]
        if (face[n] == face[x]) == (delta < 0):
            continue  # -2 needs n and x on two faces, +2 on one
        for b in cycle:
            if b != x and b != n and _relocation_delta(face, succ, n, x, b) == delta:
                rest = cycle[:i] + cycle[i + 1 :]
                j = rest.index(b)
                if i == 0:
                    return (x,) + rest[j:] + rest[:j]
                if j == 0:
                    return rest + (x,)
                return rest[:j] + (x,) + rest[j:]
    return None


def _no_reducing_move(graph: MetricGraph, vertex: int, walks: int) -> InternalInvariantError:
    return InternalInvariantError(
        f"no reducing relocation at vertex {clip(graph.vertex_names[vertex])} although it "
        f"meets {walks} walks"
    )


def reduce_move(
    graph: MetricGraph, rotation: RotationSystem, vertex: int
) -> tuple[RotationSystem, MoveRecord]:
    """Drop the boundary-walk count by exactly 2 with one dart relocation.

    Precondition: ``vertex`` meets at least three distinct walks.  Under
    that precondition a reducing relocation always exists at the vertex
    itself; not finding one is reported as an internal error.
    """
    face, _, succ = _faces(graph.dart_count, rotation.cycles)
    walks = _incidence(rotation.cycles[vertex], face)
    if walks < 3:
        raise MovePreconditionError(
            f"vertex {clip(graph.vertex_names[vertex])} meets {walks} walks; "
            "a reducing move needs at least 3"
        )
    cycle = rotation.cycles[vertex]
    moved = _relocated_cycle(cycle, -2, face, succ)
    if moved is None:
        raise _no_reducing_move(graph, vertex, walks)
    cycles = rotation.cycles[:vertex] + (moved,) + rotation.cycles[vertex + 1 :]
    return RotationSystem(cycles), MoveRecord(vertex, cycle, moved, -2)


def increase_move(
    graph: MetricGraph, rotation: RotationSystem
) -> tuple[RotationSystem, MoveRecord]:
    """Raise the boundary-walk count by exactly 2, scanning vertices by id."""
    face, _, succ = _faces(graph.dart_count, rotation.cycles)
    for vertex, cycle in enumerate(rotation.cycles):
        moved = _relocated_cycle(cycle, +2, face, succ)
        if moved is not None:
            cycles = rotation.cycles[:vertex] + (moved,) + rotation.cycles[vertex + 1 :]
            return RotationSystem(cycles), MoveRecord(vertex, cycle, moved, +2)
    raise NoIncreasingMoveError("no single-dart relocation increases the walk count")


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a greedy boundary-count search.

    ``greedy_count`` is the count where the first descent (or ascent) from
    the given start stalled; ``boundary_count`` the best found overall.
    ``optimum`` is the global optimum a rung of the ladder (module
    docstring) settles, and ``certificate`` that rung's name (``"floor"``,
    ``"walk-bound"``, ``"dp"`` or ``"trees"``); both are None where no rung
    settles it.  :attr:`certified`: the result attains the optimum.
    """

    rotation: RotationSystem
    boundary_count: int
    optimum: int | None
    certificate: str | None
    initial_count: int
    greedy_count: int
    moves: tuple[MoveRecord, ...]
    restarts_used: int

    @property
    def certified(self) -> bool:
        return self.boundary_count == self.optimum


def _climb(
    graph: MetricGraph, rotation: RotationSystem, delta: int
) -> tuple[RotationSystem, int, list[MoveRecord]]:
    """Apply relocations changing the walk count by ``delta`` (-2 or +2)
    until none is found; return the final rotation, its count and the moves.

    The climb keeps one list of cycles and one successor table for its
    whole run: a move rewrites the table at the moved vertex alone
    (:func:`~ribbon_embed.rotation._set_succ`), the one kernel
    :func:`~ribbon_embed.rotation._trace` traces it after every move, and
    the :class:`RotationSystem` is built once, at the end.  Descending
    tries only the first vertex meeting three or more walks
    (:func:`~ribbon_embed.rotation._crowded_vertices`, the oracle's scan),
    where a reducing relocation must exist; ascending scans every vertex by
    id, as :func:`increase_move` does.
    """
    cycles = list(rotation.cycles)
    succ = _succ(graph.dart_count, cycles)
    trace = rotation_module._trace  # the one kernel, looked up when the climb starts
    records = []
    while True:
        face, count = trace(succ)
        vertices = _crowded_vertices(cycles, face)[:1] if delta < 0 else range(graph.vertex_count)
        for v in vertices:
            cycle = cycles[v]
            moved = _relocated_cycle(cycle, delta, face, succ)
            if moved is not None:
                break
            if delta < 0:
                raise _no_reducing_move(graph, v, _incidence(cycle, face))
        else:
            return RotationSystem(tuple(cycles)), count, records
        cycles[v] = moved
        _set_succ(succ, (moved,))
        records.append(MoveRecord(v, cycle, moved, delta))


class _Rungs:
    """The costly inputs of one call's ladder over ``graph``, each asked
    for at most once and only when a rung first needs it.

    :attr:`refusal`: the answer of the one gate,
    :func:`~ribbon_embed.rotation.refusal`, at ``rotation_cap``, and
    :attr:`admitted` whether it was None: whether the frontier DP may run.
    :meth:`dp`: the one pass, or None where it is not admitted; once it has
    run, ``extremes`` holds :func:`_extremes` (the least and the greatest
    walk count, each with its first rotation in enumeration order), None
    until then.  :attr:`trees`: Kirchhoff's count, or None above
    ``tree_cap``.
    """

    extremes = None

    def __init__(self, graph: MetricGraph, tree_cap: int, rotation_cap: int) -> None:
        self.graph, self.tree_cap, self.rotation_cap = graph, tree_cap, rotation_cap

    @cached_property
    def refusal(self) -> CapExceededError | None:
        return rotation_module.refusal(self.graph, self.rotation_cap)

    @property
    def admitted(self) -> bool:
        return self.refusal is None

    @cached_property
    def trees(self) -> int | None:
        return _tree_count(self.graph, self.tree_cap)

    def dp(self) -> dict[int, RotationSystem] | None:
        if self.extremes is None and self.admitted:
            self.extremes = _extremes(self.graph, _vertex_orders(self.graph, None))
        return self.extremes


def _search(
    rungs: _Rungs, start: RotationSystem | None, restarts: int, seed: int, delta: int, bound: int
) -> SearchResult:
    """Greedy climb over ``rungs.graph`` in direction ``delta`` towards
    ``bound``, then seeded restarts, then the frontier DP over every
    rotation: the ladder of the module docstring, but for the
    spanning-tree rung.

    ``bound`` is a count no rotation can beat, so reaching it certifies the
    result at once, as ``"floor"`` descending and ``"walk-bound"``
    ascending.  Only when the climb and the restarts end short of it is
    ``rungs`` asked for the DP pass (:meth:`_Rungs.dp`; None where the gate
    refuses it), which decides the optimum (``"dp"``) and gives the first
    rotation, in enumeration order, at the least and the greatest count
    (:func:`~ribbon_embed.rotation._extremes`): a best count short of the
    optimum gives way to that rotation, the witness, retraced here.  With
    no pass, the result has no ``optimum`` and no ``certificate``.  A graph
    that is not connected raises
    :class:`~ribbon_embed.errors.GraphValidationError` first.
    """
    graph = rungs.graph
    graph._require_connected()

    def beats(a: int, b: int) -> bool:
        return a * delta > b * delta

    if start is None:
        start = default_rotation(graph, 0)
    rotation, count, records = _climb(graph, start, delta)
    initial = count - delta * len(records)  # every move changes the count by delta
    greedy_count = count
    best = (count, rotation, tuple(records))
    restarts_used = 0

    rng = random.Random(seed)
    for _ in range(restarts):
        if best[0] == bound:
            break
        restarts_used += 1
        retry_start = default_rotation(graph, rng.randrange(1, 2**30))
        rotation, count, records = _climb(graph, retry_start, delta)
        if beats(count, best[0]):
            best = (count, rotation, tuple(records))
    if beats(best[0], bound):
        raise InternalInvariantError(f"count {best[0]} lies beyond the bound {bound}")
    optimum = certificate = None
    if best[0] == bound:
        optimum, certificate = bound, "floor" if delta < 0 else "walk-bound"
    elif (extremes := rungs.dp()) is not None:
        optimum, certificate = (max if delta > 0 else min)(extremes), "dp"
        if beats(optimum, best[0]):
            witness = extremes[optimum]
            count = _faces(graph.dart_count, witness.cycles)[1]
            if count != optimum:
                raise InternalInvariantError(f"witness has {count} walks, not {optimum}")
            best = (count, witness, ())

    return SearchResult(
        rotation=best[1],
        boundary_count=best[0],
        optimum=optimum,
        certificate=certificate,
        initial_count=initial,
        greedy_count=greedy_count,
        moves=best[2],
        restarts_used=restarts_used,
    )


def minimize_boundaries(
    graph: MetricGraph,
    start: RotationSystem | None = None,
    restarts: int = 0,
    seed: int = 0,
    tree_cap: int = DEFAULT_TREE_CAP,
    rotation_cap: int = DEFAULT_ROTATION_CAP,
) -> SearchResult:
    """Greedy walk-count minimization, certified by the ladder of the module
    docstring, with 1 + :func:`zeta_floor` as its bound.

    Applies reducing moves until no vertex meets three walks, then retries
    from seeded random rotations; reaching the floor stops both.
    ``rotation_cap`` gates the frontier DP, and ``tree_cap`` the
    spanning-tree rung, which runs only where the gate refuses the DP.  The
    best rotation found is certified when it attains the optimum a rung
    settles; with no rung in reach it has no ``optimum``.
    """
    return _minimize(_Rungs(graph, tree_cap, rotation_cap), start, restarts, seed)


def _minimize(
    rungs: _Rungs, start: RotationSystem | None, restarts: int, seed: int
) -> SearchResult:
    """:func:`minimize_boundaries` over the costly rungs of one call, which
    a caller that reads them itself shares, so that none runs twice:
    ``rungs.trees``, Kirchhoff's count, is asked only when :func:`_search`
    returns no ``optimum``."""
    graph = rungs.graph
    result = _search(rungs, start, restarts, seed, -2, 1 + zeta_floor(graph))
    if result.optimum is not None or rungs.trees is None:
        return result
    return replace(result, optimum=1 + betti_deficiency(graph, rungs.tree_cap), certificate="trees")


def _walk_bound(graph: MetricGraph) -> int:
    """A walk count no rotation beats: 2 - chi (genus 0), and, with a
    cycle, 2|E| // girth, since every walk then holds a cycle and the
    walks use each edge twice, as :func:`ge_max_bound` reads it; the
    smaller, lowered to chi's parity."""
    chi, shortest = euler_char(graph), girth(graph)
    bound = 2 - chi if shortest == math.inf else min(2 - chi, 2 * graph.edge_count // shortest)
    return bound - (bound - chi) % 2


def maximize_boundaries(
    graph: MetricGraph,
    start: RotationSystem | None = None,
    restarts: int = 0,
    seed: int = 0,
    rotation_cap: int = DEFAULT_ROTATION_CAP,
) -> SearchResult:
    """Greedy walk-count maximization, certified by the ladder of the module
    docstring, turned over, with :func:`_walk_bound` as its bound and no
    spanning-tree rung.

    Applies increasing moves until none is found, then retries from seeded
    random rotations; reaching the bound stops both.  ``rotation_cap``
    gates the frontier DP; with the DP capped out, the best rotation found
    is returned uncertified, with no ``optimum``.
    """
    rungs = _Rungs(graph, DEFAULT_TREE_CAP, rotation_cap)  # no tree rung here
    return _search(rungs, start, restarts, seed, +2, _walk_bound(graph))


def _zeta(rungs: _Rungs) -> int:
    """zeta, one less than the ``optimum`` :func:`minimize_boundaries`
    settles with :data:`DEFAULT_RESTARTS` restarts from seed 0 and the
    caps of ``rungs``, reached by its search or not; where no rung settles
    it, :class:`CapExceededError` is raised, naming both caps, or, where
    the gate refused the DP for its cyclic orders, the tree cap and that
    refusal."""
    optimum = _minimize(rungs, None, DEFAULT_RESTARTS, 0).optimum
    if optimum is None:
        if isinstance(rungs.refusal, OrdersRefusal):  # no rotation cap lifts it
            caps = f"the cap of {rungs.tree_cap} trees; {rungs.refusal}"
        else:
            caps = f"the caps of {rungs.tree_cap} trees and {rungs.rotation_cap} rotations"
        raise CapExceededError(f"zeta not certified within {caps}")
    return optimum - 1


def max_genus(graph: MetricGraph, cap: int = DEFAULT_TREE_CAP) -> int:
    """(beta - zeta) / 2: the largest genus over which some rotation fills,
    with zeta as :func:`analyze` takes it, within ``cap`` trees."""
    return (betti(graph) - _zeta(_Rungs(graph, cap, DEFAULT_ROTATION_CAP))) // 2


def essential_genus(graph: MetricGraph, cap: int = DEFAULT_TREE_CAP) -> int:
    """Least genus of a closed surface carrying an essential embedding: the
    :func:`capped_genus` of 1 + zeta walks, zeta as :func:`max_genus` takes
    it.  Degree-2 vertices are smoothed away first, since subdividing edges
    changes no embedding; cycle graphs are rejected (they embed everywhere).
    """
    graph = smooth(graph)
    return capped_genus(graph, 1 + _zeta(_Rungs(graph, cap, DEFAULT_ROTATION_CAP)))


def _ge_max(rungs: _Rungs) -> int | None:
    """g_e^max of the connected ``rungs.graph``, or None where the DP is
    not admitted (:attr:`_Rungs.admitted`), before anything else runs.

    If the pass has already run, for zeta, its maximum is read.  Otherwise
    one ascent from the file-order rotation (:func:`_climb`, no restarts)
    comes first: when its count has the capped genus of
    :func:`_walk_bound`, that is g_e^max, the plateau.  Every walk count
    shares chi's parity, the most walks lie between the ascent's count and
    the bound, and the capped genus never falls as the count rises by 2,
    so equal ends pin the middle.  Only short of the plateau is the pass
    asked for.
    """
    if not rungs.admitted:
        return None
    graph = rungs.graph
    if rungs.extremes is None:
        top = capped_genus(graph, _walk_bound(graph))
        if capped_genus(graph, _climb(graph, default_rotation(graph, 0), +2)[1]) == top:
            return top
    return capped_genus(graph, max(rungs.dp()))


def ge_max_exact(graph: MetricGraph, cap: int = DEFAULT_ROTATION_CAP) -> int:
    """Adversarial genus: the largest :func:`capped_genus` over all
    rotations, which is that of the most walks, since the capped genus
    never falls as the walk count rises by 2.  Raises
    :class:`~ribbon_embed.errors.GraphValidationError` on a graph that is
    not connected and, where the gate refuses the DP at ``cap``, its
    refusal (:attr:`_Rungs.refusal`).  As :func:`analyze` reads it
    (:func:`_ge_max`): the plateau of one ascent, else the DP's extremes
    fold (:func:`~ribbon_embed.rotation._extremes`), run at most once."""
    graph._require_connected()
    rungs = _Rungs(graph, DEFAULT_TREE_CAP, cap)
    if (exact := _ge_max(rungs)) is None:
        raise rungs.refusal
    return exact


def analyze(
    graph: MetricGraph,
    tree_cap: int = DEFAULT_TREE_CAP,
    rotation_cap: int = DEFAULT_ROTATION_CAP,
) -> InvariantReport:
    """The invariant report of one connected graph, smoothed first so that
    subdividing edges changes nothing.

    zeta, ``ge_max_exact`` and the report read one :class:`_Rungs`, so
    Kirchhoff's count runs once, and the frontier DP pass at most once,
    only where a rung asks for it: zeta comes from :func:`_zeta` with the
    same caps, so a graph no rung settles raises
    :class:`CapExceededError`, and ``ge_max_exact`` from :func:`_ge_max`,
    as :func:`ge_max_exact` reads it, by the plateau or the pass.
    ``tree_count`` is None above ``tree_cap``, and ``ge_max_exact`` where
    the gate refuses the DP at ``rotation_cap``; a refusal for the cyclic
    orders, which no cap lifts, is kept for the report's text.  zeta must share beta's
    parity and, wherever the pass ran, be one less than its minimum, and
    ``ge_max_exact`` keep within the girth bound, or
    :class:`InternalInvariantError` is raised.
    """
    smoothed_graph = smooth(graph)
    b = betti(smoothed_graph)
    rungs = _Rungs(smoothed_graph, tree_cap, rotation_cap)
    z = _zeta(rungs)
    if (b - z) % 2:
        raise InternalInvariantError(f"beta={b} and zeta={z} disagree in parity")
    q, r = qr_split(z + 1)
    bound = ge_max_bound(smoothed_graph)
    exact = _ge_max(rungs)
    if rungs.extremes is not None and min(rungs.extremes) != 1 + z:  # where the pass ran
        raise InternalInvariantError(
            f"minimum walk count {min(rungs.extremes)} differs from 1 + zeta = {1 + z}"
        )
    if exact is not None and exact > bound:
        raise InternalInvariantError("adversarial genus exceeds the girth bound")

    report = InvariantReport(
        graph_hash=graph_hash(smoothed_graph),
        vertex_count=smoothed_graph.vertex_count,
        edge_count=smoothed_graph.edge_count,
        smoothed=smoothed_graph is not graph,
        beta=b,
        euler=euler_char(smoothed_graph),
        girth=int(girth(smoothed_graph)),
        zeta=z,
        max_genus=(b - z) // 2,
        q=q,
        r=r,
        essential_genus=capped_genus(smoothed_graph, 1 + z),
        ge_max_bound=bound,
        ge_max_exact=exact,
        tree_count=rungs.trees,
        rotation_count=count_rotations(smoothed_graph),
    )
    if isinstance(rungs.refusal, OrdersRefusal):  # no rotation cap lifts it: name it
        object.__setattr__(report, "_ge_max_unknown", str(rungs.refusal))
    return report


def _link(inverse: list[int], cycle: Sequence[int]) -> None:
    """Write d -> next(mate(d)), the inverse face permutation, at the mates
    of the darts of one vertex cycle."""
    a = cycle[-1]
    for b in cycle:
        inverse[a ^ 1] = b
        a = b


def _orbits(inverse: Sequence[int]) -> int:
    """The orbits of the inverse face permutation (:func:`_link`): the
    walk count, traced apart from the kernel it checks."""
    seen = [False] * len(inverse)
    walks = 0
    for start in range(len(inverse)):
        if not seen[start]:
            walks += 1
            d = start
            while not seen[d]:
                seen[d] = True
                d = inverse[d]
    return walks


def _turns(orders: Sequence[Sequence[tuple[int, ...]]]) -> array:
    """For each rotation over ``orders``, in :func:`enumerate_rotations`
    order, the first vertex whose order may have changed since the last
    rotation, 0 at the first.  The enumeration is an odometer: the last
    vertex turns at every step, and vertex v with it wherever the index is
    a multiple of v's stride, so every vertex after the first turned may
    have changed too."""
    stride = _strides(orders)
    total = stride[0] * len(orders[0])
    turns = array("i", [len(orders) - 1]) * total
    for v in range(len(orders) - 2, -1, -1):
        turns[:: stride[v]] = array("i", [v]) * (total // stride[v])
    return turns


def oracle(
    graph: MetricGraph,
    tree_cap: int = DEFAULT_TREE_CAP,
    rotation_cap: int = DEFAULT_ROTATION_CAP,
) -> tuple[list[str], bool]:
    """Re-verify the boundary-walk theory on the smoothed graph by brute force:
    (report lines, whether every check passed).

    Two passes run over the rotations in :func:`enumerate_rotations`
    order.  Each rewrites its table only at the vertices whose cycle
    changed from the last rotation, which :func:`_turns` names.  The first
    pass is the recount: it links a table of the oracle's own
    (:func:`_link`) and counts it by :func:`_orbits`, which follows the
    inverse face permutation, once per rotation; no function of the kernel
    runs in it.  Its counts give the walk-count profile, checked against
    1 + zeta and Euler parity.  The second pass traces each rotation once,
    by the one kernel :func:`~ribbon_embed.rotation._trace`, from a
    successor table that :func:`~ribbon_embed.rotation._set_succ` rewrites,
    and fails where the kernel's count differs from the recount's, naming
    the first such rotation.  At each vertex meeting three or more walks
    (:func:`~ribbon_embed.rotation._crowded_vertices`, one call per
    rotation; none where the recount is below 3) the reducing relocation
    (:func:`_relocated_cycle`) must exist and reach a rotation whose
    recount is exactly 2 below the kernel's count here; a vertex of three
    darts has one such relocation to score.  That rotation differs from
    this one at the vertex alone,
    so its index is this one's plus the change in the offset of the
    vertex's order (its position times the vertex's stride).  The move at
    the first such vertex is the first step of :func:`_climb`, and the
    greedy descent from each rotation ends where the descent from the
    rotation it reaches ends.  So the pass keeps the index each first move
    reaches, and the ends are read off those pointers afterwards, fewest
    walks first (one pass over the rotations per walk count, listing
    none), with no descent traced again.  Stalls above the minimum
    are reported, not failed (loop-carrying graphs can stall with every
    vertex meeting at most two walks).  The passes keep 16 bytes per
    rotation: its recount, the index its first move reaches and the first
    vertex that turned.  The tree cap, then the rotation gate
    (:func:`~ribbon_embed.rotation.refusal`), are checked before the tree
    search for zeta, and each refusal raises :class:`CapExceededError`.
    """
    graph = smooth(graph)
    if _tree_count(graph, tree_cap) is None:
        raise CapExceededError(f"spanning tree count exceeds the cap of {tree_cap}")
    orders = _vertex_orders(graph, rotation_cap)
    z = betti_deficiency(graph, tree_cap)
    n = graph.vertex_count
    total = count_rotations(graph)
    ends = array("i", [0]) * total  # each rotation's recount, then its descent's end
    turns = _turns(orders)
    inverse = [0] * graph.dart_count  # the recount's table
    for index, (turned, cycles) in enumerate(zip(turns, itertools.product(*orders))):
        for v in range(turned, n):
            _link(inverse, cycles[v])
        ends[index] = _orbits(inverse)

    # each order's share of a rotation's index: its position times the vertex's stride
    offset = [
        {order: i * step for i, order in enumerate(choices)}
        for choices, step in zip(orders, _strides(orders))
    ]
    firsts = array("q", [-1]) * total  # the index its first reducing move reaches, or -1
    move_cases = 0
    move_failures = []
    mismatches, mismatch = 0, ""  # rotations the kernel miscounts, and the first
    trace = rotation_module._trace  # the one kernel, looked up when the pass starts
    succ = [0] * graph.dart_count  # the face permutation
    for index, (turned, cycles) in enumerate(zip(turns, itertools.product(*orders))):
        _set_succ(succ, cycles[turned:])
        face, base = trace(succ)
        recount = ends[index]
        if base != recount:
            if not mismatches:
                mismatch = f"rotation {index} has {recount} walks, the kernel counts {base}"
            mismatches += 1
        if recount < 3:  # no vertex meets three of fewer than three walks
            continue
        for v in _crowded_vertices(cycles, face):
            cycle = cycles[v]
            move_cases += 1
            moved = _relocated_cycle(cycle, -2, face, succ)
            if moved is None:
                raise _no_reducing_move(graph, v, _incidence(cycle, face))
            reached = index + offset[v][moved] - offset[v][cycle]
            if ends[reached] != base - 2:
                move_failures.append(
                    f"reduce_move at vertex {v} changed {base} -> {ends[reached]}, not -2, "
                    f"from rotation {index} to {reached}"
                )
            if firsts[index] < 0:
                firsts[index] = reached

    counts = Counter(ends)
    # fewest walks first: an unsettled rotation still holds its recount, and a
    # settled one an end below it, so one pass per count finds the count's own
    for count in sorted(counts):
        for index in itertools.compress(range(total), map(count.__eq__, ends)):
            if firsts[index] >= 0:  # two fewer walks there, so its end is settled
                ends[index] = ends[firsts[index]]

    profile = dict(sorted(counts.items()))
    lo, hi = min(profile), max(profile)
    chi = euler_char(graph)
    bad_parity = [b for b in profile if (b - chi) % 2]
    failures = []
    if lo != 1 + z:
        failures.append(f"minimum {lo} differs from 1 + zeta = {1 + z}")
    if bad_parity:
        failures.append(f"walk counts with wrong parity: {bad_parity}")
    if mismatches:
        failures.append(f"{mismatch}; the kernel miscounts {mismatches} of {total} rotations")
    failures += move_failures
    stalls = total - ends.count(lo)
    lines = [
        f"rotations enumerated: {total}",
        f"boundary profile: {profile}",
        f"min boundaries: {lo}  (1 + zeta = {1 + z})",
        f"max boundaries: {hi}",
        f"essential genus: {capped_genus(graph, 1 + z)}",
        "parity check: " + ("FAIL" if bad_parity else "ok (all counts match chi mod 2)"),
        "move check: "
        + ("FAIL" if failures else f"ok ({move_cases} reducing moves, every delta -2)"),
        f"descent report: stalled above the minimum from {stalls} of {total} "
        "starts (enumeration fallback covers these)"
        if stalls
        else f"descent report: greedy reaches {lo} from all {total} starts",
    ]
    lines += [f"fail: {f}" for f in failures] or ["oracle: all checks passed"]
    return lines, not failures
