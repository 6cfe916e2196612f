"""Independent oracles and generators used by several test modules, and
the one runner (:func:`run`) for the CLI or a demo as a process.

Everything here is deliberately written against different algorithms than
the package under test: the tree count comes from the matrix-tree theorem
over exact rationals, the co-tree components from a union-find, the
single-dart relocations are listed one candidate at a time with duplicates
dropped, and the random graphs are built by stub pairing.
"""

import dataclasses
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import ribbon_embed
from ribbon_embed import (
    MetricGraph,
    SurfaceSchema,
    assemble_sigma_surface,
    cap_standard,
    connected_components,
    default_rotation,
    is_cycle_graph,
    parse_graph,
    smooth,
)
from ribbon_embed.rotation import _cyclic_orders, canonical_cycle


# 4 vertices, 9 edges: the descent and every restart of the ladder's search
# stall at 3 walks, above 1 + zeta = 1
STALLS_AT_THREE_WALKS = MetricGraph(
    (2, 0, 0, 2, 3, 3, 0, 1, 1, 1, 1, 2, 0, 2, 1, 3, 2, 3),
    (1.0,) * 9,
    tuple(f"e{i}" for i in range(9)),
    tuple(f"v{i}" for i in range(4)),
)


def kirchhoff_tree_count(graph: MetricGraph) -> int:
    """Spanning-tree count via a Laplacian cofactor determinant.

    Loops never enter a spanning tree, so they are skipped; parallel edges
    accumulate in the off-diagonal entries.  Exact over Fractions.
    """
    n = graph.vertex_count
    if n == 1:
        return 1
    lap = [[Fraction(0)] * n for _ in range(n)]
    for e in range(graph.edge_count):
        u, v = graph.endpoints(e)
        if u == v:
            continue
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    # determinant of the (n-1)x(n-1) cofactor, Gaussian elimination
    m = [row[1:] for row in lap[1:]]
    det = Fraction(1)
    for col in range(n - 1):
        pivot = next((r for r in range(col, n - 1) if m[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n - 1):
            factor = m[r][col] * inv
            if factor:
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    assert det.denominator == 1
    return abs(int(det))


def union_find_xi(graph: MetricGraph, tree: frozenset[int]) -> int:
    """Odd-size co-tree components, counted by a union-find over the
    co-tree edges, each edge then tallied at the root of its first end;
    vertices touching no co-tree edge never get a tally."""
    parent = list(range(graph.vertex_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    co = [e for e in range(graph.edge_count) if e not in tree]
    for e in co:
        u, v = graph.endpoints(e)
        parent[find(u)] = find(v)
    sizes = Counter(find(graph.endpoints(e)[0]) for e in co)
    return sum(1 for k in sizes.values() if k % 2)


def girth_per_edge(graph: MetricGraph) -> int | float:
    """Edge count of a shortest cycle, ``math.inf`` for a forest: the
    minimum over edges e = (u, v) of dist(u, v) in G - e, plus one, by one
    breadth-first search per edge.  A loop is a 1-cycle, found first."""
    ends = [graph.endpoints(e) for e in range(graph.edge_count)]
    if any(u == v for u, v in ends):
        return 1
    best = math.inf
    for e, (u, v) in enumerate(ends):
        dist = {u: 0}
        frontier = [u]
        while frontier and v not in dist:
            nxt = []
            for x in frontier:
                for d in graph.darts_at(x):
                    y = graph.vertex_of[d ^ 1]
                    if d >> 1 != e and y not in dist:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        if v in dist:
            best = min(best, dist[v] + 1)
    return best


def single_dart_relocations(cycle: tuple[int, ...]):
    """Distinct cyclic orders that relocate exactly one dart of ``cycle``.

    Scan order is deterministic: source position ascending, then insertion
    slot ascending; cyclic duplicates and the identity are skipped.  This
    is the order ``moves._relocated_cycle`` scans in, for the climbs, the
    single moves and the oracle alike.
    """
    seen = {canonical_cycle(cycle)}
    for i in range(len(cycle)):
        dart = cycle[i]
        rest = cycle[:i] + cycle[i + 1 :]
        for j in range(len(rest)):
            candidate = canonical_cycle(rest[:j] + (dart,) + rest[j:])
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def random_multigraph(seed: int, max_edges: int = 12) -> MetricGraph:
    """Connected multigraph with every degree >= 3 (loops allowed).

    Each vertex gets three stubs plus a few extras; a random pairing of the
    stubs becomes the edge list.  Rejection keeps resampling from the same
    stream until the result is connected, not a bare cycle, and small
    enough, so the map seed -> graph is deterministic.
    """
    rng = random.Random(seed)
    while True:
        nv = rng.randint(2, 4)
        stubs = []
        for v in range(nv):
            stubs += [v] * 3
        for _ in range(rng.randint(0, 4)):
            stubs.append(rng.randrange(nv))
        if len(stubs) % 2:
            stubs.append(rng.randrange(nv))
        if len(stubs) // 2 > max_edges:
            continue
        rng.shuffle(stubs)
        vertex_of = tuple(stubs)
        ne = len(stubs) // 2
        graph = MetricGraph(
            vertex_of,
            tuple(1.0 + 0.25 * (i % 3) for i in range(ne)),
            tuple(f"e{i}" for i in range(ne)),
            tuple(f"v{i}" for i in range(nv)),
        )
        if len(connected_components(graph)) != 1 or is_cycle_graph(graph):
            continue
        if min(graph.degree(v) for v in range(nv)) < 3:
            continue
        return graph


def random_cubic(seed: int, n: int) -> MetricGraph:
    """A connected cubic multigraph on n vertices by stub pairing, loops allowed."""
    rng = random.Random(seed)
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        m = len(stubs) // 2
        names = tuple(f"e{i}" for i in range(m)), tuple(f"v{i}" for i in range(n))
        g = MetricGraph(tuple(stubs), (1.0,) * m, *names)
        if len(connected_components(g)) == 1:
            return g


def two_thetas() -> MetricGraph:
    """Edges a b c between u and v, d e f between x and y: two components."""
    return MetricGraph((0, 1) * 3 + (2, 3) * 3, (1.0,) * 6, tuple("abcdef"), tuple("uvxy"))


def two_copies(graph: MetricGraph) -> MetricGraph:
    """Two disjoint copies of ``graph``, the second's names ending in z."""
    n = graph.vertex_count
    return MetricGraph(
        graph.vertex_of + tuple(v + n for v in graph.vertex_of),
        graph.lengths * 2,
        graph.edge_names + tuple(f"{name}z" for name in graph.edge_names),
        graph.vertex_names + tuple(f"{name}z" for name in graph.vertex_names),
    )


def two_thetas_schema() -> SurfaceSchema:
    """:func:`two_thetas`, bordered and capped: two closed genus-2 surfaces
    that claim to be one of genus 3.  The builders refuse a disconnected
    graph, so they build from one whose cached connectivity is marked true,
    and the schema then takes a fresh :func:`two_thetas`, which is not."""
    graph = two_thetas()
    graph.__dict__["_connected"] = True  # where the cached property keeps it
    schema = cap_standard(assemble_sigma_surface(graph, default_rotation(graph, 0)))
    return dataclasses.replace(schema, graph=two_thetas())


def prism(rungs: int) -> MetricGraph:
    """The circular ladder: two rungs-cycles joined by rungs, 3 * rungs edges."""
    lines = []
    for i in range(rungs):
        j = (i + 1) % rungs
        lines += [
            f"edge a{i} x{i} x{j} 1.0", f"edge b{i} y{i} y{j} 1.0", f"edge r{i} x{i} y{i} 1.0"
        ]
    return parse_graph("\n".join(lines))


def ring_of_blobs(n: int) -> MetricGraph:
    """A cycle of n vertices, each joined by a bridge to a blob: a double
    edge on to a vertex that carries a loop.  The cycle has n spanning
    trees and each blob 2, so the graph has n * 2**n."""
    lines = []
    for i in range(n):
        lines += [
            f"edge c{i} v{i} v{(i + 1) % n} 1.0",
            f"edge r{i} v{i} b{i} 1.0",
            f"edge p{i} b{i} d{i} 1.0",
            f"edge q{i} b{i} d{i} 1.0",
            f"edge l{i} d{i} d{i} 1.0",
        ]
    return parse_graph("\n".join(lines))


def ring_of_loops(n: int) -> MetricGraph:
    """A cycle of n vertices, each joined by a bridge to a vertex that
    carries one loop.  The cycle is the one piece with more than one
    vertex, and has all n spanning trees."""
    lines = []
    for i in range(n):
        lines += [
            f"edge c{i} v{i} v{(i + 1) % n} 1.0",
            f"edge r{i} v{i} b{i} 1.0",
            f"edge l{i} b{i} b{i} 1.0",
        ]
    return parse_graph("\n".join(lines))


def wheel(spokes: int) -> MetricGraph:
    """A hub joined by ``spokes`` spokes to a rim cycle of as many vertices:
    the hub has degree ``spokes`` and every rim vertex degree 3."""
    lines = []
    for i in range(spokes):
        lines += [f"edge s{i} h r{i} 1.0", f"edge c{i} r{i} r{(i + 1) % spokes} 1.0"]
    return parse_graph("\n".join(lines))


def short_order_lists(darts: tuple[int, ...]) -> list[tuple[int, ...]]:
    """``rotation._cyclic_orders`` for a test to patch in: a vertex of more
    than 12 darts fails at once, where a gate that let it through would
    list its 12! cyclic orders or more."""
    assert len(darts) <= 12, "the gate let a vertex of more than 12 darts through"
    return _cyclic_orders(darts)


CALL_MAIN = "import sys; from ribbon_embed.cli import main; sys.exit(main())"


def run(argv, timeout, script=None, env=None, **kwargs) -> subprocess.CompletedProcess:
    """``ribbon-embed *argv`` as a process of its own, or ``python script
    *argv``, against the ``ribbon_embed`` these tests import: in CI the
    installed package, under ``PYTHONPATH=src`` the source tree.
    ``timeout`` is in seconds; ``env`` adds to the environment, and the
    rest goes to :func:`subprocess.run`."""
    program = ["-c", CALL_MAIN] if script is None else [str(script)]
    package_dir = Path(ribbon_embed.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(package_dir), **(env or {})}
    return subprocess.run([sys.executable, *program, *argv], env=env, timeout=timeout, **kwargs)


def timed(seconds, call, *args):
    """``call(*args)``, which must return within ``seconds``: the bound
    :func:`run`'s timeout sets on a process, for a run in this one."""
    start = time.perf_counter()
    result = call(*args)
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"{elapsed:.1f} s, over the bound of {seconds} s"
    return result


def grid(rows: int, columns: int) -> MetricGraph:
    """The rows x columns grid, smoothed: its corners, of degree 2, are
    smoothed away, so every vertex has degree 3 or 4."""
    lines = []
    for i in range(rows):
        for j in range(columns):
            if j + 1 < columns:
                lines.append(f"edge h{i}x{j} v{i}x{j} v{i}x{j + 1} 1.0")
            if i + 1 < rows:
                lines.append(f"edge u{i}x{j} v{i}x{j} v{i + 1}x{j} 1.0")
    return smooth(parse_graph("\n".join(lines)))
