"""Seeded input graphs for the benchmark.

Every graph is built here from a ``random.Random`` the caller seeds, with no
help from the library under test, so the same seed always gives the same
bytes.  A graph is a list of ``(name, u, v, length)`` edge records plus a
vertex count; :func:`graph_text` renders it in the CLI's edge-list format.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from oracles import is_connected, kirchhoff_tree_count


@dataclass(frozen=True)
class Graph:
    """An input graph: vertices ``0..n-1`` named ``v<i>`` unless given names."""

    name: str
    n: int
    edges: tuple[tuple[int, int], ...]
    lengths: tuple[float, ...]
    vertex_names: tuple[str, ...] = ()
    edge_names: tuple[str, ...] = ()

    def vname(self, v: int) -> str:
        return self.vertex_names[v] if self.vertex_names else f"v{v}"

    def ename(self, e: int) -> str:
        return self.edge_names[e] if self.edge_names else f"e{e}"


def graph_text(graph: Graph) -> str:
    lines = [f"# {graph.name}"]
    for e, (u, v) in enumerate(graph.edges):
        lines.append(
            f"edge {graph.ename(e)} {graph.vname(u)} {graph.vname(v)} {graph.lengths[e]:.6g}"
        )
    return "\n".join(lines) + "\n"


def _lengths(rng: random.Random, m: int) -> tuple[float, ...]:
    return tuple(round(rng.uniform(1.0, 2.0), 3) for _ in range(m))


def cubic_multigraph(
    rng: random.Random,
    n: int,
    loops: int,
    trees: tuple[int, int] | None = None,
    name: str | None = None,
) -> Graph:
    """Connected cubic multigraph on ``n`` vertices by stub pairing.

    Pairings are redrawn from ``rng`` until the result is connected, has
    exactly ``loops`` loops and, when ``trees`` is given, a spanning-tree
    count inside that inclusive band.  The band fixes how much work the
    exhaustive tree search does, so that seeds differ in structure but not
    in cost class.
    """
    if n % 2:
        raise ValueError("a cubic graph needs an even vertex count")
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = tuple(zip(stubs[0::2], stubs[1::2]))
        if sum(u == v for u, v in edges) != loops or not is_connected(n, edges):
            continue
        if trees is not None and not trees[0] <= kirchhoff_tree_count(n, edges) <= trees[1]:
            continue
        return Graph(name or f"cubic{n}", n, edges, _lengths(rng, len(edges)))


def prism(rng: random.Random, rungs: int) -> Graph:
    """The ``rungs``-prism: two ``rungs``-cycles joined by a perfect matching."""
    edges = []
    for i in range(rungs):
        j = (i + 1) % rungs
        edges += [(i, j), (rungs + i, rungs + j), (i, rungs + i)]
    return Graph(f"prism{rungs}", 2 * rungs, tuple(edges), _lengths(rng, len(edges)))


def theta(long_edge: float) -> Graph:
    """Two vertices joined by edges of lengths 1, 1 and ``long_edge``."""
    return Graph(f"theta{long_edge:g}", 2, ((0, 1),) * 3, (1.0, 1.0, long_edge))


def complete(rng: random.Random, n: int) -> Graph:
    edges = tuple((u, v) for u in range(n) for v in range(u + 1, n))
    return Graph(f"K{n}", n, edges, _lengths(rng, len(edges)))


def petersen(rng: random.Random) -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges = tuple(outer + spokes + inner)
    return Graph("petersen", 10, edges, _lengths(rng, len(edges)))


def bouquet(rng: random.Random, loops: int = 2) -> Graph:
    """One vertex carrying ``loops`` loops."""
    return Graph(f"bouquet{loops}", 1, ((0, 0),) * loops, _lengths(rng, loops))


def dumbbell(rng: random.Random) -> Graph:
    """Loop, bridge, loop: its minimum walk count is 3, not 1."""
    return Graph("dumbbell", 2, ((0, 0), (0, 1), (1, 1)), _lengths(rng, 3))
