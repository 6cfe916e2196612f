"""Finite connected metric graphs encoded as paired darts.

Edge ``e`` owns the two darts ``2e`` and ``2e+1``; the first points away
from the endpoint named first in the input file.  All structure downstream
(rotation systems, boundary walks) is phrased in terms of darts, so loops
and parallel edges need no special cases.

How a graph falls apart is decided here too, by one breadth-first search
(:func:`_components`) that skips the edges a flag list marks as cut.  With
nothing cut it gives the components: whether there is one of them is
:attr:`MetricGraph._connected`, found once per graph and read by every
entry that needs a connected graph.  With the bridges of one depth-first
search (:func:`_bridges`) cut, it gives the pieces between the bridges,
which :attr:`MetricGraph._pieces` keeps once per graph for the bridge
floor of zeta and Kirchhoff's tree count in :mod:`ribbon_embed.invariants`;
with a spanning tree cut, the co-tree components that
:func:`~ribbon_embed.invariants.xi` counts.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import CycleGraphError, GraphFormatError, GraphValidationError, clip


def mate(dart: int) -> int:
    """The oppositely directed dart of the same edge."""
    return dart ^ 1


def edge_of(dart: int) -> int:
    """The undirected edge owning a dart."""
    return dart >> 1


@dataclass(frozen=True)
class MetricGraph:
    """A finite metric graph.

    ``vertex_of[d]`` is the vertex dart ``d`` emanates from; ``lengths[e]``
    is the length of edge ``e``.  Loops are allowed and count twice toward
    the degree of their vertex.  Instances are immutable; every operation
    that changes the graph returns a new one.

    The constructor checks structural sanity only (array sizes, vertex ids
    in range).  Length positivity is enforced where a graph enters: by
    :func:`parse_graph`, and for a schema's graph by the reader; degree
    floors by the operations that need them (:func:`smooth`, the schema
    builders).  Connectivity is found once (:attr:`_connected`) and
    refused where a graph enters and by every entry that needs it.
    """

    vertex_of: tuple[int, ...]
    lengths: tuple[float, ...]
    edge_names: tuple[str, ...]
    vertex_names: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.vertex_of) != 2 * len(self.lengths):
            raise ValueError("dart table size must be twice the edge count")
        if len(self.edge_names) != len(self.lengths):
            raise ValueError("edge name count does not match edge count")
        n = len(self.vertex_names)
        if self.vertex_of and not all(0 <= v < n for v in self.vertex_of):
            raise ValueError("dart endpoint out of range")

    @property
    def edge_count(self) -> int:
        return len(self.lengths)

    @property
    def vertex_count(self) -> int:
        return len(self.vertex_names)

    @property
    def dart_count(self) -> int:
        return len(self.vertex_of)

    @cached_property
    def _darts_by_vertex(self) -> tuple[tuple[int, ...], ...]:
        table: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for d, v in enumerate(self.vertex_of):
            table[v].append(d)
        return tuple(tuple(ds) for ds in table)

    def darts_at(self, vertex: int) -> tuple[int, ...]:
        """Darts emanating from ``vertex``, in increasing dart id."""
        return self._darts_by_vertex[vertex]

    def degree(self, vertex: int) -> int:
        return len(self._darts_by_vertex[vertex])

    @cached_property
    def vertex_ids(self) -> dict[str, int]:
        """Vertex id by name; shared, so callers must not change it."""
        return {name: v for v, name in enumerate(self.vertex_names)}

    @cached_property
    def edge_ids(self) -> dict[str, int]:
        """Edge id by name, the last edge of a repeated name (which
        :func:`parse_graph` and the schema reader reject); shared, so
        callers must not change it."""
        return {name: e for e, name in enumerate(self.edge_names)}

    def endpoints(self, edge: int) -> tuple[int, int]:
        return self.vertex_of[2 * edge], self.vertex_of[2 * edge + 1]

    @cached_property
    def _pieces(self) -> tuple[list[bool], list[list[int]]]:
        """Which edges are bridges (:func:`_bridges`), and the pieces left
        once every bridge is deleted (:func:`_components`); shared, so
        callers must not change them."""
        bridge = _bridges(self)
        return bridge, _components(self, bridge)

    @cached_property
    def _connected(self) -> bool:
        """Whether the graph is connected, by one :func:`_components` search
        with nothing cut; read by :func:`parse_graph`,
        :func:`is_cycle_graph`, :func:`smooth` (and so every reader that
        smooths first), the search driver and ``ge_max_exact`` of
        :mod:`ribbon_embed.moves`, the tree search and Kirchhoff's count of
        :mod:`ribbon_embed.invariants`, and the schema builders and
        verifier.  :func:`smooth` hands it on to the graph it builds, which
        a search would find connected too.  The empty graph is not
        connected."""
        return len(_components(self, [False] * self.edge_count)) == 1

    @cached_property
    def _girth(self) -> int | float:
        """:func:`girth`, found once per graph (:func:`_shortest_cycle`) and
        read by the report, the girth bound and the walk bound of
        :mod:`ribbon_embed.invariants` and :mod:`ribbon_embed.moves`."""
        return _shortest_cycle(self)

    def _require_connected(self) -> None:
        """Raise :class:`GraphValidationError` unless :attr:`_connected`."""
        if not self._connected:
            raise GraphValidationError("graph is not connected")


def _from_records(records: Iterable[tuple[str, str, str, float]]) -> MetricGraph:
    """Graph of trusted ``(edge name, u, v, length)`` records: vertices
    numbered in order of first mention, edges and darts in record order."""
    vertex_ids: dict[str, int] = {}
    vertex_of: list[int] = []
    lengths: list[float] = []
    edge_names: list[str] = []
    for name, u, v, length in records:
        vertex_of.append(vertex_ids.setdefault(u, len(vertex_ids)))
        vertex_of.append(vertex_ids.setdefault(v, len(vertex_ids)))
        lengths.append(length)
        edge_names.append(name)
    return MetricGraph(tuple(vertex_of), tuple(lengths), tuple(edge_names), tuple(vertex_ids))


def parse_graph(text: str) -> MetricGraph:
    """Parse the edge-list file format.

    One record per line::

        edge <name> <u> <v> <length>

    ``#`` starts a comment, blank lines are skipped, names are alphanumeric
    tokens.  Vertices come into existence the first time they are named;
    edges and darts are numbered in file order.  Raises
    :class:`GraphFormatError` with the offending line number on syntax
    errors, non-finite or non-positive lengths and duplicate edge names, and
    :class:`GraphValidationError` if the result is not connected.
    """
    records: list[tuple[str, str, str, float]] = []
    edge_names: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] != "edge":
            raise GraphFormatError(f"unknown record type {clip(parts[0])!r}", lineno)
        if len(parts) != 5:
            raise GraphFormatError("expected: edge <name> <u> <v> <length>", lineno)
        _, name, u, v, length_text = parts
        for token in (name, u, v):
            if not token.isalnum():
                raise GraphFormatError(f"name {clip(token)!r} is not alphanumeric", lineno)
        if name in edge_names:
            raise GraphFormatError(f"duplicate edge name {clip(name)!r}", lineno)
        try:
            length = float(length_text)
        except ValueError:
            raise GraphFormatError(f"bad length {clip(length_text)!r}", lineno) from None
        if not math.isfinite(length):
            raise GraphFormatError(f"edge length must be finite, got {clip(length_text)}", lineno)
        if length <= 0.0:
            raise GraphFormatError(
                f"edge length must be positive, got {clip(length_text)}", lineno
            )
        records.append((name, u, v, length))
        edge_names.add(name)

    if not records:
        raise GraphFormatError("no edge records found")
    graph = _from_records(records)
    graph._require_connected()
    return graph


def format_graph(graph: MetricGraph) -> str:
    """Canonical text form: one ``edge`` record per edge, in edge order."""
    names, vertex_of = graph.vertex_names, graph.vertex_of
    lines = [
        f"edge {name} {names[vertex_of[2 * e]]} {names[vertex_of[2 * e + 1]]} {length:.12g}"
        for e, (name, length) in enumerate(zip(graph.edge_names, graph.lengths))
    ]
    return "\n".join(lines) + "\n"


def graph_hash(graph: MetricGraph) -> str:
    """Hex digest of the canonical text form."""
    return hashlib.sha256(format_graph(graph).encode()).hexdigest()


def _components(graph: MetricGraph, cut: Sequence[bool]) -> list[list[int]]:
    """Vertex sets of the components left once the edges ``cut`` flags are
    deleted, each in breadth-first order from its least vertex, ordered by
    that vertex."""
    darts_at, vertex_of = graph._darts_by_vertex, graph.vertex_of
    seen = [False] * graph.vertex_count
    components: list[list[int]] = []
    for start in range(graph.vertex_count):
        if not seen[start]:
            seen[start] = True
            component = [start]
            for v in component:  # grows while the search reaches new vertices
                for d in darts_at[v]:
                    w = vertex_of[d ^ 1]  # the far end of its edge
                    if not seen[w] and not cut[d >> 1]:
                        seen[w] = True
                        component.append(w)
            components.append(component)
    return components


def connected_components(graph: MetricGraph) -> list[list[int]]:
    """Vertex sets of the components, each sorted, ordered by minimum."""
    return [sorted(c) for c in _components(graph, [False] * graph.edge_count)]


def _bridges(graph: MetricGraph) -> list[bool]:
    """Which edges are bridges, by one depth-first search on an explicit
    stack; the parent edge is skipped by id, so loops and parallel edges
    are never bridges."""
    n, vertex_of, darts_at = graph.vertex_count, graph.vertex_of, graph._darts_by_vertex
    order = [-1] * n  # discovery time
    low = [0] * n  # earliest discovery time reachable without the parent edge
    bridge = [False] * graph.edge_count
    clock = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = clock
        clock += 1
        stack = [(root, -1, iter(darts_at[root]))]
        while stack:
            u, via, darts = stack[-1]
            for d in darts:
                e, v = d >> 1, vertex_of[d ^ 1]
                if e == via:
                    continue
                if order[v] < 0:
                    order[v] = low[v] = clock
                    clock += 1
                    stack.append((v, e, iter(darts_at[v])))
                    break
                low[u] = min(low[u], order[v])
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[u])
                    if low[u] > order[p]:
                        bridge[via] = True
    return bridge


def euler_char(graph: MetricGraph) -> int:
    """|V| - |E|."""
    return graph.vertex_count - graph.edge_count


def betti(graph: MetricGraph) -> int:
    """First Betti number |E| - |V| + 1 of a connected graph."""
    return graph.edge_count - graph.vertex_count + 1


def girth(graph: MetricGraph) -> int | float:
    """Edge count of a shortest cycle; ``math.inf`` for a forest.  Found
    once per graph (:attr:`MetricGraph._girth`)."""
    return graph._girth


def _shortest_cycle(graph: MetricGraph) -> int | float:
    """:func:`girth` by search.

    A loop is a cycle of length 1 and a pair of parallel edges a cycle of
    length 2; both are answered first, in that order.  A simple graph gets
    one breadth-first search per vertex.  An edge other than the one a
    vertex was reached by, leading to a vertex already reached, closes a
    walk of length dist + dist + 1 that holds a cycle, and the search from
    a vertex of a shortest cycle closes one of that cycle's length.
    Nothing closed from depth d is shorter than 2d + 1, so each search
    stops at the depth where it can no longer beat the shortest cycle
    found so far.
    """
    ends = [graph.endpoints(e) for e in range(graph.edge_count)]
    if any(u == v for u, v in ends):
        return 1
    if len({(min(u, v), max(u, v)) for u, v in ends}) < len(ends):
        return 2
    vertex_of = graph.vertex_of
    best: int | float = math.inf
    for source in range(graph.vertex_count):
        dist, via = {source: 0}, {source: -1}  # depth, and the edge it was reached by
        queue = [source]
        for x in queue:
            if 2 * dist[x] + 1 >= best:
                break
            for d in graph.darts_at(x):
                if edge_of(d) == via[x]:
                    continue
                y = vertex_of[mate(d)]
                if y in dist:
                    best = min(best, dist[x] + dist[y] + 1)
                else:
                    dist[y], via[y] = dist[x] + 1, edge_of(d)
                    queue.append(y)
    return best


def is_cycle_graph(graph: MetricGraph) -> bool:
    """True for a single cycle: connected with every degree equal to 2."""
    return all(graph.degree(v) == 2 for v in range(graph.vertex_count)) and graph._connected


def smooth(graph: MetricGraph) -> MetricGraph:
    """Suppress every degree-2 vertex, concatenating the two edge lengths.

    Returns the graph unchanged when all degrees are at least 3, so the
    operation is idempotent.  Raises :class:`GraphValidationError` when the
    graph is not connected or has a degree-1 vertex, which has no sensible
    smoothing, and :class:`CycleGraphError` when it is a single cycle
    (there is no branch vertex to anchor the result).
    """
    graph._require_connected()
    if is_cycle_graph(graph):
        raise CycleGraphError(
            "graph is a single cycle: it embeds on every surface after "
            "rescaling, so no genus machinery applies"
        )
    for v in range(graph.vertex_count):
        if graph.degree(v) < 2:
            raise GraphValidationError(
                f"vertex {clip(graph.vertex_names[v])} has degree {graph.degree(v)}; "
                "smoothing requires every degree to be at least 2"
            )
    if all(graph.degree(v) >= 3 for v in range(graph.vertex_count)):
        return graph

    branch = [v for v in range(graph.vertex_count) if graph.degree(v) >= 3]
    new_id = {v: i for i, v in enumerate(branch)}
    chains: list[tuple[list[str], int, int, float]] = []
    seen_darts: set[int] = set()

    for b in branch:
        for start in graph.darts_at(b):
            if start in seen_darts:
                continue
            # walk the chain of degree-2 vertices hanging off this dart
            chain_names = []
            length = 0.0
            d = start
            while True:
                seen_darts.add(d)
                seen_darts.add(mate(d))
                chain_names.append(graph.edge_names[edge_of(d)])
                length += graph.lengths[edge_of(d)]
                end = graph.vertex_of[mate(d)]
                if graph.degree(end) >= 3:
                    break
                a, c = graph.darts_at(end)
                d = c if a == mate(d) else a
            chains.append((chain_names, new_id[b], new_id[end], length))

    # A merged edge is named by joining its chain's names, which can repeat
    # (a + bc and ab + c); it then takes trailing x's, as subdivide's new
    # vertices and edges do.  Edges left whole keep their names.
    taken = {names[0] for names, _, _, _ in chains if len(names) == 1}
    vertex_of: list[int] = []
    lengths: list[float] = []
    edge_names: list[str] = []
    for names, u, v, length in chains:
        name = "".join(names)
        if len(names) > 1:
            while name in taken:
                name += "x"
            taken.add(name)
        vertex_of.extend((u, v))
        lengths.append(length)
        edge_names.append(name)
    smoothed = MetricGraph(
        tuple(vertex_of),
        tuple(lengths),
        tuple(edge_names),
        tuple(graph.vertex_names[v] for v in branch),
    )
    smoothed.__dict__["_connected"] = True  # as the input is; where the cached property keeps it
    return smoothed


def subdivide(graph: MetricGraph, edge: int, fractions: Sequence[float]) -> MetricGraph:
    """Split one edge into segments at the given interior positions.

    ``fractions`` are strictly increasing values in (0, 1); k of them turn
    the edge into k+1 segments whose lengths sum to the original.  Inverse
    of :func:`smooth` up to naming.  New vertices are named
    ``<edge-name>m1, ...``, new edges ``<edge-name>s0, ...``, each with
    ``x`` appended while another vertex, or edge, has the name.
    """
    fs = list(fractions)
    if not fs:
        return graph
    if any(not 0.0 < f < 1.0 for f in fs) or any(b <= a for a, b in zip(fs, fs[1:])):
        raise ValueError("fractions must be strictly increasing within (0, 1)")

    ename = graph.edge_names[edge]
    u, v = graph.endpoints(edge)
    total = graph.lengths[edge]
    cuts = [0.0, *fs, 1.0]

    vertex_names = list(graph.vertex_names)
    mid_ids = []
    for i in range(len(fs)):
        name = f"{ename}m{i + 1}"
        while name in vertex_names:
            name += "x"
        mid_ids.append(len(vertex_names))
        vertex_names.append(name)

    chain = [u, *mid_ids, v]
    vertex_of: list[int] = []
    lengths: list[float] = []
    edge_names: list[str] = []
    for e in range(graph.edge_count):
        if e == edge:
            for i in range(len(chain) - 1):
                vertex_of.extend((chain[i], chain[i + 1]))
                lengths.append(total * (cuts[i + 1] - cuts[i]))
                name = f"{ename}s{i}"
                while name in graph.edge_names:
                    name += "x"
                edge_names.append(name)
        else:
            vertex_of.extend(graph.endpoints(e))
            lengths.append(graph.lengths[e])
            edge_names.append(graph.edge_names[e])
    return MetricGraph(tuple(vertex_of), tuple(lengths), tuple(edge_names), tuple(vertex_names))
