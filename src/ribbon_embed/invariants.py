"""Genus invariants of a connected metric graph.

Two routes meet here.  Spanning-tree combinatorics give the Betti
deficiency ``zeta``: the minimum, over spanning trees, of the number of
odd-size components of the co-tree subgraph.  The boundary profile
gives the boundary-walk counts over all rotation systems.  The two sides
are tied together by the identity ``min walks = 1 + zeta``, which the
report, the test-suite and the oracle command check on every graph they
touch.  The spanning trees are counted by Kirchhoff's exact Laplacian
cofactor of each piece between the bridges, grown one vertex at a time
and stopped at its first leading minor above a cap, so a count far past
the cap costs little.  The zeta search stops at :func:`zeta_floor`, a
linear-time lower bound from the same bridges: a tree meeting it, or a
rotation with 1 + floor walks, pins zeta with no further enumeration.
The bridges and the pieces between them are the graph's own
(:attr:`~ribbon_embed.graph.MetricGraph._pieces`), found once per graph
by :mod:`ribbon_embed.graph`, as is its connectivity, and :func:`xi`
reads the co-tree components off the same component search; nothing
here traverses a graph but the tree enumeration's union-find.
Which rung certifies zeta is decided by the certificate ladder of
:mod:`ribbon_embed.moves`, which also holds the public readers of zeta,
``essential_genus`` and ``max_genus``, and ``ge_max_exact``, the reader
of the profile's maximum; the tree search :func:`betti_deficiency` is
the ladder's last rung, where the rotation gate refuses the DP, and its
independent check.

The essential genus is the smallest genus of a closed hyperbolic surface
admitting an essential isometric embedding of the (rescaled) graph, and
``ge_max_exact`` the worst genus forced by an adversarial choice of
rotation when each boundary walk is capped off as cheaply as possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Iterator

from .errors import CapExceededError, GraphValidationError, InternalInvariantError
from .graph import MetricGraph, _components, betti, euler_char, girth

DEFAULT_TREE_CAP = 10**6


def _find(parent: list[int], x: int) -> int:
    """Root of ``x`` in a union-find forest, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def spanning_trees(graph: MetricGraph, cap: int = DEFAULT_TREE_CAP) -> Iterator[frozenset[int]]:
    """Enumerate all spanning trees as frozensets of edge ids.

    Include/exclude search over edges in id order with a union-find
    acyclicity check, including an edge before excluding it.  The search
    keeps its pending exclude branches on an explicit stack, so its depth
    is not bounded by the interpreter's recursion limit.  Parallel edges
    give distinct trees, loops are skipped.  Raises
    :class:`CapExceededError` as soon as more than ``cap`` trees have been
    produced.
    """
    n, m = graph.vertex_count, graph.edge_count
    need = n - 1
    endpoints = [graph.endpoints(e) for e in range(m)]
    produced = 0
    chosen: list[int] = []
    # (next edge, union-find parents, edges chosen so far) of each branch
    # still to run; ``chosen[:k]`` is intact when a branch is popped
    # because everything run since it was pushed chose edges after the k-th
    stack = [(0, list(range(n)), 0)]
    while stack:
        i, parent, k = stack.pop()
        del chosen[k:]
        while k < need:
            if m - i < need - k:
                break
            u, v = endpoints[i]
            ru, rv = _find(parent, u), _find(parent, v)
            if ru != rv:
                stack.append((i + 1, parent, k))
                parent = list(parent)
                parent[ru] = rv
                chosen.append(i)
                k += 1
            i += 1
        else:
            produced += 1
            if produced > cap:
                raise CapExceededError(f"spanning tree count exceeds the cap of {cap}")
            yield frozenset(chosen)


def xi(graph: MetricGraph, tree: frozenset[int]) -> int:
    """Number of odd-size components of the co-tree subgraph.

    The co-tree subgraph is induced on the edges outside ``tree``: the
    components left once the tree's edges are cut
    (:func:`~ribbon_embed.graph._components`), each with half its uncut
    darts as edges, as :func:`zeta_floor` counts them.  A vertex touching
    no co-tree edge is a component of no edges, so it never counts.
    """
    cut = [e in tree for e in range(graph.edge_count)]
    darts_at = graph._darts_by_vertex
    odd = 0
    for part in _components(graph, cut):
        darts = sum(not cut[d >> 1] for u in part for d in darts_at[u])
        odd += darts // 2 % 2
    return odd


def _tree_count(graph: MetricGraph, cap: int) -> int | None:
    """Number of spanning trees, or None as soon as the count is known to
    exceed ``cap``.

    Every spanning tree holds every bridge, so the count is the product of
    the counts of the pieces between the bridges, the graph's
    :attr:`~ribbon_embed.graph.MetricGraph._pieces`, each in breadth-first
    order.  The pieces are taken smallest first, and the running product
    stops at the first piece that takes it above ``cap``, so where small
    pieces alone pass the cap no large one is counted; no piece counts
    less than 1, so the answer does not depend on the order.  A graph
    that is not connected has none.

    Each piece is counted by Kirchhoff's matrix-tree theorem: its
    Laplacian with the row and column of its first vertex deleted, as a
    determinant.  Loops cancel out; parallel edges accumulate.  The
    determinant is taken exactly, by Bareiss's fraction-free elimination
    (Math. Comp. 22, 1968), whose k-th pivot is the leading k x k minor:
    the number of spanning forests rooted at the first vertex and the
    vertices not yet eliminated.  Vertices are eliminated in reverse
    breadth-first order, so each one still has its parent among the
    roots; adding that edge maps forests injectively, the pivots never
    decrease, and the first pivot above ``cap`` settles the comparison.

    So the matrix is bordered one vertex at a time, and only the rows the
    pivots need are built.  Vertex k's Laplacian row, against itself and
    the k vertices before it, is carried through the k earlier steps by
    the one fraction-free rule x <- (x * p[t+1] - row[t] * col[t]) // p[t],
    where p[t] is the t-th pivot (p[0] = 1) and col[t] the pivot row's
    entry in x's column.  Each step's matrix is symmetric, its entries
    being bordered leading minors of a symmetric one, so col[t] is the
    entry (x's column, t) of a row already stored, and the row's last
    entry is pivot k + 1.

    Only each row's envelope is stored and stepped: its columns from f_k,
    the row's first nonzero column, on (George and Liu, *Computer Solution
    of Large Sparse Positive Definite Systems*, 1981).  After t steps entry
    (k, c) is a (t+1)-minor, and where row k or column c is zero in the
    first t columns that minor is A[k][c] * p[t]; so entry (k, c) starts at
    A[k][c] * p[max(f_k, f_c)] and takes only the steps after that, and the
    entries left of f_k stay 0.  The pivots are the same numbers, so the
    cap stops the count at the same pivot.  Stopping after K rows, at the
    first pivot above ``cap`` or at the piece's size less one, costs
    O(sum_k envelope_k) integers and O(sum_k envelope_k^2) steps,
    envelope_k = k - f_k + 1; the reverse breadth-first order keeps
    envelopes narrow (a Cuthill-McKee order), and no row of a vertex past
    the K-th is built.
    """
    vertex_of = graph.vertex_of
    if not graph._connected:
        return 0
    bridge, pieces = graph._pieces
    count = 1
    for piece in sorted(pieces, key=len):
        position: dict[int, int] = {}
        rows: list[list[int]] = []  # rows[k][t - f[k]]: entry (k, t) after t elimination steps
        f: list[int] = []  # each row's first nonzero column
        pivots = [1]
        for k, u in enumerate(reversed(piece[1:])):
            position[u] = k
            darts = [d for d in graph.darts_at(u) if not bridge[d >> 1]]
            ts = []  # the columns of its neighbours placed before it
            fk = k
            for d in darts:
                t = position.get(vertex_of[d ^ 1])  # the first vertex and later ones: None
                if t is not None:
                    ts.append(t)
                    if t < fk:
                        fk = t
            row = [0] * (k - fk) + [len(darts)]
            for t in ts:
                row[t - fk] -= 1
            rows.append(row)
            f.append(fk)
            for c in range(fk, k + 1):
                fc, col = f[c], rows[c]
                start = fk if fk > fc else fc
                x = row[c - fk] * pivots[start]
                for t in range(start, c):
                    x = (x * pivots[t + 1] - row[t - fk] * col[t - fc]) // pivots[t]
                row[c - fk] = x
            pivots.append(row[-1])
            if row[-1] > cap:
                return None
        count *= pivots[-1]
        if count > cap:
            return None
    return count


def zeta_floor(graph: MetricGraph) -> int:
    """A lower bound on zeta in linear time: the number of pieces with an odd
    Betti number left after deleting every bridge.

    Nebesky (Czech. Math. J. 31, 1981) gives zeta as the maximum over edge
    sets A of c(G - A) + b_odd(G - A) - |A| - 1, where b_odd counts the
    components with odd Betti number.  Deleting the k bridges leaves k + 1
    pieces, so A = the bridges scores b_odd exactly: zeta is additive over
    bridges (Xuong, J. Combin. Theory B 26, 1979), and each piece needs at
    least its own Betti parity.  The pieces are the graph's
    :attr:`~ribbon_embed.graph.MetricGraph._pieces`, which
    :func:`_tree_count` reads too; a piece's edges are half its darts that
    are no bridge's.  On a bridgeless graph the floor is beta mod 2.
    """
    bridge, pieces = graph._pieces
    odd = 0
    for piece in pieces:
        darts = sum(not bridge[d >> 1] for u in piece for d in graph.darts_at(u))
        odd += (darts // 2 - len(piece) + 1) % 2
    return odd


def betti_deficiency(graph: MetricGraph, cap: int = DEFAULT_TREE_CAP) -> int:
    """zeta(G): minimum of :func:`xi` over all spanning trees.

    The search stops at the first tree whose value meets :func:`zeta_floor`,
    since no tree can do better.  A graph that is not connected has no
    spanning tree and raises :class:`GraphValidationError` before the
    search.
    """
    if not graph._connected:
        raise GraphValidationError("graph has no spanning tree; is it connected?")
    floor = zeta_floor(graph)
    best = math.inf  # lowered by the first tree, which a connected graph has
    for tree in spanning_trees(graph, cap):
        value = xi(graph, tree)
        if value < best:
            best = value
            if best == floor:
                break
    if best < floor:
        raise InternalInvariantError(f"zeta {best} lies below its bridge floor {floor}")
    return best


def qr_split(n: int) -> tuple[int, int]:
    """n = 3q + r with 0 <= r < 3, for n >= 1."""
    if n < 1:
        raise ValueError(f"expected a positive count, got {n}")
    return divmod(n, 3)


def capped_genus(graph: MetricGraph, walk_count: int) -> int:
    """Closed genus after capping ``walk_count`` boundaries as cheaply as
    possible: triples share a three-holed cap, the remainder get one-holed
    torus caps."""
    slack = 2 - euler_char(graph) - walk_count
    if slack < 0 or slack % 2:
        raise ValueError(f"walk count {walk_count} impossible for chi={euler_char(graph)}")
    q, r = qr_split(walk_count)
    return slack // 2 + 2 * q + r


def ge_max_bound(graph: MetricGraph) -> Fraction:
    """Girth upper bound (beta + 1 + 2|E|/girth) / 2 for the adversarial
    genus, as an exact rational."""
    t = girth(graph)
    if t == math.inf:
        raise GraphValidationError("girth bound needs a cycle; graph is a forest")
    return Fraction(betti(graph) + 1, 2) + Fraction(graph.edge_count, int(t))


@dataclass(frozen=True)
class InvariantReport:
    """Everything :func:`~ribbon_embed.moves.analyze` knows about one graph.

    ``ge_max_exact`` is None where the rotation gate refuses the DP, for
    the rotation count at the cap or for the cyclic orders it would list
    (:func:`~ribbon_embed.rotation.refusal`), and ``tree_count`` where the
    spanning trees exceed their cap; the rational ``ge_max_bound`` is
    always present.  The text names a refusal for the cyclic orders, which
    no rotation cap lifts, in the gate's words, kept out of the fields
    (:attr:`_ge_max_unknown`).  Counts are post-smoothing.  The hash and
    the smoothed flag describe how the graph was presented, not what it
    is, so they stay out of equality: a subdivided graph and its smoothing
    produce equal reports.
    """

    graph_hash: str = field(compare=False)
    vertex_count: int
    edge_count: int
    smoothed: bool = field(compare=False)
    beta: int
    euler: int
    girth: int
    zeta: int
    max_genus: int
    q: int
    r: int
    essential_genus: int
    ge_max_bound: Fraction
    ge_max_exact: int | None
    tree_count: int | None
    rotation_count: int

    # why ge_max_exact is unknown, as the text says it; analyze words a
    # refusal for the cyclic orders as the gate did.  Not a field, so
    # neither the JSON nor equality reads it.
    _ge_max_unknown = "rotation cap exceeded"

    def to_json_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}  # keys in field order
        out["ge_max_bound"] = str(self.ge_max_bound)
        return out

    def to_text(self) -> str:
        rows = self.to_json_dict()
        rows["ge_max_bound"] = f"{self.ge_max_bound} (~{float(self.ge_max_bound):.4f})"
        if self.ge_max_exact is None:
            rows["ge_max_exact"] = f"unknown ({self._ge_max_unknown}; bound still holds)"
        if self.tree_count is None:
            rows["tree_count"] = "unknown (tree cap exceeded)"
        width = max(len(k) for k in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows.items())
