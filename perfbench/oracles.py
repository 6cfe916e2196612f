"""Expectations computed without the library under test.

Each function takes a vertex count ``n`` and an edge list of vertex pairs
(loops and parallel edges allowed) and is written against a different
algorithm than the package uses: the tree count is an integer Bareiss
determinant, the walk profile a direct permutation-cycle count over every
rotation, and the rest closed forms.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Sequence

Edges = Sequence[tuple[int, int]]


def is_connected(n: int, edges: Edges) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == n


def kirchhoff_tree_count(n: int, edges: Edges) -> int:
    """Spanning-tree count: a Laplacian cofactor by fraction-free elimination."""
    if n == 1:
        return 1
    lap = [[0] * n for _ in range(n)]
    for u, v in edges:
        if u != v:
            lap[u][u] += 1
            lap[v][v] += 1
            lap[u][v] -= 1
            lap[v][u] -= 1
    m = [row[1:] for row in lap[1:]]
    size = n - 1
    sign, prev = 1, 1
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, size) if m[r][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return abs(sign * m[size - 1][size - 1])


def beta(n: int, edges: Edges) -> int:
    return len(edges) - n + 1


def euler(n: int, edges: Edges) -> int:
    return n - len(edges)


def girth(n: int, edges: Edges) -> int:
    """Edge count of a shortest cycle, by breadth-first search from each vertex."""
    if any(u == v for u, v in edges):
        return 1
    if len(set(map(frozenset, edges))) < len(edges):
        return 2
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    best = math.inf
    for root in range(n):
        dist, parent = {root: 0}, {root: -1}
        frontier = [root]
        while frontier:
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if y not in dist:
                        dist[y], parent[y] = dist[x] + 1, x
                        nxt.append(y)
                    elif parent[x] != y:
                        best = min(best, dist[x] + dist[y] + 1)
            frontier = nxt
    return int(best)


def girth_bound(n: int, edges: Edges) -> Fraction:
    """Upper bound (beta + 1)/2 + |E|/girth on the adversarial genus."""
    return Fraction(beta(n, edges) + 1, 2) + Fraction(len(edges), girth(n, edges))


def rotation_count(n: int, edges: Edges) -> int:
    degree = Counter(x for e in edges for x in e)
    return math.prod(math.factorial(degree[v] - 1) for v in range(n))


def walk_profile(n: int, edges: Edges) -> dict[int, int]:
    """{face count: rotations} over every rotation system, by brute force.

    Dart ``2e`` leaves the first endpoint of edge ``e``, ``2e + 1`` the
    second.  A face is an orbit of ``d -> rot(mate(d))``, with ``rot`` the
    successor of a dart in its vertex's cyclic order.
    """
    at: list[list[int]] = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        at[u].append(2 * e)
        at[v].append(2 * e + 1)
    darts = 2 * len(edges)
    choices = [
        [(ds[0], *p) for p in itertools.permutations(ds[1:])] for ds in at
    ]
    profile: Counter = Counter()
    succ = [0] * darts
    for combo in itertools.product(*choices):
        for cycle in combo:
            for i, d in enumerate(cycle):
                succ[d] = cycle[(i + 1) % len(cycle)]
        seen = [False] * darts
        faces = 0
        for start in range(darts):
            if not seen[start]:
                faces += 1
                d = start
                while not seen[d]:
                    seen[d] = True
                    d = succ[d ^ 1]
        profile[faces] += 1
    return dict(sorted(profile.items()))


def cap_genus(b: int) -> int:
    """Genus added by capping ``b`` boundary circles with chi = -1 pieces."""
    q, r = divmod(b, 3)
    return 2 * q + r


def capped_genus(n: int, edges: Edges, walks: int) -> int:
    """Closed genus of the thickening with ``walks`` boundaries, capped."""
    return (2 - euler(n, edges) - walks) // 2 + cap_genus(walks)
