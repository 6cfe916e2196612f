"""The searches against optima known in closed form, which no code of the
package computes.

A cellular embedding of a graph of Euler characteristic chi = V - E on the
surface of genus g has 2 - chi - 2g faces, so the most walks is
2 - chi - 2 * gamma, with gamma the graph's least genus:

- K_n: gamma = ceil((n - 3)(n - 4) / 12) (Ringel and Youngs, "Solution of
  the Heawood map-coloring problem", PNAS 60, 1968);
- K_m,n: gamma = ceil((m - 2)(n - 2) / 4) (Ringel, 1965);
- Q_d: gamma = 1 + (d - 4) * 2^(d - 3) for d >= 2 (Beineke and Harary,
  "The genus of the n-cube", Canad. J. Math. 17, 1965);
- prisms and wheels are planar: gamma = 0.

For the fewest walks, a 4-edge-connected graph has two edge-disjoint
spanning trees (Kundu, J. Combin. Theory B 17, 1974), so it is
upper-embeddable (Xuong, 1979) and the fewest is 1 + beta mod 2.  That
covers K_n for n >= 5, K_m,n for m, n >= 4 and Q_d for d >= 4.
"""

import hashlib
import itertools
from collections import Counter

from ribbon_embed import maximize_boundaries, minimize_boundaries, parse_graph
from ribbon_embed.moves import DEFAULT_RESTARTS

from helpers import prism, wheel


def _graph(edges):
    return parse_graph("".join(f"edge e{i} {u} {v} 1.0\n" for i, (u, v) in enumerate(edges)))


def _census():
    """(name, graph, gamma, whether the fewest walks is 1 + beta mod 2)."""
    for n in range(5, 15):
        edges = itertools.combinations(range(n), 2)
        gamma = -(-(n - 3) * (n - 4) // 12)
        yield f"K{n}", _graph((f"v{i}", f"v{j}") for i, j in edges), gamma, True
    for m, n in itertools.combinations_with_replacement(range(3, 11), 2):
        edges = itertools.product(range(m), range(n))
        gamma = -(-(m - 2) * (n - 2) // 4)
        yield f"K{m},{n}", _graph((f"a{i}", f"b{j}") for i, j in edges), gamma, m >= 4
    for d in range(3, 9):
        edges = [(v, v ^ 1 << k) for v in range(2**d) for k in range(d) if not v >> k & 1]
        gamma = 1 + (d - 4) * 2 ** (d - 3)
        yield f"Q{d}", _graph((f"x{u}", f"x{v}") for u, v in edges), gamma, d >= 4
    for n in range(3, 31):
        yield f"prism{n}", prism(n), 0, False
    for n in range(3, 14):
        yield f"wheel{n}", wheel(n), 0, False


# The sha256 of every (graph, extreme, certificate or None, gap to the
# known optimum) of the census, in order: a change to the searches that
# moves any result moves it.
CENSUS_DIGEST = "e29f56bcaafa69a8f209ddde9e8bf8b1848b9f1fd5d09b5d7fb60fd1b0d8e9bc"


def test_the_searches_meet_the_known_optima():
    # at the default caps and the CLI's restarts, no count passes the
    # optimum, and every optimum a rung settles, so every certified count,
    # is the optimum itself
    wrong, tally = [], []
    for name, g, gamma, upper_embeddable in _census():
        chi = g.vertex_count - g.edge_count
        most, best = maximize_boundaries(g, restarts=DEFAULT_RESTARTS), 2 - chi - 2 * gamma
        if most.boundary_count > best or most.optimum not in (None, best):
            wrong.append((name, "most", most.boundary_count, most.optimum))
        tally.append((name, "most", most.certificate, best - most.boundary_count))
        if upper_embeddable:
            fewest, least = minimize_boundaries(g, restarts=DEFAULT_RESTARTS), 1 + (1 - chi) % 2
            if fewest.boundary_count < least or fewest.optimum not in (None, least):
                wrong.append((name, "fewest", fewest.boundary_count, fewest.optimum))
            tally.append((name, "fewest", fewest.certificate, fewest.boundary_count - least))
    assert wrong == []
    certificates = Counter(certificate for _, _, certificate, _ in tally)
    assert certificates == {"floor": 43, "dp": 10, "walk-bound": 7, None: 74}
    assert hashlib.sha256(repr(tally).encode()).hexdigest() == CENSUS_DIGEST
