# Local moves: changing the walk count by exactly two.
#
# Relocating a single dart inside one vertex cycle changes the boundary
# walk count by 0 or +-2.  Whenever a vertex meets three or more distinct
# walks, some relocation gives -2; the package finds it by verified search
# and recounts.  Driving the moves greedily minimizes or maximizes the
# walk count, which is how the essential and adversarial embeddings are
# found without enumerating everything.

from pathlib import Path

from ribbon_embed import (
    betti_deficiency,
    boundary_count,
    enumerate_rotations,
    maximize_boundaries,
    minimize_boundaries,
    parse_graph,
    reduce_move,
    vertex_boundary_incidence,
)

HERE = Path(__file__).parent
k5 = parse_graph((HERE / "graphs" / "k5.graph").read_text())

res = minimize_boundaries(k5, restarts=4)
print("k5 minimum walk count:", res.boundary_count, "(1 + zeta =", 1 + betti_deficiency(k5), ")")
print("moves applied:")
for record in res.moves:
    print("  ", record.to_line(k5))

res_max = maximize_boundaries(k5, restarts=4)
print("k5 maximum walk count:", res_max.boundary_count)

# Greedy descent is powerful but not omnipotent.  On graphs with loops a
# descent can stall above the minimum with every vertex meeting at most
# two walks; the driver then falls back to restarts and the frontier DP, and
# reports what happened instead of papering over it.
stalling = parse_graph(
    "edge e0 v0 v0 1.0\n"
    "edge e1 v1 v2 1.0\n"
    "edge e2 v1 v0 1.0\n"
    "edge e3 v0 v1 1.0\n"
    "edge e4 v2 v1 1.0\n"
    "edge e5 v2 v2 1.0\n"
)
target = 1 + betti_deficiency(stalling)
stalled = 0
for rot in enumerate_rotations(stalling, 10**6):
    # greedy_count is where the first descent from ``rot`` stalled
    if minimize_boundaries(stalling, start=rot, restarts=0).greedy_count != target:
        stalled += 1
print(f"stalling example: {stalled} of 216 descents stall above the minimum {target}")
res = minimize_boundaries(stalling, restarts=8)
print("driver still reaches:", res.boundary_count, "certified:", res.certified)

# The move guarantee itself has no such caveat: at any vertex meeting >= 3
# walks a -2 relocation always exists.
rot = next(iter(enumerate_rotations(stalling, 10**6)))
incidence = vertex_boundary_incidence(stalling, rot)
v = max(incidence, key=incidence.get)
if incidence[v] >= 3:
    before = boundary_count(stalling, rot)
    after_rot, record = reduce_move(stalling, rot, v)
    print("reduce at vertex", v, ":", before, "->", boundary_count(stalling, after_rot))
