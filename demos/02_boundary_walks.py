# Rotation systems and their boundary walks.
#
# A rotation system fixes a cyclic order of darts around every vertex;
# that is the same thing as a graph drawn on an oriented surface.  Tracing
# mate-of-predecessor orbits gives the boundary walks of the thickened
# graph, and the walk count b determines the genus of the thickening:
# 2 - 2g - b = chi(G).

from pathlib import Path

from ribbon_embed import (
    boundary_profile,
    boundary_walks,
    enumerate_rotations,
    fat_genus,
    make_rotation,
    parse_graph,
)
from ribbon_embed.rotation import dart_label

HERE = Path(__file__).parent
theta = parse_graph((HERE / "graphs" / "theta.graph").read_text())

# The file-order rotation of the theta graph traces a single walk through
# all six darts.
rot = make_rotation(theta, [(0, 2, 4), (1, 3, 5)])
for walk in boundary_walks(theta, rot):
    print("walk:", " ".join(dart_label(theta, d) for d in walk))

# Swapping two darts at one vertex splits it into three walks.
rot2 = make_rotation(theta, [(0, 4, 2), (1, 3, 5)])
print("after one swap:", len(boundary_walks(theta, rot2)), "walks")

# The theta graph has (3-1)! * (3-1)! = 4 rotations in total.  Their walk
# counts come in mirror pairs, so each count has even multiplicity:
print("profile over all rotations:", boundary_profile(theta, 10**6))

# K4 has sixteen rotations; exactly two of them are planar (genus 0, four
# walks) and the other fourteen are toroidal.
k4 = parse_graph((HERE / "graphs" / "k4.graph").read_text())
print("k4 profile:", boundary_profile(k4, 10**6))
for rot in enumerate_rotations(k4, 10**6):
    if fat_genus(k4, rot) == 0:
        print("a planar rotation of k4:", rot.cycles)
        break
