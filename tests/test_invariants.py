import dataclasses
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from ribbon_embed import (
    CapExceededError,
    GraphValidationError,
    analyze,
    betti,
    betti_deficiency,
    boundary_profile,
    capped_genus,
    count_rotations,
    essential_genus,
    euler_char,
    format_graph,
    ge_max_bound,
    ge_max_exact,
    invariants,
    max_genus,
    maximize_boundaries,
    minimize_boundaries,
    moves,
    oracle,
    parse_graph,
    qr_split,
    rotation,
    smooth,
    spanning_trees,
    subdivide,
    xi,
    zeta_floor,
)
from ribbon_embed import graph as graph_module
from ribbon_embed.cli import main
from ribbon_embed.moves import DEFAULT_RESTARTS

from conftest import K4
from helpers import (
    STALLS_AT_THREE_WALKS,
    kirchhoff_tree_count,
    prism,
    random_multigraph,
    ring_of_blobs,
    ring_of_loops,
    two_copies,
    two_thetas,
    union_find_xi,
)

DEMO_GRAPHS = Path(__file__).resolve().parent.parent / "demos" / "graphs"


def tree_count(graph, cap=10**6):
    return sum(1 for _ in spanning_trees(graph, cap))


def test_spanning_tree_counts(theta, bouquet2, k4, k5, dumbbell):
    assert tree_count(theta) == 3
    assert tree_count(bouquet2) == 1  # the empty set
    assert tree_count(k4) == 16
    assert tree_count(k5) == 125
    assert tree_count(dumbbell) == 1


def test_spanning_trees_are_trees(k4):
    for tree in spanning_trees(k4, 10**6):
        assert len(tree) == k4.vertex_count - 1
        # acyclic + spanning checked via xi of the complement being finite
        xi(k4, tree)


def test_spanning_trees_match_kirchhoff():
    for seed in range(15):
        g = random_multigraph(seed)
        assert tree_count(g) == kirchhoff_tree_count(g), f"seed {seed}"


def _recursive_spanning_trees(graph):
    """The include/exclude recursion that the explicit-stack enumeration
    replaced, kept as the reference for its order."""
    n, m = graph.vertex_count, graph.edge_count

    def find(parent, x):
        while parent[x] != x:
            x = parent[x]
        return x

    def rec(i, parent, chosen):
        if len(chosen) == n - 1:
            yield frozenset(chosen)
            return
        if i == m or m - i < n - 1 - len(chosen):
            return
        u, v = graph.endpoints(i)
        ru, rv = find(parent, u), find(parent, v)
        if ru != rv:
            child = list(parent)
            child[ru] = rv
            yield from rec(i + 1, child, chosen + [i])
        yield from rec(i + 1, parent, chosen)

    yield from rec(0, list(range(n)), [])


def test_spanning_tree_order_matches_recursion(theta, bouquet2, k4, k5, dumbbell):
    graphs = [theta, bouquet2, k4, k5, dumbbell]
    graphs += [random_multigraph(seed, max_edges=16) for seed in range(30)]
    for g in graphs:
        assert list(spanning_trees(g, 10**6)) == list(_recursive_spanning_trees(g))


def test_spanning_trees_run_on_1200_edges():
    # deeper than the interpreter's recursion limit
    g = prism(400)
    assert g.edge_count == 1200
    trees = spanning_trees(g, 1000)
    assert len(next(trees)) == g.vertex_count - 1
    with pytest.raises(CapExceededError):
        for _ in trees:
            pass


def test_analyze_tree_count_matches_enumeration(theta, bouquet2, k4, k5, dumbbell):
    # the oracle is plain enumeration, not a determinant
    graphs = [theta, bouquet2, k4, k5, dumbbell]
    graphs += [random_multigraph(seed) for seed in range(30)]
    for g in graphs:
        assert analyze(g, rotation_cap=0).tree_count == tree_count(smooth(g))


def test_analyze_tree_cap_is_exact(k5, monkeypatch):
    assert analyze(k5, tree_cap=125, rotation_cap=0).tree_count == 125
    # above the cap the count is unknown, and the bridge floor certifies
    # zeta with no tree visited
    def no_trees(*args, **kwargs):
        raise AssertionError("spanning trees enumerated")

    monkeypatch.setattr("ribbon_embed.invariants.spanning_trees", no_trees)
    rep = analyze(k5, tree_cap=124)
    assert (rep.tree_count, rep.zeta) == (None, 0)


def _count_reference_graphs():
    for path in sorted(DEMO_GRAPHS.glob("*.graph")):
        yield path.stem, parse_graph(path.read_text())
    for loops in (1, 2, 5):
        yield f"bouquet{loops}", parse_graph("".join(f"edge l{i} w w 1.0\n" for i in range(loops)))
    for edges in (2, 3, 7, 40):
        yield f"dipole{edges}", parse_graph("".join(f"edge e{i} u v 1.0\n" for i in range(edges)))
    for seed in range(300):
        yield f"random{seed}", smooth(random_multigraph(seed))
    for rungs in range(3, 41):
        yield f"prism{rungs}", smooth(prism(rungs))


def test_tree_count_matches_the_dense_reference():
    # the bordered count against Gaussian elimination over the rationals:
    # the count where it is within the cap, None above it
    for name, g in _count_reference_graphs():
        count = kirchhoff_tree_count(g)
        for cap in (0, 1, 2, 3, 10, 100, 1000, 10**6, 10**30, count):
            expected = count if count <= cap else None
            assert invariants._tree_count(g, cap) == expected, (name, cap)


def test_tree_count_stops_at_the_cap():
    # the dense (n - 1)^2 Laplacian of prism(2000) alone would hold about
    # 16 million list slots; the first pivots above the cap end the count
    g = prism(2000)
    tracemalloc.start()
    try:
        assert invariants._tree_count(g, 10**6) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_tree_count_is_taken_between_the_bridges():
    # a complete binary tree of 800 vertices with two loops at every leaf:
    # one spanning tree, but one bordered count over all 798 vertices would
    # take n - 1 rows, about 8 s; each piece between the bridges is one vertex
    lines = [f"edge t{v} v{(v - 1) // 2} v{v} 1.0" for v in range(1, 800)]
    lines += [f"edge l{v}{side} v{v} v{v} 1.0" for v in range(400, 800) for side in "ab"]
    g = smooth(parse_graph("\n".join(lines)))
    assert g.vertex_count == 798
    start = time.perf_counter()
    assert invariants._tree_count(g, 10**6) == 1
    assert invariants._tree_count(g, 0) is None
    assert time.perf_counter() - start < 1.0
    # a product of pieces: two K4s joined by a bridge have 16 * 16 trees
    twin = parse_graph(K4 + K4.replace(" v", " w").replace(" e", " f") + "edge bridge v0 w0 1.0\n")
    assert [invariants._tree_count(twin, cap) for cap in (255, 256)] == [None, 256]


def test_tree_count_takes_the_smallest_pieces_first():
    # a ring of n vertices, each bridged to a blob of 2 trees, has n * 2**n;
    # the blobs alone pass the cap, so the ring's own piece, whose count is
    # cubic in n (about 20 s at n = 1000), is never taken
    for n in range(3, 9):
        g = ring_of_blobs(n)
        count = n * 2**n
        assert kirchhoff_tree_count(g) == count, n
        assert [invariants._tree_count(g, cap) for cap in (count - 1, count)] == [None, count], n
    g = ring_of_blobs(1000)
    start = time.perf_counter()
    assert invariants._tree_count(g, 10**6) is None
    assert time.perf_counter() - start < 1.0


def test_tree_count_steps_only_each_rows_envelope():
    # each row is stored and stepped from its first nonzero column on; the
    # count and the cap's verdict match the dense reference, and a ring of
    # 2000, all one piece within the cap, is counted in full at once (a
    # ring of 800 took 10 s when every row ran through every earlier step)
    graphs = [(f"blobs{n}", ring_of_blobs(n)) for n in range(3, 12)]
    graphs += [(f"loops{n}", ring_of_loops(n)) for n in range(3, 41)]
    for name, g in graphs:
        count = kirchhoff_tree_count(g)
        for cap in (1, 10, 10**3, 10**6, 10**30, count - 1, count):
            expected = count if count <= cap else None
            assert invariants._tree_count(g, cap) == expected, (name, cap)
    g = ring_of_loops(2000)
    start = time.perf_counter()
    assert invariants._tree_count(g, 10**6) == 2000
    assert time.perf_counter() - start < 1.0


def test_a_disconnected_graph_has_no_spanning_tree():
    g = two_thetas()
    assert [invariants._tree_count(g, cap) for cap in (0, 10**6)] == [0, 0]
    with pytest.raises(GraphValidationError, match="no spanning tree"):
        betti_deficiency(g)


def disconnected_graphs():
    """Fresh ones each call, so no entry reads a connectivity another found."""
    return {
        "two thetas": two_thetas(),
        "two 5-prisms": two_copies(prism(5)),
        "two cycles": two_copies(parse_graph("edge a u v 1.0\nedge b v u 2.0")),
    }


@pytest.mark.parametrize(
    "entry",
    [
        smooth,
        analyze,
        essential_genus,
        oracle,
        max_genus,
        minimize_boundaries,
        maximize_boundaries,
        ge_max_exact,
        betti_deficiency,
    ],
    ids=lambda entry: entry.__name__,
)
def test_every_search_and_reader_refuses_a_disconnected_graph(entry):
    # on two thetas they answered zeta 2 (essential genus 3, max genus 1),
    # certified 2 walks by the DP, or raised InternalInvariantError or
    # ValueError; betti_deficiency refused only once its tree search ran
    # dry, after seconds on two 5-prisms; two cycles smoothed to the empty
    # graph
    message = "no spanning tree" if entry is betti_deficiency else "graph is not connected"
    for name, graph in disconnected_graphs().items():
        start = time.perf_counter()
        with pytest.raises(GraphValidationError, match=message):
            entry(graph)
        assert time.perf_counter() - start < 1.0, name


def test_the_bridges_are_found_once_per_analyze_and_oracle(monkeypatch):
    # zeta_floor and Kirchhoff's count both read the graph's pieces between
    # the bridges, and analyze and oracle each ask for them on one graph
    calls = Counter()
    bridges = graph_module._bridges

    def counted(g):
        calls[g.edge_count] += 1
        return bridges(g)

    monkeypatch.setattr(graph_module, "_bridges", counted)
    analyze(prism(30))
    assert calls == {90: 1}
    calls.clear()
    lines, ok = oracle(parse_graph(K4))
    assert ok and calls == {6: 1}


def test_spanning_tree_cap(k5):
    with pytest.raises(CapExceededError):
        list(spanning_trees(k5, 100))


def test_xi_k4_always_one(k4):
    # the co-tree of any spanning tree of K4 is a 3-edge subgraph with one
    # odd component
    values = [xi(k4, t) for t in spanning_trees(k4, 10**6)]
    assert values == [1] * 16


def test_xi_dumbbell(dumbbell):
    (tree,) = spanning_trees(dumbbell, 10**6)
    assert xi(dumbbell, tree) == 2


def test_xi_agrees_with_a_union_find_on_every_tree():
    # 367 trees: every spanning tree of the first 60 seeded multigraphs
    trees = 0
    for seed in range(60):
        g = smooth(random_multigraph(seed))
        for tree in spanning_trees(g, 10**6):
            trees += 1
            assert xi(g, tree) == union_find_xi(g, tree), (seed, sorted(tree))
    assert trees == 367


def test_betti_deficiency(theta, bouquet2, k4, k5, dumbbell):
    assert betti_deficiency(theta) == 0
    assert betti_deficiency(bouquet2) == 0
    assert betti_deficiency(k4) == 1
    assert betti_deficiency(k5) == 0
    assert betti_deficiency(dumbbell) == 2


def exhaustive_zeta(graph):
    return min(xi(graph, tree) for tree in spanning_trees(graph, 10**6))


def test_zeta_floor_bounds_zeta_with_its_parity(theta, bouquet2, k4, k5, dumbbell):
    graphs = [(None, g) for g in (theta, bouquet2, k4, k5, dumbbell)]
    graphs += [(seed, random_multigraph(seed)) for seed in range(300)]
    below = []
    for seed, g in graphs:
        floor, z = zeta_floor(g), exhaustive_zeta(g)
        assert floor <= z and (z - floor) % 2 == 0, f"seed {seed}"
        if floor < z:
            below.append(seed)
    # the seeds where the floor falls short; test_moves uses them for the
    # last rung of the certificate ladder
    assert below == [27, 65, 142, 229]


def test_zeta_floor_adds_over_a_bridge(k4, dumbbell):
    # two copies of K4 joined by one bridge between their vertices v0
    twin = K4 + K4.replace(" v", " w").replace(" e", " f") + "edge bridge v0 w0 1.0\n"
    g = parse_graph(twin)
    assert zeta_floor(g) == 2 * zeta_floor(k4) == 2
    assert betti_deficiency(g) == exhaustive_zeta(g) == 2
    assert zeta_floor(dumbbell) == betti_deficiency(dumbbell) == 2


def test_zeta_floor_runs_without_recursion():
    g = prism(400)
    assert g.edge_count == 1200
    assert zeta_floor(g) == 1  # bridgeless, beta = 401
    # a chain of 1500 one-loop vertices joined by bridges: a depth-first
    # search 1500 deep, every piece of Betti number one
    n = 1500
    lines = [f"edge l{i} x{i} x{i} 1.0" for i in range(n)]
    lines += [f"edge b{i} x{i} x{i + 1} 1.0" for i in range(n - 1)]
    assert zeta_floor(parse_graph("\n".join(lines))) == n


def test_zeta_parity_property():
    for seed in range(15):
        g = random_multigraph(seed)
        assert (betti(g) - betti_deficiency(g)) % 2 == 0


def test_max_genus(theta, bouquet2, k4, k5):
    assert max_genus(theta) == 1
    assert max_genus(bouquet2) == 1
    assert max_genus(k4) == 1
    assert max_genus(k5) == 3


def test_qr_split():
    assert qr_split(1) == (0, 1)
    assert qr_split(2) == (0, 2)
    assert qr_split(3) == (1, 0)
    assert qr_split(7) == (2, 1)
    with pytest.raises(ValueError):
        qr_split(0)


def test_capped_genus(theta, k5):
    # theta, 1 walk: bordered genus 1, one torus cap
    assert capped_genus(theta, 1) == 2
    # theta, 3 walks: bordered genus 0, one three-holed cap
    assert capped_genus(theta, 3) == 2
    assert capped_genus(k5, 1) == 4
    assert capped_genus(k5, 5) == 5
    with pytest.raises(ValueError):
        capped_genus(theta, 2)  # wrong parity


def test_essential_genus(theta, bouquet2, k4, k5, dumbbell):
    assert essential_genus(theta) == 2
    assert essential_genus(bouquet2) == 2
    assert essential_genus(k4) == 3
    assert essential_genus(k5) == 4
    assert essential_genus(dumbbell) == 2


def test_essential_genus_subdivision_invariant(k4):
    g = subdivide(k4, 0, [0.5])
    g = subdivide(g, 4, [0.3, 0.6])
    assert essential_genus(g) == essential_genus(k4) == 3


def test_ge_max_bound(theta, bouquet2, k4, k5):
    assert ge_max_bound(theta) == Fraction(3)
    assert ge_max_bound(bouquet2) == Fraction(7, 2)
    assert ge_max_bound(k4) == Fraction(4)
    assert ge_max_bound(k5) == Fraction(41, 6)
    # (beta + 1)/2 + |E|/girth = 4/2 + 5/1: girth 1 from the loop, not 2
    # from the parallel pair listed before it
    pair_then_loop = parse_graph(
        "edge a x y 1.0\nedge b x y 1.0\nedge c x z 1.0\nedge l z z 1.0\nedge d y z 1.0\n"
    )
    assert ge_max_bound(pair_then_loop) == Fraction(7)


def test_ge_max_bound_needs_a_cycle():
    tree = parse_graph("edge a u v 1.0\nedge b v w 1.0")
    with pytest.raises(GraphValidationError):
        ge_max_bound(tree)


def test_ge_max_exact(theta, bouquet2, k4, k5, monkeypatch):
    assert ge_max_exact(theta) == 2
    assert ge_max_exact(bouquet2) == 2
    assert ge_max_exact(k4) == 3
    assert ge_max_exact(k5) == 5

    # the cap is checked before the plateau's ascent, which K4 would pass,
    # and its refusal reads as the enumeration's
    def no_climb(*args):
        raise AssertionError("climbed")

    monkeypatch.setattr(moves, "_climb", no_climb)
    with pytest.raises(CapExceededError, match=r"^7776 rotation systems exceed the cap of 100$"):
        ge_max_exact(k5, 100)
    with pytest.raises(CapExceededError, match=r"^16 rotation systems exceed the cap of 15$"):
        ge_max_exact(k4, 15)
    dipole = parse_graph("".join(f"edge e{i} u v 1.0\n" for i in range(1000)))
    refusal = r"^over 10\^2564 cyclic orders to list exceed the limit of 1000000$"
    with pytest.raises(CapExceededError, match=refusal):
        ge_max_exact(dipole)


def test_ge_max_exact_within_bound():
    for seed in range(10):
        g = random_multigraph(seed)
        assert ge_max_exact(g) <= ge_max_bound(g)


def test_min_capped_genus_is_essential(theta, bouquet2, k4, k5):
    for g in (theta, bouquet2, k4, k5):
        assert min(capped_genus(g, b) for b in boundary_profile(g)) == essential_genus(g)


def test_analyze_report_fields(k4):
    rep = analyze(k4)
    assert rep.vertex_count == 4
    assert rep.edge_count == 6
    assert rep.beta == 3
    assert rep.euler == -2
    assert rep.girth == 3
    assert rep.zeta == 1
    assert rep.max_genus == 1
    assert (rep.q, rep.r) == (0, 2)
    assert rep.essential_genus == 3
    assert rep.ge_max_bound == Fraction(4)
    assert rep.ge_max_exact == 3
    assert rep.tree_count == 16
    assert rep.rotation_count == 16
    assert rep.smoothed is False


def test_analyze_equal_after_subdivision(k4):
    sub = subdivide(k4, 2, [0.4])
    rep, rep_sub = analyze(k4), analyze(sub)
    assert rep_sub.smoothed is True
    assert rep == rep_sub  # hash and smoothed flag excluded from equality


def test_analyze_soft_rotation_cap(k5):
    rep = analyze(k5, rotation_cap=100)
    assert rep.ge_max_exact is None
    assert rep.essential_genus == 4


def test_analyze_hard_tree_cap(tmp_path, capsys):
    # floor 0, zeta 2: past the tree cap only the frontier DP certifies zeta
    g = random_multigraph(65)
    assert (zeta_floor(g), kirchhoff_tree_count(g), count_rotations(g)) == (0, 3, 216)
    with pytest.raises(CapExceededError, match="zeta not certified"):
        analyze(g, tree_cap=2, rotation_cap=215)
    assert analyze(g, tree_cap=3, rotation_cap=215).zeta == 2
    assert analyze(g, tree_cap=2, rotation_cap=216).zeta == 2
    path = tmp_path / "g.graph"
    path.write_text(format_graph(g))
    argv = ["analyze", str(path), "--max-trees", "2", "--max-rotations", "215"]
    assert main(argv) == 5
    assert capsys.readouterr().err.startswith("error: zeta not certified")


def test_analyze_takes_the_tree_target_the_search_misses(tmp_path, capsys):
    # the descent and every restart stall at 3 walks, above 1 + zeta = 1;
    # with the DP capped out the search is uncertified, yet the tree search
    # knows zeta, and analyze refused a graph the tree gate used to answer
    g = STALLS_AT_THREE_WALKS
    assert (zeta_floor(g), kirchhoff_tree_count(g), count_rotations(g)) == (0, 18, 20736)
    res = minimize_boundaries(g, restarts=DEFAULT_RESTARTS, rotation_cap=20735)
    assert (res.boundary_count, res.optimum, res.certified) == (3, 1, False)
    rep = analyze(g, rotation_cap=20735)
    assert (rep.zeta, rep.tree_count, rep.ge_max_exact) == (0, 18, None)
    assert rep.essential_genus == analyze(g).essential_genus
    path = tmp_path / "g.graph"
    path.write_text(format_graph(g))
    assert main(["analyze", str(path), "--json", "--max-rotations", "20735"]) == 0
    assert '"zeta": 0' in capsys.readouterr().out
    # with the tree rung capped out too, no rung settles zeta
    with pytest.raises(CapExceededError, match="zeta not certified"):
        analyze(g, tree_cap=17, rotation_cap=20735)


def test_zeta_names_a_refusal_no_rotation_cap_lifts(monkeypatch):
    # the descent stalls above the floor, the trees exceed their cap, and
    # the gate refuses the DP: for the rotation count, the message names
    # both caps as before; for the cyclic orders, it names the refusal
    g = STALLS_AT_THREE_WALKS
    with pytest.raises(CapExceededError) as info:
        analyze(g, tree_cap=17, rotation_cap=20735)
    assert str(info.value) == "zeta not certified within the caps of 17 trees and 20735 rotations"
    monkeypatch.setattr(rotation, "DEFAULT_ROTATION_CAP", 7)
    refusal = rotation.refusal(g, 10**6)
    assert isinstance(refusal, rotation.OrdersRefusal)
    with pytest.raises(CapExceededError) as info:
        analyze(g, tree_cap=17)
    assert str(info.value) == f"zeta not certified within the cap of 17 trees; {refusal}"
    assert str(refusal).endswith("cyclic orders to list exceed the limit of 7")
    # where the rotation count refuses as well, the orders are still named
    assert isinstance(rotation.refusal(g, 20735), rotation.OrdersRefusal)


@pytest.mark.parametrize("tree_cap", [17, 10**6])
def test_analyze_runs_kirchhoff_and_the_dp_once(tree_cap, monkeypatch):
    # the search misses the floor, so the DP settles zeta at either tree
    # cap, and no tree is enumerated; analyze reports its tree count (None
    # at 17, one short of 18) and ge_max_exact from the same two runs it
    # hands the ladder
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    # one plan per DP pass, whichever fold runs over it
    monkeypatch.setattr(rotation, "_plan", counted("_plan", rotation._plan))
    monkeypatch.setattr(moves, "_tree_count", counted("_tree_count", invariants._tree_count))
    rep = analyze(STALLS_AT_THREE_WALKS, tree_cap=tree_cap)
    assert (rep.zeta, rep.ge_max_exact) == (0, 5)
    assert rep.tree_count == (None if tree_cap == 17 else 18)
    assert calls == {"_plan": 1, "_tree_count": 1}


def test_analyze_past_the_rotation_cap_counts_the_trees_once(monkeypatch):
    # zeta 3 lies above the floor of 1, and past the rotation cap only the
    # trees rung settles it: the report reads the count that rung asked
    # for, and no DP pass runs
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(rotation, "_plan", counted("_plan", rotation._plan))
    monkeypatch.setattr(moves, "_tree_count", counted("_tree_count", invariants._tree_count))
    rep = analyze(random_multigraph(27), rotation_cap=1)
    assert (rep.zeta, rep.tree_count, rep.ge_max_exact) == (3, 3, None)
    assert calls == {"_tree_count": 1}


@pytest.mark.parametrize("seed", [27, 65, 142, 229, None])
def test_no_tree_is_enumerated_within_the_rotation_cap(seed, monkeypatch):
    # the search misses the floor (zeta lies above it, or the descent and
    # every restart stall), and the frontier DP, within the default rotation
    # cap, settles the minimum with no spanning tree enumerated
    g = STALLS_AT_THREE_WALKS if seed is None else random_multigraph(seed)
    z = betti_deficiency(g)

    def no_trees(*args, **kwargs):
        raise AssertionError("spanning trees enumerated")

    monkeypatch.setattr(invariants, "spanning_trees", no_trees)
    res = minimize_boundaries(g, restarts=DEFAULT_RESTARTS)
    assert res.certificate == "dp" and res.certified and res.optimum == 1 + z
    assert analyze(g).zeta == z
    assert essential_genus(g) == capped_genus(smooth(g), 1 + z)
    assert max_genus(g) == (betti(g) - z) // 2


def test_capped_genus_never_falls_as_the_walk_count_rises(theta, bouquet2, k4, k5, dumbbell):
    # so the largest capped genus over a profile is that of its maximum,
    # which is how ge_max_exact reads it
    graphs = [theta, bouquet2, k4, k5, dumbbell] + [random_multigraph(s) for s in range(60)]
    for g in graphs:
        chi = euler_char(g)
        genera = [capped_genus(g, b) for b in range(2 - chi % 2, 3 - chi, 2)]
        assert genera == sorted(genera), g
        profile = boundary_profile(g, 10**6)
        assert ge_max_exact(g) == max(capped_genus(g, b) for b in profile), g


def test_analyze_json_and_text(k4):
    rep = analyze(k4)
    d = rep.to_json_dict()
    assert list(d) == [f.name for f in dataclasses.fields(rep)]
    assert d == {**vars(rep), "ge_max_bound": "4"}
    assert d["essential_genus"] == 3
    assert d["ge_max_bound"] == "4"
    text = rep.to_text()
    assert "essential_genus" in text and "zeta" in text


def test_girth_is_searched_once_per_graph(monkeypatch):
    # the report, the girth bound and the walk bound read one search
    k4 = parse_graph(K4)  # not the shared fixture, whose girth may be known
    calls = []
    search = graph_module._shortest_cycle

    def counted(graph):
        calls.append(graph.edge_count)
        return search(graph)

    monkeypatch.setattr(graph_module, "_shortest_cycle", counted)
    assert analyze(k4).girth == 3
    assert maximize_boundaries(k4).certified
    assert calls == [6]
