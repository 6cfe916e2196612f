import itertools
import random
import re
import tracemalloc
from collections import Counter

import pytest

from ribbon_embed import (
    CapExceededError,
    CycleGraphError,
    GraphValidationError,
    InternalInvariantError,
    MetricGraph,
    MovePreconditionError,
    NoIncreasingMoveError,
    analyze,
    betti_deficiency,
    boundary_count,
    boundary_profile,
    capped_genus,
    count_rotations,
    default_rotation,
    enumerate_rotations,
    essential_genus,
    euler_char,
    ge_max_exact,
    increase_move,
    invariants,
    make_rotation,
    max_genus,
    maximize_boundaries,
    minimize_boundaries,
    moves,
    parse_graph,
    reduce_move,
    rotation,
    smooth,
    vertex_boundary_incidence,
    zeta_floor,
)
from ribbon_embed.moves import (
    MoveRecord,
    _climb,
    _relocated_cycle,
    _link,
    _no_reducing_move,
    _orbits,
    _relocation_delta,
    _walk_bound,
    oracle,
)
from ribbon_embed.rotation import (
    RotationSystem,
    _crowded_vertices,
    _cyclic_orders,
    _faces,
    _incidence,
    _rotation_at,
    _succ,
    _trace,
    _vertex_orders,
    canonical_cycle,
)

from helpers import prism, random_cubic, random_multigraph, single_dart_relocations

# Loops mixed with ordinary edges can strand the greedy descent: all four
# vertices meet <= 2 walks at a 3-walk rotation whose graph admits a
# 1-walk rotation.  Found by exhaustive search; kept as a regression
# anchor for why minimize_boundaries needs its last rung, the frontier DP.
STALLING = MetricGraph(
    (0, 0, 1, 2, 1, 0, 0, 1, 2, 1, 2, 2),
    (1.0,) * 6,
    ("e0", "e1", "e2", "e3", "e4", "e5"),
    ("v0", "v1", "v2"),
)

# outer 5-cycle, spokes, inner pentagram: 24 of its 1024 rotations stall
PETERSEN = parse_graph(
    "".join(f"edge o{i} a{i} a{(i + 1) % 5} 1.0\n" for i in range(5))
    + "".join(f"edge s{i} a{i} b{i} 1.0\n" for i in range(5))
    + "".join(f"edge p{i} b{i} b{(i + 2) % 5} 1.0\n" for i in range(5))
)


def test_reduce_move_on_theta(theta):
    rot = make_rotation(theta, [(0, 4, 2), (1, 3, 5)])
    assert boundary_count(theta, rot) == 3
    new_rot, record = reduce_move(theta, rot, 0)
    assert boundary_count(theta, new_rot) == 1
    assert record.boundary_delta == -2
    assert record.vertex == 0
    line = record.to_line(theta)
    assert line.startswith("move u ") and line.endswith("delta -2")


def test_reduce_move_precondition(theta):
    one_walk = make_rotation(theta, [(0, 2, 4), (1, 3, 5)])
    with pytest.raises(MovePreconditionError):
        reduce_move(theta, one_walk, 0)


def test_move_errors_cut_the_vertex_name_they_quote():
    # a vertex name of any length that parse_graph accepts was quoted whole
    name = "w" * 100_000
    theta = parse_graph(f"edge a {name} v 1\nedge b {name} v 1\nedge c {name} v 1")
    one_walk = make_rotation(theta, [(0, 2, 4), (1, 3, 5)])
    with pytest.raises(MovePreconditionError, match="^vertex www") as exc:
        reduce_move(theta, one_walk, 0)
    assert len(str(exc.value)) <= 200
    message = str(_no_reducing_move(theta, 0, 3))
    assert message.startswith("no reducing relocation at vertex www") and len(message) <= 200


def test_reduce_move_sweep_fixtures(theta, bouquet2, k4):
    # every vertex of every rotation meeting >= 3 walks admits a -2 move
    cases = 0
    for g in (theta, bouquet2, k4):
        for rot in enumerate_rotations(g, 10**6):
            base = boundary_count(g, rot)
            incidence = vertex_boundary_incidence(g, rot)
            for v in range(g.vertex_count):
                if incidence[v] >= 3:
                    new_rot, record = reduce_move(g, rot, v)
                    assert boundary_count(g, new_rot) == base - 2
                    assert record.boundary_delta == -2
                    cases += 1
    assert cases > 0


def test_increase_move(theta):
    one_walk = make_rotation(theta, [(0, 2, 4), (1, 3, 5)])
    rot, record = increase_move(theta, one_walk)
    assert boundary_count(theta, rot) == 3
    assert record.boundary_delta == 2


def test_increase_move_exhausted(theta):
    three_walk = make_rotation(theta, [(0, 4, 2), (1, 3, 5)])
    assert boundary_count(theta, three_walk) == 3  # the maximum for theta
    with pytest.raises(NoIncreasingMoveError):
        increase_move(theta, three_walk)


def test_minimize_fixtures(theta, bouquet2, k4, k5, dumbbell):
    for g, want in ((theta, 1), (bouquet2, 1), (k4, 2), (k5, 1), (dumbbell, 3)):
        res = minimize_boundaries(g, restarts=4)
        assert res.boundary_count == want == 1 + betti_deficiency(g)
        assert res.certified
        assert boundary_count(g, res.rotation) == want


def test_minimize_records_compose_when_greedy_wins(k4):
    res = minimize_boundaries(k4)
    if res.restarts_used == 0 and res.certificate != "dp":
        assert res.initial_count - res.boundary_count == 2 * len(res.moves)
    assert all(m.boundary_delta == -2 for m in res.moves)


def test_minimize_from_given_start(k4):
    start = default_rotation(k4, 11)
    res = minimize_boundaries(k4, start=start, restarts=2)
    assert res.initial_count == boundary_count(k4, start)
    assert res.boundary_count == 2


def test_maximize_fixtures(theta, bouquet2, k4, k5):
    for g, want in ((theta, 3), (bouquet2, 3), (k4, 4), (k5, 5)):
        res = maximize_boundaries(g, restarts=4)
        assert res.boundary_count == want == max(boundary_profile(g, 10**6))
        assert res.certified
        assert all(m.boundary_delta == 2 for m in res.moves)


def test_descent_can_stall_above_minimum():
    # resolves the open question negatively: greedy descent is not always
    # enough, so certification must not assume it
    g = STALLING
    target = 1 + betti_deficiency(g)
    assert target == 1
    stalled = 0
    reached = 0
    for rot in enumerate_rotations(g, 10**6):
        _, count, _ = _climb(g, rot, -2)
        if count == target:
            reached += 1
        else:
            stalled += 1
    assert stalled > 0
    assert reached > 0
    # the driver still certifies the true minimum via its fallback
    res = minimize_boundaries(g, restarts=2)
    assert res.boundary_count == target
    assert res.certified


def test_minimize_random_graphs_certified():
    for seed in range(10):
        g = random_multigraph(seed)
        res = minimize_boundaries(g, restarts=6, rotation_cap=10**6)
        assert res.certified, f"seed {seed}"
        assert res.boundary_count == 1 + betti_deficiency(g), f"seed {seed}"


def test_maximize_random_graphs_certified():
    for seed in range(6):
        g = random_multigraph(seed)
        if count_rotations(g) > 10**5:
            continue
        res = maximize_boundaries(g, restarts=6, rotation_cap=10**5)
        assert res.certified, f"seed {seed}"
        assert res.boundary_count == max(boundary_profile(g, 10**5)), f"seed {seed}"


def test_uncertified_when_stalled_and_capped():
    # start at a stalling rotation, forbid restarts, cap out the fallback:
    # the driver must hand back its best honestly flagged as uncertified
    g = STALLING
    stalled_start = None
    for rot in enumerate_rotations(g, 10**6):
        _, count, _ = _climb(g, rot, -2)
        if count > 1:
            stalled_start = rot
            break
    assert stalled_start is not None
    res = minimize_boundaries(g, start=stalled_start, restarts=0, rotation_cap=10)
    assert not res.certified
    assert res.certificate != "dp"
    assert res.boundary_count == 3


def test_maximize_uncertified_above_its_rotation_cap(k5):
    # no profile to aim at and no DP to run: the ascent's best is
    # handed back flagged as neither certified nor settled by the DP
    res = maximize_boundaries(k5, restarts=2, rotation_cap=10)
    assert not res.certified
    assert res.certificate != "dp"
    assert res.boundary_count == boundary_count(k5, res.rotation) <= 5


def test_maximize_certifies_at_its_bound_above_the_rotation_cap(k5):
    # K5's walk bound is min(2 - chi, 2|E| // girth) = min(7, 6), lowered to
    # chi's parity: 5, which the third restart reaches; no rotation has
    # more, so the result is certified with the DP capped out
    res = maximize_boundaries(k5, restarts=8, rotation_cap=1)
    assert (res.boundary_count, res.optimum, res.restarts_used) == (5, 5, 3)
    assert res.certified and res.certificate != "dp"


def test_maximize_runs_the_dp_only_where_its_climb_misses_the_bound(monkeypatch):
    # a rotation cap of 0 leaves the climb and its restarts alone; where
    # they reach the bound, the uncapped search is that result with no DP
    # pass, and elsewhere it runs the one pass within the cap
    calls = []
    plan = rotation._plan  # one plan per DP pass, whichever fold runs over it

    def counted(*args):
        calls.append(args)
        return plan(*args)

    monkeypatch.setattr(rotation, "_plan", counted)
    graphs = [random_multigraph(seed) for seed in range(200)]
    graphs += [random_cubic(seed, 10 + 2 * (seed % 3)) for seed in range(20)]
    reached = []
    for i, g in enumerate(graphs):
        climbed = maximize_boundaries(g, restarts=8, rotation_cap=0)
        assert not calls
        res = maximize_boundaries(g, restarts=8)
        if climbed.boundary_count == _walk_bound(g):
            reached.append(i)
            assert res == climbed and res.certified and not calls, i
        else:
            assert len(calls) == 1 and res.certificate == "dp" and res.certified, i
        del calls[:]
    assert (sum(i < 200 for i in reached), sum(i >= 200 for i in reached)) == (199, 12)


def test_the_certificate_names_the_rung_that_settled_the_optimum(monkeypatch):
    # each rung means what it says: the climb's bound settles with no DP
    # pass, the DP in one pass at the profile's extreme, the tree search
    # only past the rotation cap, at 1 + zeta; no rung, no optimum
    calls = []
    plan = rotation._plan  # one plan per DP pass, whichever fold runs over it

    def counted(*args):
        calls.append(args)
        return plan(*args)

    monkeypatch.setattr(rotation, "_plan", counted)
    tally = Counter()
    for seed in range(150):
        g = random_multigraph(seed)
        searches = [
            (minimize_boundaries, min, "floor", 1 + zeta_floor(g)),
            (maximize_boundaries, max, "walk-bound", _walk_bound(g)),
        ]
        for search, extreme, bound_rung, bound in searches:
            for cap in (10, 2000, 10**6):
                for restarts in (0, 8):
                    del calls[:]
                    res = search(g, restarts=restarts, rotation_cap=cap)
                    case = (seed, extreme.__name__, cap, restarts)
                    rung = res.certificate
                    assert (rung is None) == (res.optimum is None), case
                    assert res.certified == (res.boundary_count == res.optimum), case
                    if rung == bound_rung:
                        assert res.optimum == bound and not calls, case
                    elif rung == "dp":
                        assert len(calls) == 1, case
                        assert res.optimum == extreme(boundary_profile(g, cap)), case
                    elif rung == "trees":
                        assert extreme is min and count_rotations(g) > cap, case
                        assert res.optimum == 1 + betti_deficiency(g), case
                    else:
                        assert rung is None and count_rotations(g) > cap, case
                    tally[extreme.__name__, rung, res.certified] += 1
    assert tally == {
        ("min", "floor", True): 843,
        ("min", "dp", True): 37,
        ("min", "trees", True): 6,
        ("min", "trees", False): 14,
        ("max", "walk-bound", True): 807,
        ("max", "dp", True): 57,
        ("max", None, False): 36,
    }


def test_certified_by_parity_floor_despite_tree_cap(k5):
    # K5 is bridgeless with beta = 6, so its floor is 0 and a descent to one
    # walk certifies itself; a tiny tree cap does not block certification
    res = minimize_boundaries(k5, restarts=0, tree_cap=10, rotation_cap=10)
    assert res.certified
    assert res.boundary_count == 1


def _eager_minimize(g, restarts, seed, tree_cap, rotation_cap):
    """Reference search that asks for 1 + zeta before it climbs: greedy
    descent, restarts until the target, then the enumeration scan."""
    try:
        target = 1 + betti_deficiency(g, tree_cap)
    except CapExceededError:
        target = None
    rot, count, records = _climb(g, default_rotation(g, 0), -2)
    best = (count, rot, tuple(records))
    enumerated = False
    if target is None or best[0] > target:
        rng = random.Random(seed)
        for _ in range(restarts):
            if best[0] == target:
                break
            rot, count, records = _climb(g, default_rotation(g, rng.randrange(1, 2**30)), -2)
            if count < best[0]:
                best = (count, rot, tuple(records))
    if target is None or best[0] > target:
        try:
            for rot in enumerate_rotations(g, rotation_cap):
                count = boundary_count(g, rot)
                if count < best[0]:
                    best = (count, rot, ())
                if count == target:
                    break
            enumerated = True
        except CapExceededError:
            pass
    certified = best[0] == target or enumerated
    return best, certified


def test_floor_first_search_matches_the_eager_target():
    # the bridge floor moves the tree search behind the climb and restarts;
    # nothing beats the global minimum, so the same rotation comes out and
    # only the certificate can improve
    for seed in range(30):
        g = random_multigraph(seed)
        for restarts, tree_cap in ((0, 10**6), (3, 10**6), (0, 1), (3, 1)):
            (count, rot, moves), certified = _eager_minimize(g, restarts, 5, tree_cap, 100)
            res = minimize_boundaries(
                g, restarts=restarts, seed=5, tree_cap=tree_cap, rotation_cap=100
            )
            case = f"seed {seed}, restarts {restarts}, tree cap {tree_cap}"
            assert (res.rotation, res.boundary_count, res.moves) == (rot, count, moves), case
            assert res.certified >= certified, case


def test_kirchhoff_count_before_the_tree_search_changes_no_result(monkeypatch):
    # past the tree cap a tree search can only stop early at the bridge
    # floor, which the descent has missed, so knowing it certifies nothing
    graphs = [random_multigraph(seed) for seed in range(200)]
    graphs += [random_cubic(seed, 8 + 2 * (seed % 5)) for seed in range(30)]
    grid = [(tree_cap, restarts) for tree_cap in (1, 3, 20, 300) for restarts in (0, 2)]

    def results():
        return [
            (res.rotation, res.boundary_count, res.certified, res.moves, res.certificate == "dp")
            for g in graphs
            for tree_cap, restarts in grid
            for res in [
                minimize_boundaries(g, restarts=restarts, tree_cap=tree_cap, rotation_cap=2000)
            ]
        ]

    def searched(graph, cap):
        # the capped tree search in place of the count: within the cap
        # when it ends early at the floor or visits every tree
        try:
            betti_deficiency(graph, cap)
        except CapExceededError:
            return None
        return 0

    checked = results()
    monkeypatch.setattr(moves, "_tree_count", searched)
    assert checked == results()


@pytest.mark.parametrize("tree_cap", [10**6, 1])
def test_analyze_zeta_matches_the_tree_search(tree_cap):
    # the tree search stays the oracle of the ladder analyze takes zeta
    # from; within the rotation cap the DP settles zeta at either tree cap
    graphs = [random_multigraph(seed) for seed in range(150)]
    graphs += [prism(rungs) for rungs in range(3, 11)]
    for g in graphs:
        assert analyze(g, tree_cap=tree_cap).zeta == betti_deficiency(smooth(g))


def test_analyze_asks_the_dp_only_where_the_floor_the_plateau_and_the_planar_rung_miss(
    k4, k5, monkeypatch
):
    # zeta's descent, g_e^max's one ascent and then the planar rung come
    # first; the DP pass runs at most once, and only where the descent
    # misses the floor or both the ascent and the rung miss, within the
    # rotation cap.  Planarity is read off the whole profile: a graph is
    # planar exactly when some rotation has 2 - chi walks
    calls = []
    plan = rotation._plan  # one plan per DP pass, whichever fold runs over it

    def counted(*args):
        calls.append(args)
        return plan(*args)

    monkeypatch.setattr(rotation, "_plan", counted)
    assert (analyze(k4).ge_max_exact, analyze(PETERSEN).ge_max_exact, calls) == (3, 5, [])
    # K5 is not planar, and its ascent stalls at 3 walks (genus 4), short
    # of the bound's 5 (genus 5)
    assert analyze(k5).ge_max_exact == 5 and len(calls) == 1
    # the triangular prism is planar, so the rung settles it although its
    # ascent stalls at 3 walks (genus 3), short of the bound's 5 (genus 4)
    del calls[:]
    assert (analyze(prism(3)).ge_max_exact, calls) == (4, [])
    graphs = [random_multigraph(seed) for seed in range(300)]
    graphs += [prism(rungs) for rungs in range(3, 13)]
    for i, g in enumerate(map(smooth, graphs)):
        restarts = moves.DEFAULT_RESTARTS
        descent = minimize_boundaries(g, restarts=restarts, tree_cap=0, rotation_cap=0)
        top = capped_genus(g, _walk_bound(g))
        ascent = _climb(g, default_rotation(g, 0), +2)[1]
        planar = max(boundary_profile(g, count_rotations(g))) == 2 - euler_char(g)
        hit = descent.certificate == "floor" and (capped_genus(g, ascent) == top or planar)
        for cap in (10, 2000, 10**6):
            del calls[:]
            analyze(g, rotation_cap=cap)
            assert len(calls) == (count_rotations(g) <= cap and not hit), (i, cap)


def test_a_planar_witness_short_of_the_walk_bound_is_never_read(monkeypatch):
    # the rung's rotation is recounted by the kernel; one with fewer walks
    # than 2 - chi breaks the invariant instead of giving g_e^max.  The
    # triangular prism's ascent stalls at 3 walks, so the rung is asked,
    # and the file-order rotation has 3 walks, not 5
    g = prism(3)
    assert _climb(g, default_rotation(g, 0), +2)[1] == 3 and _walk_bound(g) == 5

    def short_witness(graph):
        return default_rotation(graph, 0)

    monkeypatch.setattr(moves, "_planar_rotation", short_witness)
    message = "^planar rotation has 3 walks, not 5$"
    with pytest.raises(InternalInvariantError, match=message):
        moves._ge_max(moves._Rungs(g, moves.DEFAULT_TREE_CAP, moves.DEFAULT_ROTATION_CAP))
    with pytest.raises(InternalInvariantError, match=message):
        analyze(g)
    with pytest.raises(InternalInvariantError, match=message):
        ge_max_exact(g)


def test_public_invariants_read_the_ladder():
    # essential_genus and max_genus take zeta where analyze does
    graphs = [random_multigraph(seed) for seed in range(150)]
    graphs += [prism(rungs) for rungs in range(3, 31)]
    for g in graphs:
        report = analyze(g)
        assert (essential_genus(g), max_genus(g)) == (report.essential_genus, report.max_genus)


def test_public_invariants_read_the_ladder_without_a_tree_search(monkeypatch):
    # prism30 has more than 10**6 spanning trees, so an exhaustive tree
    # search runs for about a minute and then refuses; the floor settles it
    def no_tree_search(*args, **kwargs):
        raise AssertionError("tree search run")

    for module, name in [
        (moves, "betti_deficiency"),
        (invariants, "betti_deficiency"),
        (invariants, "spanning_trees"),
    ]:
        monkeypatch.setattr(module, name, no_tree_search)
    assert essential_genus(prism(30)) == 17
    assert max_genus(prism(30)) == 15


@pytest.mark.parametrize(
    ("text", "genus", "error"),
    [
        ("edge a x y 1.0\nedge b y z 1.0\nedge c z x 1.0\n", 0, CycleGraphError),
        ("edge a x y 1.0\nedge b y z 1.0\n", 0, GraphValidationError),
        (
            "edge a u v 1.0\nedge b u v 1.0\nedge c u v 1.0\nedge d v w 1.0\n",
            1,
            GraphValidationError,
        ),
        ("edge a u u 1.0\nedge b u w 1.0\n", 0, GraphValidationError),
    ],
    ids=["triangle", "path", "theta with a pendant edge", "loop with a pendant edge"],
)
def test_public_invariants_keep_their_domains(text, genus, error):
    # max_genus does not smooth, so cycles, trees and pendant edges are in
    # its domain; essential_genus smooths first, which refuses them
    g = parse_graph(text)
    assert max_genus(g) == genus
    with pytest.raises(error):
        essential_genus(g)


def test_floor_certifies_without_a_tree_search(monkeypatch):
    def no_trees(*args, **kwargs):
        raise AssertionError("spanning trees enumerated")

    monkeypatch.setattr("ribbon_embed.invariants.spanning_trees", no_trees)
    res = minimize_boundaries(prism(200), tree_cap=1)
    assert res.certified and res.certificate != "dp"
    assert res.boundary_count == 2


def test_restarts_stop_at_the_floor(monkeypatch):
    # a stalled start, then the first restart reaches 1 walk = 1 + floor:
    # the remaining restarts and the tree search are skipped
    g = STALLING
    stalled_start = next(r for r in enumerate_rotations(g, 10**6) if _climb(g, r, -2)[1] > 1)
    monkeypatch.setattr("ribbon_embed.invariants.spanning_trees", None)
    res = minimize_boundaries(g, start=stalled_start, restarts=8)
    assert (res.boundary_count, res.restarts_used) == (1, 1)
    assert res.certified and res.certificate != "dp"


@pytest.mark.parametrize("seed", [27, 65, 142, 229])
def test_last_rung_runs_where_the_floor_falls_short(seed):
    g = random_multigraph(seed)
    target = 1 + betti_deficiency(g)
    assert target > 1 + zeta_floor(g)
    # within the rotation cap the DP certifies, whatever the tree cap
    res = minimize_boundaries(g, restarts=0, tree_cap=1)
    assert res.certificate == "dp" and res.certified
    assert res.boundary_count == target == min(boundary_profile(g, 10**6))
    # with the trees within their cap too, the same DP certifies the count
    res = minimize_boundaries(g, restarts=3)
    assert res.certified and res.boundary_count == target


def test_no_search_enumerates_rotations(monkeypatch):
    # one DP pass decides the optimum and gives its witness: the
    # rotations behind the two restarts0 goldens, and for each graph of the
    # last rung the descent's own rotation or, where it stalls, the first
    # rotation in enumeration order at the minimum
    cases = [
        (minimize_boundaries, random_multigraph(3), 10**6, ((2, 4, 8, 6, 9), (0, 3, 1, 5, 7))),
        (maximize_boundaries, random_multigraph(14), None, ((0, 2, 4, 9), (1, 6, 7, 8, 5, 3))),
    ]
    for seed in (27, 65, 142, 229):
        g = random_multigraph(seed)
        target = 1 + betti_deficiency(g)
        rot, count, _ = _climb(g, default_rotation(g, 0), -2)
        if count > target:
            rot = next(r for r in enumerate_rotations(g) if boundary_count(g, r) == target)
        cases.append((minimize_boundaries, g, 1, rot.cycles))

    def no_enumeration(*args, **kwargs):
        raise AssertionError("rotations enumerated")

    monkeypatch.setattr(itertools, "product", no_enumeration)  # the oracle's pass, too
    monkeypatch.setattr(rotation, "enumerate_rotations", no_enumeration)
    for search, g, tree_cap, cycles in cases:
        caps = {} if tree_cap is None else {"tree_cap": tree_cap}
        res = search(g, restarts=0, **caps)
        assert res.rotation.cycles == cycles
        assert res.certificate == "dp" and res.certified



def test_an_enumerating_search_runs_the_dp_once(monkeypatch):
    # one pass gives the optimum and the first rotation at it: the last
    # rung's graphs, and a maximize whose ascent stalls below the maximum,
    # counted over the whole call, where the target comes from that pass
    calls = []
    plan, search = rotation._plan, moves._search  # one plan per DP pass

    def counted(*args):
        calls.append(args)
        return plan(*args)

    runs = []

    def recorded(*args):
        res = search(*args)
        runs.append((res.certificate == "dp", res.certified))
        return res

    monkeypatch.setattr(rotation, "_plan", counted)
    monkeypatch.setattr(moves, "_search", recorded)
    passes = []
    for seed in (27, 65, 142, 229):
        before = len(calls)
        minimize_boundaries(random_multigraph(seed), restarts=0, tree_cap=1)
        passes.append(len(calls) - before)
    before = len(calls)
    maximize_boundaries(random_multigraph(14), restarts=0)
    passes.append(len(calls) - before)
    assert runs == [(True, True)] * 5
    assert passes == [1] * 5


def _climb_by_single_moves(g, rot, delta):
    """Reference climb built from the public one-move functions."""
    records = []
    while True:
        if delta < 0:
            incidence = vertex_boundary_incidence(g, rot)
            crowded = [v for v in range(g.vertex_count) if incidence[v] >= 3]
            if not crowded:
                break
            rot, record = reduce_move(g, rot, crowded[0])
        else:
            try:
                rot, record = increase_move(g, rot)
            except NoIncreasingMoveError:
                break
        records.append(record)
    return rot, boundary_count(g, rot), records


def test_climb_matches_single_moves(theta, bouquet2, k4):
    for g in (theta, bouquet2, k4, STALLING, random_multigraph(3), random_multigraph(5)):
        for rot in enumerate_rotations(g, 10**6):
            for delta in (-2, 2):
                assert _climb(g, rot, delta) == _climb_by_single_moves(g, rot, delta)
    # long climbs, whose one successor table is rewritten many times over:
    # 3104 climbs making 2386 moves
    graphs = [smooth(random_multigraph(seed)) for seed in range(300)]
    graphs += [prism(rungs) for rungs in range(3, 31)]
    graphs += [random_cubic(seed, 8 + 2 * (seed % 20)) for seed in range(60)]
    climbs = moved = 0
    for g in graphs:
        for seed in range(4):
            for delta in (-2, 2):
                rot = default_rotation(g, seed)
                climbed = _climb(g, rot, delta)
                assert climbed == _climb_by_single_moves(g, rot, delta), (g, seed, delta)
                climbs += 1
                moved += len(climbed[2])
    assert (climbs, moved) == (3104, 2386)


def test_a_descent_scans_by_crowded_vertices_once_per_move(k5, monkeypatch):
    # the descent finds the vertex to move at by the oracle's one scan,
    # once per move and once where it stops, and never counts a vertex's
    # faces itself: every _incidence call comes from inside the scan
    scans, inside, tested = [], [], []
    incidence, crowded_vertices = rotation._incidence, rotation._crowded_vertices

    def scan(cycles, face):
        scans.append(cycles)
        inside.append(True)
        try:
            return crowded_vertices(cycles, face)
        finally:
            inside.pop()

    def checked(cycle, face):
        assert inside, "_incidence called outside _crowded_vertices"
        tested.append(len(cycle))
        return incidence(cycle, face)

    monkeypatch.setattr(moves, "_crowded_vertices", scan)
    monkeypatch.setattr(rotation, "_incidence", checked)
    moved = 0
    for g in (k5, PETERSEN, STALLING, *map(random_multigraph, range(20))):
        for seed in range(4):
            del scans[:]
            records = _climb(g, default_rotation(g, seed), -2)[2]
            assert len(scans) == len(records) + 1, (g, seed)
            moved += len(records)
    assert moved > 0 and 4 in tested  # K5's cycles of four darts go to _incidence


def test_no_reducing_relocation_where_fewer_than_three_walks_meet(theta, bouquet2, k4):
    # why the descent tries only vertices meeting >= 3 walks; the converse,
    # that a reducing relocation exists there, is test_reduce_move_sweep_fixtures
    for g in (theta, bouquet2, k4, STALLING, *map(random_multigraph, range(8))):
        for rot in enumerate_rotations(g, 10**6):
            base = boundary_count(g, rot)
            incidence = vertex_boundary_incidence(g, rot)
            for v, cycle in enumerate(rot.cycles):
                if incidence[v] >= 3:
                    continue
                for c in single_dart_relocations(cycle):
                    moved = make_rotation(g, rot.cycles[:v] + (c,) + rot.cycles[v + 1 :])
                    assert boundary_count(g, moved) != base - 2


def _delta_cases(theta, bouquet2, k4, k5, dumbbell):
    """(graph, kernel walk count of every rotation) for the delta tests."""
    graphs = [theta, bouquet2, k4, k5, dumbbell, STALLING]
    graphs += [random_multigraph(seed) for seed in range(30)]
    for g in graphs:
        counts = {r.cycles: _faces(g.dart_count, r.cycles)[1] for r in enumerate_rotations(g)}
        yield g, counts


def _moved(cycles, v, cycle):
    return cycles[:v] + (cycle,) + cycles[v + 1 :]


def _relocations(cycle):
    """(n, x, b, moved cycle) of every relocation but the identity: dart x
    leaves its place before n for the slot before b."""
    out = []
    for i, x in enumerate(cycle):
        n = cycle[(i + 1) % len(cycle)]
        rest = cycle[:i] + cycle[i + 1 :]
        for j, b in enumerate(rest):
            if b != n:
                out.append((n, x, b, canonical_cycle(rest[:j] + (x,) + rest[j:])))
    return out


def test_relocation_delta_matches_the_kernel(theta, bouquet2, k4, k5, dumbbell):
    # every (source, slot) relocation at every vertex of every rotation: the
    # delta read off one trace equals the recount of the moved rotation
    relocations = {}
    for g, counts in _delta_cases(theta, bouquet2, k4, k5, dumbbell):
        for cycles, base in counts.items():
            face, _, succ = _faces(g.dart_count, cycles)
            for v, cycle in enumerate(cycles):
                if cycle not in relocations:
                    relocations[cycle] = _relocations(cycle)
                for n, x, b, moved in relocations[cycle]:
                    want = counts[_moved(cycles, v, moved)] - base
                    assert _relocation_delta(face, succ, n, x, b) == want, (cycles, v, x, b)


def _canonicalized_relocation(cycle, delta, face, succ):
    """Reference for ``_relocated_cycle``: the same scan with no skipped
    source, the moved tuple put in order by ``canonical_cycle``; with it
    whether the smallest dart is the one moved, and whether the moved dart
    lands just before the smallest.
    """
    for i, x in enumerate(cycle):
        n = cycle[(i + 1) % len(cycle)]
        for b in cycle:
            if b != x and b != n and _relocation_delta(face, succ, n, x, b) == delta:
                rest = cycle[:i] + cycle[i + 1 :]
                j = rest.index(b)
                return canonical_cycle(rest[:j] + (x,) + rest[j:]), i == 0, j == 0
    return None, False, False


def test_relocated_cycle_and_crowded_match_their_references():
    # every canonical cyclic order of k <= 6 darts, each on seeded random
    # darts (a loop when two are mates) of a random rotation whose other
    # darts sit at other vertices
    rng = random.Random(7)
    found = Counter()
    for k in range(1, 7):
        dart_count = 2 * k + 4
        for order in _cyclic_orders(range(k)):
            for _ in range(4):
                darts = sorted(rng.sample(range(dart_count), k))
                cycle = tuple(darts[i] for i in order)
                others = [d for d in range(dart_count) if d not in darts]
                rng.shuffle(others)
                cycles = [cycle]
                while others:
                    size = rng.randint(1, len(others))
                    cycles.append(tuple(others[:size]))
                    others = others[size:]
                succ = _succ(dart_count, cycles)
                face = _trace(succ)[0]
                assert _crowded_vertices(cycles, face) == [
                    v for v, c in enumerate(cycles) if _incidence(c, face) >= 3
                ], (cycles, face)
                for delta in (-2, 2):
                    want, first, to_front = _canonicalized_relocation(cycle, delta, face, succ)
                    assert _relocated_cycle(cycle, delta, face, succ) == want, (cycles, delta)
                    if want is not None:
                        found[delta, first, to_front] += 1
    # (delta, the smallest dart moved, the moved dart lands just before it):
    # the three ways the moved cycle is put in order.  A reducing move never
    # lands just before the smallest dart: the scan reaches a later source
    # only when every dart before it lies on the smallest dart's face.
    assert set(found) == {
        (-2, True, False),
        (-2, False, False),
        (2, True, False),
        (2, False, True),
        (2, False, False),
    }, found


def test_relocate_picks_the_first_relocation_with_the_delta(theta, bouquet2, k4, k5, dumbbell):
    # the reference: the first of single_dart_relocations whose kernel walk
    # count is the base count plus delta
    relocations = {}
    found = Counter()
    for g, counts in _delta_cases(theta, bouquet2, k4, k5, dumbbell):
        for cycles, base in counts.items():
            face, _, succ = _faces(g.dart_count, cycles)
            for v, cycle in enumerate(cycles):
                if cycle not in relocations:
                    relocations[cycle] = list(single_dart_relocations(cycle))
                trials = [_moved(cycles, v, c) for c in relocations[cycle]]
                for delta in (-2, 2):
                    trial = next((t for t in trials if counts[t] == base + delta), None)
                    want = trial and trial[v]
                    assert _relocated_cycle(cycle, delta, face, succ) == want, (cycles, v, delta)
                    found[delta] += want is not None
    assert found[-2] and found[2]


def test_oracle_reads_each_moves_recount_at_the_rotation_it_reaches(k5, monkeypatch):
    # a kernel that under-counts every rotation by 2 fails every move check
    # of K5's pass, so each names the rotation it starts from and the one
    # it reaches: that one is the start with v's cycle replaced by the
    # moved one, and the count read there is the recount of a table
    # linked from scratch
    trace, relocated_cycle = rotation._trace, moves._relocated_cycle
    moved = []

    def undercount(succ):
        face, count = trace(succ)
        return face, count - 2

    def relocated_cycle_spy(cycle, delta, face, succ):
        moved.append((cycle, relocated_cycle(cycle, delta, face, succ)))
        return moved[-1][1]

    monkeypatch.setattr(rotation, "_trace", undercount)
    monkeypatch.setattr(moves, "_relocated_cycle", relocated_cycle_spy)
    lines, passed = oracle(k5)
    line = re.compile(
        r"fail: reduce_move at vertex (\d+) changed (\d+) -> (\d+), not -2, "
        r"from rotation (\d+) to (\d+)"
    )
    cases = [tuple(map(int, m.groups())) for m in map(line.fullmatch, lines) if m]
    assert not passed
    assert len(cases) == len(moved) == 16350
    orders = _vertex_orders(k5, 10**6)
    for (v, base, got, index, reached), (cycle, new_cycle) in zip(cases, moved):
        start = _rotation_at(orders, index).cycles
        end = _rotation_at(orders, reached).cycles
        assert start[v] == cycle
        assert end == start[:v] + (new_cycle,) + start[v + 1 :]
        table = [0] * k5.dart_count
        for cycle in end:
            _link(table, cycle)
        assert got == _orbits(table) == base  # the kernel's count here is 2 short


def test_oracle_recounts_each_rotation_once_before_the_kernel_runs(k4, k5, monkeypatch):
    # the recount pass counts every rotation once, and no function of the
    # kernel runs until it is done
    calls = []

    def logged(name, function):
        def wrapper(*args):
            calls.append(name)
            return function(*args)

        return wrapper

    monkeypatch.setattr(moves, "_orbits", logged("_orbits", moves._orbits))
    for name in ("_set_succ", "_crowded_vertices", "_relocated_cycle"):
        monkeypatch.setattr(moves, name, logged(name, getattr(moves, name)))
    monkeypatch.setattr(rotation, "_trace", logged("_trace", rotation._trace))
    for g in (k4, k5, PETERSEN):
        calls.clear()
        assert oracle(g)[1]
        total = count_rotations(g)
        assert calls[:total] == ["_orbits"] * total
        assert "_orbits" not in calls[total:]
        assert calls.count("_trace") == total


def test_oracle_scans_a_cubic_rotation_without_calling_crowded(k4, monkeypatch):
    # a cycle of three darts is tested inline by _crowded_vertices, so on a
    # cubic graph the oracle never counts a vertex's faces by _incidence,
    # which is the rule for other degrees (one call per vertex of every
    # rotation with three or more walks, were it the scan)
    calls = Counter()
    incidence = rotation._incidence

    def counted(cycle, face):
        calls[len(cycle)] += 1
        return incidence(cycle, face)

    monkeypatch.setattr(rotation, "_incidence", counted)
    for g in (k4, PETERSEN):
        assert oracle(g)[1]
    assert not calls, calls
    assert oracle(parse_graph("edge a u v 1\nedge b u v 1\nedge c u v 1\nedge d u u 1\n"))[1]
    assert set(calls) == {5}, calls


def test_oracle_traces_a_table_equal_to_one_built_from_scratch(k4, k5, monkeypatch):
    # the pass rewrites its successor table only at the vertices whose cycle
    # changed: the table traced for the k-th rotation must equal the one
    # _succ builds for the k-th rotation of enumerate_rotations
    trace = rotation._trace
    tables = iter(())

    def checked(succ):
        assert succ == next(tables, None)
        return trace(succ)

    monkeypatch.setattr(rotation, "_trace", checked)
    for g in map(smooth, (k4, k5, PETERSEN, STALLING)):
        tables = (_succ(g.dart_count, r.cycles) for r in enumerate_rotations(g, 10**6))
        assert oracle(g)[1]
        assert next(tables, None) is None, "a rotation was not traced"


def test_oracle_reads_the_descents_off_without_a_list_of_rotations():
    # the passes keep 16 bytes per rotation; the read-off, one pass per walk
    # count, adds nothing per rotation.  Sorting every rotation index by its
    # end peaked at about 65 bytes per rotation.
    g = prism(7)
    tracemalloc.start()
    try:
        assert oracle(g)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * count_rotations(g)


def _climbed_descent_report(g):
    """The oracle's descent line, rebuilt by climbing from every rotation."""
    counts, ends = Counter(), Counter()
    for rot in enumerate_rotations(g, 10**6):
        counts[boundary_count(g, rot)] += 1
        ends[_climb(g, rot, -2)[1]] += 1
    total, lo = sum(counts.values()), min(counts)
    stalls = total - ends[lo]
    if stalls:
        return (
            f"descent report: stalled above the minimum from {stalls} of {total} "
            "starts (enumeration fallback covers these)"
        )
    return f"descent report: greedy reaches {lo} from all {total} starts"


def test_oracle_descent_report_matches_climb(theta, bouquet2, k4, k5, dumbbell, monkeypatch):
    # the oracle reads each descent's end off the pointers of its one pass;
    # climbing from every rotation must report the same, and the oracle
    # never climbs itself
    graphs = [theta, bouquet2, k4, k5, dumbbell, STALLING, PETERSEN]
    graphs += [g for g in map(random_multigraph, range(60)) if count_rotations(g) <= 2 * 10**4]
    reports = [_climbed_descent_report(smooth(g)) for g in graphs]

    def no_climb(*args):
        raise AssertionError("the oracle climbed")

    monkeypatch.setattr(moves, "_climb", no_climb)
    for g, report in zip(graphs, reports):
        lines, passed = oracle(g)
        assert passed
        assert lines[7] == report
    assert reports[5].startswith("descent report: stalled")
    assert "from 24 of 1024 starts" in reports[6]


def test_oracle_walk_count_matches_the_kernel(theta, bouquet2, k4, k5, dumbbell):
    # the oracle's recount (_link, then _orbits) traces the inverse
    # permutation, apart from _trace
    graphs = [theta, bouquet2, k4, k5, dumbbell]
    graphs += [random_multigraph(seed) for seed in range(30)]
    for g in graphs:
        for rot in enumerate_rotations(g, 10**6):
            following = [None] * g.dart_count
            for cycle in rot.cycles:
                _link(following, cycle)
            assert _orbits(following) == _faces(g.dart_count, rot.cycles)[1]


def test_oracle_returns_its_report_and_verdict(k4, k5):
    lines, passed = oracle(k4)
    assert passed
    assert lines[0] == "rotations enumerated: 16"
    assert lines[-1] == "oracle: all checks passed"
    with pytest.raises(CapExceededError, match="cap of 124"):
        oracle(k5, tree_cap=124)
