from collections import Counter

import pytest

from ribbon_embed import (
    CapExceededError,
    GraphFormatError,
    analyze,
    boundary_count,
    boundary_profile,
    boundary_walks,
    capped_genus,
    count_rotations,
    default_rotation,
    enumerate_rotations,
    euler_char,
    fat_genus,
    ge_max_exact,
    make_rotation,
    parse_graph,
    rotation,
    vertex_boundary_incidence,
)
from ribbon_embed.rotation import (
    _extremes,
    _faces,
    _mirror_vertex,
    _plan,
    _profile,
    _rotation_at,
    _vertex_orders,
    canonical_cycle,
    rotation_from_lines,
    rotation_to_lines,
    validate_rotation,
)
from ribbon_embed.moves import _walk_bound, oracle

from helpers import (
    STALLS_AT_THREE_WALKS,
    prism,
    random_cubic,
    random_multigraph,
    short_order_lists,
    wheel,
)

# Frozen by exhaustive enumeration, cross-checked against an independent
# tracer for both walk conventions (the multiset is convention-invariant).
PROFILES = {
    "theta": {1: 2, 3: 2},
    "bouquet2": {1: 2, 3: 4},
    "k4": {2: 14, 4: 2},
    "k5": {1: 2340, 3: 4974, 5: 462},
}


def test_canonical_cycle():
    assert canonical_cycle((4, 0, 2)) == (0, 2, 4)
    assert canonical_cycle((0, 2, 4)) == (0, 2, 4)
    assert canonical_cycle((7,)) == (7,)


def test_default_rotation_seed0_is_file_order(theta, k4):
    assert default_rotation(theta, 0).cycles == ((0, 2, 4), (1, 3, 5))
    assert default_rotation(k4, 0).cycles[0] == (0, 2, 4)


def test_default_rotation_seeded_deterministic(k4):
    assert default_rotation(k4, 7) == default_rotation(k4, 7)
    different = any(default_rotation(k4, s) != default_rotation(k4, 0) for s in range(1, 6))
    assert different


def test_validate_rotation_rejects(theta):
    # a dart listed at the wrong vertex
    with pytest.raises(ValueError):
        make_rotation(theta, [(0, 2, 3), (1, 4, 5)])
    # missing dart
    with pytest.raises(ValueError):
        make_rotation(theta, [(0, 2, 4), (1, 3)])
    # duplicated dart
    with pytest.raises(ValueError):
        make_rotation(theta, [(0, 2, 4, 4), (1, 3, 5)])
    validate_rotation(theta, make_rotation(theta, [(2, 4, 0), (3, 5, 1)]))
    # one cycle for two vertices
    with pytest.raises(GraphFormatError, match="^rotation has 1 cycles for 2 vertices$"):
        make_rotation(theta, [(0, 2, 4)])


def test_validate_rotation_cuts_the_vertex_name_it_quotes():
    # a bad rotation is a format error of its record, and a vertex name of
    # any length that parse_graph accepts was quoted whole
    name = "w" * 100_000
    theta = parse_graph(f"edge a {name} v 1\nedge b {name} v 1\nedge c {name} v 1")
    with pytest.raises(GraphFormatError, match="^cycle at vertex www") as exc:
        make_rotation(theta, [(0, 2, 3), (1, 4, 5)])
    assert len(str(exc.value)) <= 200


def test_theta_one_walk_orbit(theta):
    rot = make_rotation(theta, [(0, 2, 4), (1, 3, 5)])
    walks = boundary_walks(theta, rot)
    assert len(walks) == 1
    assert walks[0] == (0, 5, 2, 1, 4, 3)


def test_k4_planar_rotation(k4):
    rot = make_rotation(k4, [(0, 2, 4), (1, 8, 6), (3, 7, 10), (5, 11, 9)])
    assert boundary_count(k4, rot) == 4
    assert fat_genus(k4, rot) == 0


def test_walks_partition_darts(k4):
    for seed in range(5):
        rot = default_rotation(k4, seed)
        walks = boundary_walks(k4, rot)
        darts = sorted(d for w in walks for d in w)
        assert darts == list(range(k4.dart_count))
        # canonical ordering: walks sorted by smallest dart, starting at it
        mins = [min(w) for w in walks]
        assert mins == sorted(mins)
        assert all(w[0] == min(w) for w in walks)


def test_count_rotations(theta, bouquet2, k4, k5):
    assert count_rotations(theta) == 4
    assert count_rotations(bouquet2) == 6
    assert count_rotations(k4) == 16
    assert count_rotations(k5) == 7776


def test_enumeration_is_complete_and_distinct(theta, bouquet2, k4):
    for g in (theta, bouquet2, k4):
        rotations = list(enumerate_rotations(g, 10**6))
        assert len(rotations) == count_rotations(g)
        assert len(set(rotations)) == len(rotations)
        for rot in rotations:
            validate_rotation(g, rot)


def test_enumeration_cap(k5):
    with pytest.raises(CapExceededError):
        list(enumerate_rotations(k5, 100))


def test_boundary_profiles(theta, bouquet2, k4, k5):
    assert boundary_profile(theta, 10**6) == PROFILES["theta"]
    assert boundary_profile(bouquet2, 10**6) == PROFILES["bouquet2"]
    assert boundary_profile(k4, 10**6) == PROFILES["k4"]
    assert boundary_profile(k5, 10**6) == PROFILES["k5"]


def test_boundary_profile_cap(k5):
    with pytest.raises(CapExceededError):
        boundary_profile(k5, 100)


def _edges(pairs):
    return parse_graph("\n".join(f"edge e{i} {u} {v} 1.0" for i, (u, v) in enumerate(pairs)))


def bouquet(loops):
    return _edges([("w", "w")] * loops)


def dipole(strands):
    return _edges([("u", "v")] * strands)


PETERSEN = _edges(
    [(f"o{i}", f"o{(i + 1) % 5}") for i in range(5)]
    + [(f"o{i}", f"i{i}") for i in range(5)]
    + [(f"i{i}", f"i{(i + 2) % 5}") for i in range(5)]
)


def _swept(g):
    """The walk-count histogram by brute force: every rotation traced."""
    return Counter(boundary_count(g, r) for r in enumerate_rotations(g, 10**6))


def _profile_graphs(theta, bouquet2, k4, k5, dumbbell):
    graphs = [theta, bouquet2, k4, k5, dumbbell, bouquet(4), dipole(6)]
    graphs += [prism(rungs) for rungs in range(3, 8)]
    graphs += [g for g in map(random_multigraph, range(150)) if count_rotations(g) <= 10**6]
    return graphs


def test_frontier_profile_matches_the_sweep(theta, bouquet2, k4, k5, dumbbell):
    # the DP shares no code with the brute force but _cyclic_orders
    graphs = _profile_graphs(theta, bouquet2, k4, k5, dumbbell)
    assert len(graphs) == 162
    for g in graphs:
        assert boundary_profile(g) == dict(sorted(_swept(g).items()))


def test_walk_bound_holds_the_profile_maximum(theta, bouquet2, k4, k5, dumbbell):
    # no rotation beats the bound maximize_boundaries climbs to; on the
    # planar prisms it is 2 - chi, the count of a genus-0 rotation
    for g in _profile_graphs(theta, bouquet2, k4, k5, dumbbell):
        assert _walk_bound(g) >= max(boundary_profile(g)), g
    for rungs in range(3, 31):
        g = prism(rungs)
        assert _walk_bound(g) == 2 - euler_char(g), rungs


def test_ge_max_exact_is_the_genus_of_the_profile_maximum(theta, bouquet2, k4, k5, dumbbell):
    # the plateau settles g_e^max with no DP pass wherever one ascent has
    # the capped genus of the walk bound; analyze and ge_max_exact must
    # still give what the whole profile gives, on every graph within the
    # cap, among them cubics on 12 vertices where that genus lies above it
    graphs = _profile_graphs(theta, bouquet2, k4, k5, dumbbell)
    graphs += [random_multigraph(seed) for seed in range(300)]
    graphs += [prism(rungs) for rungs in range(3, 31)]
    graphs += [random_cubic(seed, 12) for seed in range(20)]
    for g in graphs:
        cap = count_rotations(g)
        want = max(capped_genus(g, b) for b in boundary_profile(g, cap))
        assert analyze(g, rotation_cap=cap).ge_max_exact == want, g
        assert ge_max_exact(g, cap) == want, g


def _mirror_graphs(theta, bouquet2, k4, k5, dumbbell):
    # the profile graphs, a graph whose vertex 0 has degree 2, so v* is not
    # the first vertex, and a loop, with no vertex of degree 3 at all
    graphs = _profile_graphs(theta, bouquet2, k4, k5, dumbbell)
    return graphs + [_edges([("p", "u"), ("p", "v"), ("u", "v"), ("u", "v")]), bouquet(1)]


def test_plan_steps_through_half_the_orders_at_the_mirror_vertex(theta, bouquet2, k4, k5, dumbbell):
    for g in _mirror_graphs(theta, bouquet2, k4, k5, dumbbell):
        orders = _vertex_orders(g, 10**6)
        star = _mirror_vertex(g)
        halved = 0 if star is None else len(orders[star]) // 2
        assert star is None or all(g.degree(v) <= 2 for v in range(star)), g
        assert sum(len(p.steps) for p in _plan(g, orders)) == sum(map(len, orders)) - halved, g


def test_a_fold_passed_to_the_frontier_counts_every_rotation(theta, bouquet2, k4, k5, dumbbell):
    # the driver runs any fold over the placements: one that only counts
    # partial rotations, each standing for its mirror image too where v*
    # exists, counts every rotation
    def count(total, rotations, closed, offset):
        return rotations if total is None else total + rotations

    graphs = _mirror_graphs(theta, bouquet2, k4, k5, dumbbell)
    assert len(graphs) == 164
    for g in graphs:
        start = 1 if _mirror_vertex(g) is None else 2
        orders = _vertex_orders(g, count_rotations(g))
        assert rotation._frontier(g, orders, start, count) == count_rotations(g), g


def test_witness_is_the_first_rotation_with_its_count(theta, bouquet2, k4, k5, dumbbell):
    # the DP's count at each walk count and the searches' extremes are what
    # a scan in enumeration order finds; the scan shares no code with the
    # DP but the orders, so it also checks the mirror half: the doubled
    # counts, and that the member of each pair kept at v* is the first
    graphs = _mirror_graphs(theta, bouquet2, k4, k5, dumbbell)
    assert max(map(count_rotations, graphs)) <= 2 * 10**4
    for g in graphs:
        scan, first = Counter(), {}
        for r in enumerate_rotations(g):
            scan[boundary_count(g, r)] += 1
            first.setdefault(boundary_count(g, r), r)
        orders = _vertex_orders(g, 10**6)
        assert _profile(g, orders) == scan, g
        lo, hi = min(scan), max(scan)
        assert _extremes(g, orders) == {lo: first[lo], hi: first[hi]}, g


def test_extremes_are_the_extreme_buckets_of_the_profile(theta, bouquet2, k4, k5, dumbbell):
    # the searches' fold keeps the least and the greatest key of the whole
    # histogram, each with the rotation of the smallest index there, which
    # the tracer counts as many walks; a fold run here keeps the smallest
    # index of every bucket, exact as partial rotations that share a state
    # and a count have the same completions
    def firsts(target, buckets, closed, offset):
        target = {} if target is None else target
        for faces, first in buckets.items():
            key = faces + closed
            target[key] = min(target.get(key, first + offset), first + offset)
        return target

    graphs = _profile_graphs(theta, bouquet2, k4, k5, dumbbell)
    graphs += [prism(rungs) for rungs in range(3, 31)]
    for g in graphs:
        orders = _vertex_orders(g, count_rotations(g))
        first = rotation._frontier(g, orders, {0: 0}, firsts)
        assert first.keys() == _profile(g, orders).keys(), g
        lo, hi = min(first), max(first)
        extremes = _extremes(g, orders)
        assert extremes == {c: _rotation_at(orders, first[c]) for c in (lo, hi)}, g
        for count, witness in extremes.items():
            assert _faces(g.dart_count, witness.cycles)[1] == count, (g, count)


def test_placements_keep_the_cut_of_a_prism_narrow():
    # least cut growth walks round a prism: the states never hold more
    # than six open paths, whatever its size
    for rungs in (3, 10, 30, 200):
        g = prism(rungs)
        plan = _plan(g, _vertex_orders(g, count_rotations(g)))
        widths = [len(p.kept) + len(p.fresh) for p in plan]
        assert len(widths) == g.vertex_count and widths[-1] == 0
        assert max(widths) <= 6, rungs


def test_the_dp_composes_a_pinned_number_of_times(theta, bouquet2, k4, k5, dumbbell, monkeypatch):
    # every state times every order stepped at the placed vertex, over the
    # searches' pass: a change to the plan that moves the DP's work moves
    # these totals, and one that only relabels its states does not
    work = []
    compose = rotation._compose

    def counted(placement, states, fold):
        work[-1] += len(states) * len(placement.steps)
        return compose(placement, states, fold)

    monkeypatch.setattr(rotation, "_compose", counted)
    families = [_mirror_graphs(theta, bouquet2, k4, k5, dumbbell)]
    families.append([prism(rungs) for rungs in range(3, 31)])
    for graphs in families:
        work.append(0)
        for g in graphs:
            _extremes(g, _vertex_orders(g, count_rotations(g)))
    assert work == [33672, 44634]


def test_rotation_at_decodes_the_enumeration_index(theta, bouquet2, k4, k5, dumbbell):
    for g in (theta, bouquet2, k4, k5, dumbbell):
        orders = _vertex_orders(g, 10**6)
        for i, r in enumerate(enumerate_rotations(g)):
            assert _rotation_at(orders, i) == r, (g, i)


def test_boundary_profile_runs_the_dp_for_every_graph(k5):
    expected = {g: _swept(g) for g in (PETERSEN, prism(5), prism(7), bouquet(4), dipole(6))}
    assert boundary_profile(k5) == PROFILES["k5"]
    # a bouquet and a dipole never narrow the cut: the DP still finishes
    for g, profile in expected.items():
        assert boundary_profile(g) == dict(sorted(profile.items()))
    # 2^18 rotations, and the planar embedding's rungs + 2 faces at the top
    big = boundary_profile(prism(9))
    assert sum(big.values()) == 2**18 and max(big) == 11 and min(big) == 1


def test_walk_parity_property():
    # b is congruent to chi mod 2 for every rotation: genus bookkeeping
    # depends on it, so it is rechecked on random graphs here
    for seed in range(12):
        g = random_multigraph(seed)
        chi = euler_char(g)
        for s in range(8):
            rot = default_rotation(g, s)
            assert (boundary_count(g, rot) - chi) % 2 == 0


def test_fat_genus_range(k4):
    for rot in enumerate_rotations(k4, 10**6):
        assert fat_genus(k4, rot) in (0, 1)


def test_vertex_boundary_incidence(theta):
    one_walk = make_rotation(theta, [(0, 2, 4), (1, 3, 5)])
    assert vertex_boundary_incidence(theta, one_walk) == {0: 1, 1: 1}
    three_walk = next(r for r in enumerate_rotations(theta) if boundary_count(theta, r) == 3)
    inc = vertex_boundary_incidence(theta, three_walk)
    assert inc[0] == 3 and inc[1] == 3


def test_sweep_matches_per_rotation_tracing(theta, bouquet2, k4, k5, dumbbell):
    # the reference traces every rotation of enumerate_rotations from scratch
    graphs = [theta, bouquet2, k4, k5, dumbbell]
    graphs += [random_multigraph(seed) for seed in range(30)]
    for g in graphs:
        counts = [_faces(g.dart_count, r.cycles)[1] for r in enumerate_rotations(g, 10**6)]
        assert boundary_profile(g, 10**6) == dict(sorted(Counter(counts).items()))


def test_rotation_lines_round_trip(k4, bouquet2):
    for g in (k4, bouquet2):
        for seed in (0, 3):
            rot = default_rotation(g, seed)
            lines = rotation_to_lines(g, rot)
            assert all(line.startswith("rot ") for line in lines)
            assert rotation_from_lines(g, lines) == rot


def test_rotation_lines_reject_incomplete(theta):
    rot = default_rotation(theta, 0)
    lines = rotation_to_lines(theta, rot)[:1]
    with pytest.raises(ValueError):
        rotation_from_lines(theta, lines)


def test_euler_parity_guard_is_internal():
    # sanity: boundary_walks never raises on valid input; the parity guard
    # exists for corrupted states only
    g = random_multigraph(3)
    for s in range(4):
        boundary_walks(g, default_rotation(g, s))


def test_every_exhaustive_stage_raises_the_gates_refusal(k4, monkeypatch):
    # one gate decides for every exhaustive stage: where it refuses, the
    # soft readers give no exact answer and the hard ones raise its refusal
    refusal = CapExceededError("refused by the gate")
    asked = []

    def refuse(graph, cap):
        asked.append(cap)
        return refusal

    monkeypatch.setattr(rotation, "refusal", refuse)
    assert analyze(k4).ge_max_exact is None
    # the descent misses the floor here, so the search, then g_e^max, read
    # the answer; the gate is asked once per analyze all the same
    report = analyze(STALLS_AT_THREE_WALKS)
    assert (report.zeta, report.ge_max_exact, asked) == (0, None, [10**6] * 2)
    stages = [
        lambda: ge_max_exact(k4),
        lambda: boundary_profile(k4),
        lambda: list(enumerate_rotations(k4)),
        lambda: oracle(k4),
    ]
    for stage in stages:
        with pytest.raises(CapExceededError) as info:
            stage()
        assert info.value is refusal


def test_the_gate_admits_exactly_the_graphs_within_the_cap(theta, bouquet2, k4, k5, dumbbell):
    # up to the default cap the rotation count alone decides: the orders
    # to list never outnumber the rotations
    graphs = _profile_graphs(theta, bouquet2, k4, k5, dumbbell)
    graphs += [random_multigraph(seed) for seed in range(300)]
    for g in graphs:
        total = count_rotations(g)
        caps = {0, 1, total - 1, total, total + 1, 10**6}
        for cap in sorted(c for c in caps if 0 <= c <= 10**6):
            refusal = rotation.refusal(g, cap)
            assert (refusal is None) == (total <= cap), (g, cap)
            if refusal is not None:
                assert str(refusal) == f"{total} rotation systems exceed the cap of {cap}"


def test_a_raised_cap_never_lists_a_hubs_orders(monkeypatch):
    # the wheel's 12! * 2^13 rotations lie within 10^21, but its hub alone
    # has 12! cyclic orders: the gate refuses what would list them
    monkeypatch.setattr(rotation, "_cyclic_orders", short_order_lists)
    g, cap = wheel(13), 10**21
    assert count_rotations(g) <= cap
    assert analyze(g, rotation_cap=cap).ge_max_exact is None
    refusal = "^479001626 cyclic orders to list exceed the limit of 1000000$"
    stages = [
        lambda: ge_max_exact(g, cap),
        lambda: boundary_profile(g, cap),
        lambda: list(enumerate_rotations(g, cap)),
        lambda: oracle(g, rotation_cap=cap),
    ]
    for stage in stages:
        with pytest.raises(CapExceededError, match=refusal):
            stage()
    # a 10-dart hub has 9! orders, within the limit, and an 11-dart one 10!
    assert rotation.refusal(wheel(10), 10**21) is None
    assert str(rotation.refusal(wheel(11), 10**21)).startswith("3628822 cyclic orders ")


def test_the_orders_limit_admits_a_graph_exactly_at_it(k4, k5, monkeypatch):
    # K4 lists 4 * 2! = 8 orders, K5 5 * 3! = 30, whatever the cap
    monkeypatch.setattr(rotation, "DEFAULT_ROTATION_CAP", 8)
    assert rotation.refusal(k4, 10**6) is None
    assert boundary_profile(k4, 10**6) == PROFILES["k4"]
    assert str(rotation.refusal(k4, 15)) == "16 rotation systems exceed the cap of 15"
    with pytest.raises(CapExceededError, match="^30 cyclic orders to list exceed the limit of 8$"):
        boundary_profile(k5, 10**6)
    monkeypatch.setattr(rotation, "DEFAULT_ROTATION_CAP", 7)
    refusal = rotation.refusal(k4, 10**6)
    assert str(refusal) == "8 cyclic orders to list exceed the limit of 7"
    # the cyclic orders are asked first: where both refuse, they are named
    assert str(rotation.refusal(k4, 15)) == str(refusal)
