"""Acceptance gate: ten criteria, one test per criterion.

Each test prints one PASS line on success; pytest -v therefore shows one
pass/fail line per criterion.  Expected values were derived by independent
oracles before the package existed (exhaustive enumeration for the
combinatorics, 30-digit arbitrary-precision evaluation of the closed forms
for the numerics) and are frozen here as literals.
"""

from fractions import Fraction

import pytest

from ribbon_embed import (
    F_MIN,
    analyze,
    betti,
    betti_deficiency,
    boundary_count,
    boundary_profile,
    capped_genus,
    count_rotations,
    default_rotation,
    enumerate_rotations,
    essential_genus,
    euler_char,
    f_inv,
    foot_length,
    ge_max_bound,
    ge_max_exact,
    minimize_boundaries,
    naive_embedding,
    reduce_move,
    schema_from_json,
    smooth,
    subdivide,
    verify_schema,
    vertex_boundary_incidence,
    waist_distance,
)
from ribbon_embed.cli import main as cli_main

from conftest import THETA
from helpers import random_multigraph


@pytest.fixture(scope="module")
def fixtures(theta, bouquet2, k4, k5):
    return {"theta": theta, "bouquet2": bouquet2, "k4": k4, "k5": k5}


def test_criterion_01_min_boundaries_equal_one_plus_zeta(fixtures):
    """Exhaustive min boundary count equals 1 + zeta on all four graphs."""
    expected = {"theta": 1, "bouquet2": 1, "k4": 2, "k5": 1}
    for name, g in fixtures.items():
        profile = boundary_profile(g, 10**6)
        z = betti_deficiency(g)
        assert min(profile) == 1 + z == expected[name], name
    print("ACCEPTANCE 1 PASS: min #walks = 1 + zeta (1, 1, 2, 1) on all four graphs")


def test_criterion_02_walk_count_parity(fixtures):
    """Every rotation of each graph yields the same walk-count parity."""
    for name, g in fixtures.items():
        profile = boundary_profile(g, 10**6)
        parities = {(b - euler_char(g)) % 2 for b in profile}
        assert parities == {0}, name
    print("ACCEPTANCE 2 PASS: walk counts share one parity on all four graphs")


def test_criterion_03_essential_genus(fixtures):
    """essential_genus matches the min over rotations of the capped genus."""
    expected = {"theta": 2, "bouquet2": 2, "k4": 3, "k5": 4}
    for name, g in fixtures.items():
        brute = min(capped_genus(g, b) for b in boundary_profile(g, 10**6))
        assert essential_genus(g) == brute == expected[name], name
    print("ACCEPTANCE 3 PASS: essential genus (2, 2, 3, 4) matches brute force")


def test_criterion_04_adversarial_genus_and_girth_bound(fixtures):
    """ge_max_exact values and the girth bound (beta+1)/2 + |E|/girth."""
    assert ge_max_exact(fixtures["theta"]) == 2
    assert ge_max_exact(fixtures["k4"]) == 3
    assert ge_max_exact(fixtures["k5"]) == 5
    bounds = {
        "theta": Fraction(3),
        "bouquet2": Fraction(7, 2),
        "k4": Fraction(4),
        "k5": Fraction(41, 6),
    }
    for name, g in fixtures.items():
        assert ge_max_bound(g) == bounds[name], name
        assert ge_max_exact(g) <= bounds[name], name
    print("ACCEPTANCE 4 PASS: adversarial genus (2, 3, 5) within girth bounds (3, 4, 41/6)")


def _sweep_moves(g, rotations):
    cases = 0
    for rot in rotations:
        base = boundary_count(g, rot)
        incidence = vertex_boundary_incidence(g, rot)
        for v in range(g.vertex_count):
            if incidence[v] >= 3:
                new_rot, record = reduce_move(g, rot, v)
                assert boundary_count(g, new_rot) == base - 2
                assert record.boundary_delta == -2
                cases += 1
    return cases


def test_criterion_05_move_soundness(fixtures):
    """Wherever a vertex meets >= 3 walks, a -2 move exists; delta recounted."""
    cases = 0
    for g in fixtures.values():
        cases += _sweep_moves(g, enumerate_rotations(g, 10**6))
    for seed in range(50):
        g = random_multigraph(seed)
        if count_rotations(g) <= 1500:
            rotations = list(enumerate_rotations(g, 10**6))
        else:
            rotations = [default_rotation(g, 977 * k + seed + 1) for k in range(25)]
        cases += _sweep_moves(g, rotations)
    assert cases > 5000
    print(f"ACCEPTANCE 5 PASS: {cases} reducing moves, every recounted delta exactly -2")


def test_criterion_06_driver_reaches_minimum_from_every_start(fixtures):
    """minimize_boundaries attains 1 + zeta from every enumerated start."""
    greedy_stalls = 0
    for name, g in fixtures.items():
        target = 1 + betti_deficiency(g)
        for rot in enumerate_rotations(g, 10**6):
            res = minimize_boundaries(g, start=rot, restarts=3)
            assert res.boundary_count == target, name
            assert res.certified, name
            if res.greedy_count != target:
                greedy_stalls += 1
                # a stall must be visible in the result, never silent
                assert res.restarts_used > 0 or res.certificate == "dp"
    print(
        "ACCEPTANCE 6 PASS: driver reaches 1 + zeta from all starts "
        f"({greedy_stalls} greedy stalls, all surfaced)"
    )


def test_criterion_07_hyperbolic_numerics():
    """Closed-form constants to 1e-6; inversion to 1e-9 on a grid up to 2000.

    The three decimal literals come from re-evaluating the closed forms at
    30-digit precision, not from any lower-precision tabulation.
    """
    assert abs(F_MIN - 2.813658227498) <= 1e-6
    assert abs(foot_length(3) - 2.356539756815) <= 1e-6
    assert abs(foot_length(4) - 2.528272430436) <= 1e-6
    lo = F_MIN + 1e-6
    grid = [lo + k * (20.0 - lo) / 999 for k in range(1000)]
    # on past the point where cosh overflows, through the log-domain switch
    grid += [20.0 + k * (1980.0 / 999) for k in range(1, 1000)]
    grid += [700.0 + k / 64 for k in range(-128, 129)]
    prev = None
    for L in sorted(grid):
        assert abs(waist_distance(f_inv(L)) - L) <= 1e-9
        x = f_inv(L)
        if prev is not None:
            assert x > prev
        prev = x
    print("ACCEPTANCE 7 PASS: constants to 1e-6, round trip to 1e-9 on 2256 grid points up to 2000")


def test_criterion_08_naive_construction_identities(fixtures):
    """Naive genus |E| + beta and handshake identity, zero diagnostics."""
    expected = {"theta": 5, "k4": 9, "bouquet2": 4, "k5": 16}
    for name, g in fixtures.items():
        schema = naive_embedding(g)
        assert schema.summary.genus == g.edge_count + betti(g) == expected[name]
        handshake = sum(g.degree(v) - 2 for v in range(g.vertex_count))
        assert 2 * schema.summary.genus - 2 == handshake + 2 * g.edge_count
        diag = verify_schema(schema)
        assert diag.errors == () and diag.notes == (), name
    print("ACCEPTANCE 8 PASS: naive genus (5, 4, 9, 16) verified with zero diagnostics")


def test_criterion_09_cli_target_genus(tmp_path, capsys):
    """CLI emits a verified closed schema of each requested genus for theta."""
    path = tmp_path / "theta.graph"
    path.write_text(THETA)
    for g in (2, 3, 4, 5):
        rc = cli_main(["embed", str(path), "--target", f"genus={g}"])
        out = capsys.readouterr().out
        assert rc == 0, g
        schema = schema_from_json(out)
        assert schema.summary.genus == g
        assert schema.summary.boundary_count == 0
        assert schema.summary.minimal is (g == 2)
        assert verify_schema(schema).ok
    print("ACCEPTANCE 9 PASS: CLI genus targets 2..5 all emit verified schemas")


def test_criterion_10_smoothing_invariance(k4):
    """20 random subdivisions of K4: smoothing recovers lengths and report."""
    import random

    base_report = analyze(k4)
    base_edges = sorted(
        (k4.vertex_names[k4.endpoints(e)[0]], k4.vertex_names[k4.endpoints(e)[1]],
         round(k4.lengths[e], 9))
        for e in range(k4.edge_count)
    )
    rng = random.Random(20260817)
    for trial in range(20):
        g = k4
        for _ in range(rng.randint(1, 4)):
            edge = rng.randrange(g.edge_count)
            cuts = sorted({round(rng.uniform(0.1, 0.9), 3) for _ in range(rng.randint(1, 3))})
            g = subdivide(g, edge, cuts)
        back = smooth(g)
        got_edges = sorted(
            (back.vertex_names[back.endpoints(e)[0]],
             back.vertex_names[back.endpoints(e)[1]],
             round(back.lengths[e], 9))
            for e in range(back.edge_count)
        )
        # endpoint names survive smoothing; merged edge names differ, so
        # compare the metric content and the full invariant report
        assert [(u, v, l) for u, v, l in got_edges] == base_edges, trial
        assert analyze(g) == base_report, trial
        assert essential_genus(g) == 3
    print("ACCEPTANCE 10 PASS: 20 subdivisions of K4 smooth back to identical reports")
