import math

import pytest

from ribbon_embed import (
    F_MIN,
    choose_scale,
    f_inv,
    foot_length,
    parse_graph,
    waist_distance,
)

# Constants below were frozen from a 30-digit arbitrary-precision
# evaluation of the closed forms; asserted to 1e-9 here, well beyond the
# float64 error of the implementation.


def test_f_min_value():
    assert F_MIN == pytest.approx(2.813658227498, abs=1e-9)


def test_waist_distance_values():
    assert waist_distance(1.0) == pytest.approx(3.029284416203, abs=1e-9)
    # limit x -> 0 recovers the infimum
    assert waist_distance(1e-9) == pytest.approx(F_MIN, abs=1e-6)


def test_waist_distance_monotone():
    xs = [0.1 * k for k in range(1, 120)]
    vals = [waist_distance(x) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_f_inv_value():
    assert f_inv(2.913660) == pytest.approx(0.675931504066, abs=1e-9)


def test_round_trip():
    for k in range(1000):
        x = 1e-6 + k * (20.0 / 999)
        assert f_inv(waist_distance(x)) == pytest.approx(x, abs=1e-9)


def test_waist_distance_cosh_identity():
    # cosh(f(x)) * sinh^2(1/2) - cosh^2(1/2) == cosh(x), directly
    for x in (0.3, 1.0, 2.5, 7.0):
        lhs = math.cosh(waist_distance(x)) * math.sinh(0.5) ** 2 - math.cosh(0.5) ** 2
        assert lhs == pytest.approx(math.cosh(x), rel=1e-12)


def test_domain_errors():
    with pytest.raises(ValueError):
        waist_distance(0.0)
    with pytest.raises(ValueError):
        waist_distance(-1.0)
    with pytest.raises(ValueError):
        f_inv(F_MIN)
    with pytest.raises(ValueError):
        f_inv(1.0)
    with pytest.raises(ValueError):
        foot_length(2)


def test_foot_length_values():
    assert foot_length(3) == pytest.approx(2.356539756815, abs=1e-9)
    assert foot_length(4) == pytest.approx(2.528272430436, abs=1e-9)
    # grows with degree: wider cone needs a longer foot
    feet = [foot_length(d) for d in range(3, 12)]
    assert all(b > a for a, b in zip(feet, feet[1:]))


def test_edge_clearance(theta, bouquet2):
    assert choose_scale(theta).clearance[0] == pytest.approx(2 * foot_length(3), abs=1e-12)
    # a loop pays the foot of its single degree-4 vertex twice
    assert choose_scale(bouquet2).clearance[0] == pytest.approx(
        2 * foot_length(4), abs=1e-12
    )
    assert 2 * foot_length(4) == pytest.approx(5.056544860872, abs=1e-9)


def test_choose_scale_theta(theta):
    scale = choose_scale(theta, margin=0.1)
    assert scale.t == pytest.approx(7.626737741125, abs=1e-9)
    for e in range(3):
        assert scale.clearance[e] == pytest.approx(4.713079513630, abs=1e-9)
        assert scale.waist[e] == pytest.approx(0.675925436487, abs=1e-9)
    # the binding edge has exactly the margin to spare
    slack = min(
        scale.t * theta.lengths[e] - scale.clearance[e] - F_MIN for e in range(3)
    )
    assert slack == pytest.approx(0.1, abs=1e-9)


def test_choose_scale_every_edge_feasible(k4, k5, bouquet2, dumbbell):
    for g in (k4, k5, bouquet2, dumbbell):
        scale = choose_scale(g, margin=0.05)
        for e in range(g.edge_count):
            gap = scale.t * g.lengths[e] - scale.clearance[e]
            assert gap >= F_MIN + 0.05 - 1e-12
            assert waist_distance(scale.waist[e]) == pytest.approx(gap, abs=1e-9)


def test_choose_scale_margin_positive(theta):
    with pytest.raises(ValueError):
        choose_scale(theta, margin=0.0)
    with pytest.raises(ValueError):
        choose_scale(theta, margin=-0.5)


@pytest.mark.parametrize(
    ("length", "margin", "message"),
    [
        ("1e-320", 0.1, "edge eee"),
        ("1", 1e-300, "margin 1e-300 is too small: in double precision it leaves edge eee"),
        ("1", 1e308, "margin 1e+308 gives edge eee"),
    ],
    ids=["scale", "gap", "waist"],
)
def test_choose_scale_cuts_the_edge_names_it_quotes(length, margin, message):
    # a name of any length that parse_graph accepts was quoted whole
    name = "e" * 100_000
    theta = parse_graph(f"edge {name} u v {length}\nedge b u v 1\nedge c u v 1")
    with pytest.raises(ValueError) as exc:
        choose_scale(theta, margin)
    assert str(exc.value).startswith(message)
    assert len(str(exc.value)) <= 200


def test_scale_respects_uneven_lengths():
    g = parse_graph("edge a u v 0.5\nedge b u v 1.0\nedge c u v 8.0")
    scale = choose_scale(g)
    # the shortest edge binds
    assert scale.t * 0.5 == pytest.approx(scale.clearance[0] + F_MIN + 0.1, abs=1e-9)
    assert scale.waist[2] > scale.waist[0]
