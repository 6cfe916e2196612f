import math
import random

import pytest

from ribbon_embed import (
    CycleGraphError,
    GraphFormatError,
    GraphValidationError,
    MetricGraph,
    betti,
    connected_components,
    edge_of,
    euler_char,
    format_graph,
    girth,
    graph_hash,
    is_cycle_graph,
    mate,
    parse_graph,
    smooth,
    subdivide,
)

from conftest import THETA
from helpers import girth_per_edge, prism, random_multigraph


def test_dart_involutions():
    for e in range(50):
        assert mate(2 * e) == 2 * e + 1
        assert mate(2 * e + 1) == 2 * e
        assert edge_of(2 * e) == edge_of(2 * e + 1) == e
        assert mate(mate(2 * e)) == 2 * e


def test_parse_basic(theta):
    assert theta.vertex_count == 2
    assert theta.edge_count == 3
    assert theta.vertex_names == ("u", "v")
    assert theta.edge_names == ("a", "b", "c")
    assert theta.lengths == (1.0, 1.0, 1.0)
    assert theta.degree(0) == theta.degree(1) == 3
    assert theta.endpoints(0) == (0, 1)
    assert sum(theta.lengths) == pytest.approx(3.0)


def test_parse_loop(bouquet2):
    assert bouquet2.vertex_count == 1
    assert bouquet2.degree(0) == 4
    assert bouquet2.endpoints(0) == bouquet2.endpoints(1) == (0, 0)
    assert bouquet2.darts_at(0) == (0, 1, 2, 3)


def test_parse_comments_and_blank_lines():
    g = parse_graph("\n# leading comment\n\nedge a u v 2.5\nedge b u v 1.5 # trailing\n")
    assert g.edge_count == 2
    assert g.lengths == (2.5, 1.5)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("edge a u v", "line 1"),
        ("edge a u v one", "length"),
        ("edge a u v 0.0", "positive"),
        ("edge a u v -1", "positive"),
        ("edge a.b u v 1.0", "alphanumeric"),
        ("edge a u v 1.0\nedge a x y 1.0", "line 2"),
        ("vertex a u v 1.0", "line 1"),
    ],
)
def test_parse_rejects(text, fragment):
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(text)
    assert fragment in str(exc.value)


def test_parse_duplicate_edge_name_message():
    with pytest.raises(GraphFormatError, match="duplicate"):
        parse_graph("edge a u v 1.0\nedge a u v 1.0")


def test_parse_empty_rejected():
    with pytest.raises(GraphFormatError):
        parse_graph("# only a comment\n")


def test_parse_disconnected_rejected():
    with pytest.raises(GraphValidationError, match="connected"):
        parse_graph("edge a u u 1.0\nedge b w w 1.0\nedge c u u 1.0\nedge d w w 1.0")


def test_connected_components_direct(theta):
    assert connected_components(theta) == [[0, 1]]


def test_euler_and_betti(theta, bouquet2, k4, k5):
    assert (euler_char(theta), betti(theta)) == (-1, 2)
    assert (euler_char(bouquet2), betti(bouquet2)) == (-1, 2)
    assert (euler_char(k4), betti(k4)) == (-2, 3)
    assert (euler_char(k5), betti(k5)) == (-5, 6)


def test_girth(theta, bouquet2, k4, k5, dumbbell):
    assert girth(theta) == 2
    assert girth(bouquet2) == 1  # loops are 1-cycles
    assert girth(k4) == 3
    assert girth(k5) == 3
    assert girth(dumbbell) == 1
    # a parallel pair listed before a loop: the loop still wins
    pair_then_loop = parse_graph(
        "edge a x y 1.0\nedge b x y 1.0\nedge c x z 1.0\nedge l z z 1.0\nedge d y z 1.0\n"
    )
    assert girth(pair_then_loop) == 1
    tree = parse_graph("edge a u v 1.0\nedge b v w 1.0")
    assert girth(tree) == math.inf


def _stub_pairing(seed: int, n: int) -> MetricGraph:
    """A cubic multigraph on ``n`` vertices from one random stub pairing,
    loops, parallel pairs and several components allowed."""
    stubs = [v for v in range(n) for _ in range(3)]
    random.Random(seed).shuffle(stubs)
    return MetricGraph(
        tuple(stubs),
        (1.0,) * (3 * n // 2),
        tuple(f"e{i}" for i in range(3 * n // 2)),
        tuple(f"v{i}" for i in range(n)),
    )


def test_girth_matches_one_search_per_edge(k4, k5):
    graphs = [random_multigraph(seed) for seed in range(300)]
    graphs += [prism(rungs) for rungs in range(3, 31)]
    graphs += [_stub_pairing(seed, n) for seed in range(40) for n in (4, 8, 16, 30)]
    petersen = "".join(
        f"edge e{i} v{a} v{b} 1.0\n"
        for i, (a, b) in enumerate(
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6), (2, 7)]
            + [(3, 8), (4, 9), (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]
        )
    )
    heptagon = "".join(f"edge e{i} v{i} v{(i + 1) % 7} 1.0\n" for i in range(7))
    forest = "edge a u v 1.0\nedge b v w 1.0\nedge c v x 1.0\n"
    graphs += [k4, k5] + [parse_graph(text) for text in (petersen, heptagon, forest)]
    girths = [girth(g) for g in graphs]
    assert girths == [girth_per_edge(g) for g in graphs]
    assert set(girths) == {1, 2, 3, 4, 5, 7, math.inf}


def test_is_cycle_graph():
    assert is_cycle_graph(parse_graph("edge a u v 1.0\nedge b v u 2.0"))
    assert is_cycle_graph(parse_graph("edge a u u 1.0"))
    assert not is_cycle_graph(parse_graph(THETA))


def test_graph_hash_ignores_nothing(theta):
    # same text, same hash; any change to an edge length changes it
    again = parse_graph(THETA)
    assert graph_hash(theta) == graph_hash(again)
    other = parse_graph(THETA.replace("edge c u v 1.0", "edge c u v 1.5"))
    assert graph_hash(other) != graph_hash(theta)


def test_format_parse_round_trip(k4):
    assert graph_hash(parse_graph(format_graph(k4))) == graph_hash(k4)


def test_smooth_idempotent(theta, k4):
    assert smooth(theta) is theta
    assert smooth(k4) is k4


def test_smooth_merges_chain():
    # u -x- m -y- v plus two direct edges: degree-2 vertex m disappears
    g = parse_graph(
        "edge x u m 1.0\nedge y m v 2.0\nedge a u v 1.0\nedge b u v 1.0"
    )
    s = smooth(g)
    assert s.vertex_count == 2
    assert s.edge_count == 3
    merged = [e for e in range(3) if s.lengths[e] == pytest.approx(3.0)]
    assert len(merged) == 1
    assert "x" in s.edge_names[merged[0]] and "y" in s.edge_names[merged[0]]


def test_smooth_chain_into_loop():
    # triangle of degree-2 vertices hanging off one branch vertex
    g = parse_graph(
        "edge p u a 1.0\nedge q a b 1.0\nedge r b u 1.0\n"
        "edge s u u 4.0"
    )
    s = smooth(g)
    assert s.vertex_count == 1
    assert s.edge_count == 2
    assert sorted(s.lengths) == [3.0, 4.0]


def test_smooth_cycle_rejected():
    with pytest.raises(CycleGraphError):
        smooth(parse_graph("edge a u v 1.0\nedge b v w 1.0\nedge c w u 1.0"))


def test_smooth_degree_one_rejected():
    with pytest.raises(GraphValidationError, match="degree"):
        smooth(parse_graph("edge a u v 1.0\nedge b u v 1.0\nedge c u w 1.0"))


def test_smooth_numbers_vertices_by_first_mention_as_a_graph_file_does():
    # the branch vertices are u, v, w in id order, but the chain walked
    # first, from u through m, mentions w before v
    g = parse_graph("edge a u m 1.0\nedge c u v 1.0\nedge b m w 2.0\nedge d u v 1.0\n"
                    "edge e v w 1.0\nedge f w w 1.0")
    s = smooth(g)
    assert s.vertex_names == ("u", "w", "v")
    assert format_graph(s).splitlines() == [
        "edge ab u w 3", "edge c u v 1", "edge d u v 1", "edge e v w 1", "edge f w w 1"
    ]
    assert parse_graph(format_graph(s)) == s
    assert s._connected


def test_smooth_refuses_a_repeated_vertex_name():
    # records name vertices, so two vertices of one name would merge into
    # one; only a graph built in code can repeat a name
    g = MetricGraph((0, 1, 0, 1, 0, 2, 2, 1), (1.0,) * 4, tuple("abcd"), ("u", "v", "u"))
    message = "^vertex name u repeats; smoothing tells vertices apart by name$"
    with pytest.raises(GraphValidationError, match=message):
        smooth(g)


@pytest.mark.parametrize(
    "tables,message",
    [
        (((0, 1, 1), (1.0,), ("a",), ("u", "v")), "dart table size must be twice the edge count"),
        (((0, 1), (1.0,), ("a", "b"), ("u", "v")), "edge name count does not match edge count"),
        (((0, 2), (1.0,), ("a",), ("u", "v")), "dart endpoint out of range"),
        (((0, -1), (1.0,), ("a",), ("u", "v")), "dart endpoint out of range"),
    ],
    ids=["darts", "edge names", "past the last vertex", "negative"],
)
def test_the_constructor_refuses_tables_that_disagree(tables, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        MetricGraph(*tables)


def test_subdivide_preserves_length_and_smooths_back(theta):
    g = subdivide(theta, 1, [0.25, 0.5])
    assert g.vertex_count == 4
    assert g.edge_count == 5
    assert sum(g.lengths) == pytest.approx(sum(theta.lengths))
    back = smooth(g)
    key = lambda gr: sorted(
        (gr.vertex_names[gr.endpoints(e)[0]], gr.vertex_names[gr.endpoints(e)[1]],
         round(gr.lengths[e], 9))
        for e in range(gr.edge_count)
    )
    assert key(back) == key(theta)


def test_subdivide_rejects_bad_fractions(theta):
    for bad in ([0.0], [1.0], [0.5, 0.5], [0.7, 0.2], [-0.1]):
        with pytest.raises(ValueError):
            subdivide(theta, 0, bad)
    assert subdivide(theta, 0, []) is theta  # no fraction, no cut


def test_subdivide_name_collision():
    # new vertices and new edges take trailing x's while their names are
    # taken, so the file written for the result reads back as the same graph
    g = parse_graph("edge a u v 1.0\nedge am1 u v 1.0\nedge b u v 1.0")
    s = subdivide(g, 0, [0.5])
    assert len(set(s.vertex_names)) == s.vertex_count
    assert len(set(s.edge_names)) == s.edge_count
    g = parse_graph("edge a u am1 1.0\nedge as0 u v 1.0\nedge as1 u v 1.0\nedge as1x u v 1.0")
    s = subdivide(g, 0, [0.25, 0.5])
    assert s.vertex_names == ("u", "am1", "v", "am1x", "am2")
    assert s.edge_names == ("as0x", "as1xx", "as2", "as0", "as1", "as1x")
    text = format_graph(s)
    assert format_graph(parse_graph(text)) == text
