import json
import math
import random
import struct
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from ribbon_embed import (
    F_MIN,
    CycleGraphError,
    GraphValidationError,
    SchemaFormatError,
    Summary,
    TargetGenusError,
    assemble_sigma_surface,
    cap_standard,
    cap_target_genus,
    capped_genus,
    default_rotation,
    graph_hash,
    make_rotation,
    maximize_boundaries,
    minimize_boundaries,
    naive_embedding,
    parse_graph,
    schema_from_json,
    schema_to_json,
    verify_schema,
)
from ribbon_embed.assembly import _close, _stored
from ribbon_embed.rotation import rotation_to_lines

from helpers import random_multigraph, two_thetas, two_thetas_schema


def kinds(schema):
    out = {}
    for b in schema.blocks:
        out[b["kind"]] = out.get(b["kind"], 0) + 1
    return out


# ---------------------------------------------------------------- naive

def test_naive_theta(theta):
    schema = naive_embedding(theta)
    assert kinds(schema) == {"vertex_sphere": 2, "edge_pants": 3, "cap_torus": 3}
    assert schema.summary == Summary(5, 0, False, "naive")
    assert all(b["layer"] == "surface" for b in schema.blocks)
    diag = verify_schema(schema)
    assert diag.ok, diag.errors


def test_naive_k4(k4):
    schema = naive_embedding(k4)
    assert schema.summary.genus == 9
    assert verify_schema(schema).ok


def test_naive_bouquet2(bouquet2):
    schema = naive_embedding(bouquet2)
    assert schema.summary.genus == 4
    assert verify_schema(schema).ok


def test_naive_rotation_independent(theta):
    for seed in range(4):
        schema = naive_embedding(theta, rotation=default_rotation(theta, seed))
        assert schema.summary.genus == 5
        assert verify_schema(schema).ok


def test_naive_rejects_cycle_and_low_degree():
    with pytest.raises(CycleGraphError):
        naive_embedding(parse_graph("edge a u v 1.0\nedge b v u 1.0"))
    with pytest.raises(GraphValidationError):
        naive_embedding(parse_graph("edge a u v 1.0\nedge b u v 1.0\nedge c v w 1.0\nedge d w u 1.0"))


# ---------------------------------------------------------------- sigma

def test_sigma_theta_minimal(theta):
    res = minimize_boundaries(theta, restarts=2)
    schema = assemble_sigma_surface(theta, res.rotation)
    assert schema.summary == Summary(1, 1, None, "sigma")
    spine = next(b for b in schema.blocks if b["kind"] == "spine_surface")
    assert spine["genus"] == 1
    assert [b["label"] for b in spine["boundaries"]] == ["w0"]
    assert spine["boundaries"][0]["length"] == "sym:w0"
    # construction blocks are the recipe, not part of the counted surface
    assert all(
        b["layer"] == "construction" for b in schema.blocks if b["kind"] != "spine_surface"
    )
    diag = verify_schema(schema)
    assert diag.ok, diag.errors


def test_sigma_theta_maximal(theta):
    rot = make_rotation(theta, [(0, 4, 2), (1, 3, 5)])
    schema = assemble_sigma_surface(theta, rot)
    assert schema.summary.genus == 0
    assert schema.summary.boundary_count == 3
    assert verify_schema(schema).ok


def test_sigma_k5(k5):
    res = minimize_boundaries(k5, restarts=2)
    schema = assemble_sigma_surface(k5, res.rotation)
    assert (schema.summary.genus, schema.summary.boundary_count) == (3, 1)
    assert verify_schema(schema).ok


# ---------------------------------------------------------------- caps

def test_cap_standard_theta(theta):
    res = minimize_boundaries(theta, restarts=2)
    bordered = assemble_sigma_surface(theta, res.rotation)
    closed = cap_standard(bordered)
    assert closed.summary == Summary(2, 0, True, "sigma")
    assert kinds(closed)["cap_torus"] == 1
    assert verify_schema(closed).ok


def test_cap_standard_three_boundaries(dumbbell):
    # dumbbell minimum is 3 walks: one three-holed cap, no torus
    res = minimize_boundaries(dumbbell, restarts=2)
    assert res.boundary_count == 3
    closed = cap_standard(assemble_sigma_surface(dumbbell, res.rotation))
    assert kinds(closed).get("cap_pants") == 1
    assert "cap_torus" not in kinds(closed)
    assert closed.summary.genus == 2
    assert verify_schema(closed).ok


def test_cap_standard_mixed(k4):
    # K4 minimum is 2 walks: two torus caps
    res = minimize_boundaries(k4, restarts=2)
    closed = cap_standard(assemble_sigma_surface(k4, res.rotation))
    assert kinds(closed)["cap_torus"] == 2
    assert closed.summary.genus == 3
    assert verify_schema(closed).ok


def test_cap_standard_requires_bordered(theta):
    with pytest.raises(ValueError):
        cap_standard(naive_embedding(theta))


def test_capping_refuses_a_closed_or_spineless_schema(theta):
    with pytest.raises(ValueError, match="^schema is already closed; nothing to cap$"):
        cap_target_genus(naive_embedding(theta), 2, 1)
    bordered = assemble_sigma_surface(theta, default_rotation(theta, 0))
    spineless = replace(  # bordered, but not by the spine construction
        bordered, blocks=tuple(b for b in bordered.blocks if b["kind"] != "spine_surface")
    )
    with pytest.raises(ValueError, match="^capping applies to the bordered spine construction$"):
        cap_standard(spineless)


def _minimal_bordered(graph):
    """The bordered schema of a certified minimum and its walk count."""
    res = minimize_boundaries(graph, restarts=2)
    assert res.certified
    return assemble_sigma_surface(graph, res.rotation), res.boundary_count


def test_cap_target_equals_essential(theta):
    bordered, minimum = _minimal_bordered(theta)
    assert cap_target_genus(bordered, 2, minimum) == cap_standard(bordered)


def test_cap_target_above_torus_upgrade(theta):
    bordered, minimum = _minimal_bordered(theta)
    schema = cap_target_genus(bordered, 4, minimum)
    assert schema.summary == Summary(4, 0, False, "sigma_target(4)")
    caps = [b for b in schema.blocks if b["kind"] == "cap_surface"]
    assert len(caps) == 1
    assert caps[0]["genus"] == 3 and len(caps[0]["boundaries"]) == 1
    diag = verify_schema(schema)
    assert diag.ok, diag.errors
    assert any("non-minimal cap" in n for n in diag.notes)


def test_cap_target_above_pants_upgrade(dumbbell):
    # three boundaries: the upgrade lands on the three-holed cap
    bordered, minimum = _minimal_bordered(dumbbell)
    schema = cap_target_genus(bordered, 5, minimum)
    caps = [b for b in schema.blocks if b["kind"] == "cap_surface"]
    assert len(caps) == 1
    assert caps[0]["genus"] == 3 and len(caps[0]["boundaries"]) == 3
    assert schema.summary.genus == 5
    assert verify_schema(schema).ok


def test_extra_genus_goes_to_one_cap_of_the_standard_layout(theta, k4, k5):
    # b = 1 .. 5 walks: the first torus cap, cap:q, takes the extra genus,
    # or with no torus the first three-holed cap, cap:0; nothing else moves
    rotations = [minimize_boundaries(g, restarts=2).rotation for g in (theta, k4)]
    rotations += [maximize_boundaries(g, restarts=2).rotation for g in (theta, k4, k5)]
    seen = set()
    for g, rot in zip((theta, k4, theta, k4, k5), rotations):
        bordered = assemble_sigma_surface(g, rot)
        b = bordered.summary.boundary_count
        seen.add(b)
        standard = _close(bordered, 0)
        assert standard == cap_standard(bordered)
        upgraded = _close(bordered, 2)
        q, r = divmod(b, 3)
        target = f"cap:{q if r else 0}"
        assert [blk["id"] for blk in upgraded.blocks] == [blk["id"] for blk in standard.blocks]
        for new, old in zip(upgraded.blocks, standard.blocks):
            if new["id"] == target:
                assert new == {**old, "kind": "cap_surface", "genus": old["genus"] + 2}
            else:
                assert new == old
        assert upgraded.gluings == standard.gluings
        genus = standard.summary.genus + 2
        assert upgraded.summary == Summary(genus, 0, False, f"sigma_target({genus})")
        assert verify_schema(upgraded).ok
    assert seen == {1, 2, 3, 4, 5}


def test_cap_target_below_essential(theta):
    bordered, minimum = _minimal_bordered(theta)
    with pytest.raises(TargetGenusError):
        cap_target_genus(bordered, 1, minimum)


def test_cap_target_needs_minimal_boundary_surface(theta):
    rot = make_rotation(theta, [(0, 4, 2), (1, 3, 5)])  # 3 walks, not 1
    bordered = assemble_sigma_surface(theta, rot)
    minimum = _minimal_bordered(theta)[1]
    with pytest.raises(ValueError, match="minimal-boundary"):
        cap_target_genus(bordered, 5, minimum)


# ------------------------------------------------------- corruption

@pytest.fixture()
def closed_theta(theta):
    res = minimize_boundaries(theta, restarts=2)
    return cap_standard(assemble_sigma_surface(theta, res.rotation))


def _swap_block(schema, block_id, **changes):
    # a copy of the record: the schemas a builder returns share theirs
    blocks = tuple(
        {**b, **changes} if b["id"] == block_id else b for b in schema.blocks
    )
    return replace(schema, blocks=blocks)


def test_detects_perturbed_waist(closed_theta):
    pants = next(b for b in closed_theta.blocks if b["kind"] == "edge_pants")
    bad_bounds = [
        {**bd, "length": bd["length"] + 1e-3} if bd["label"] == "waist" else bd
        for bd in pants["boundaries"]
    ]
    bad = _swap_block(closed_theta, pants["id"], boundaries=bad_bounds)
    diag = verify_schema(bad)
    assert not diag.ok
    assert any("waist" in e for e in diag.errors)


def test_detects_deleted_gluing(closed_theta):
    bad = replace(closed_theta, gluings=closed_theta.gluings[:-1])
    diag = verify_schema(bad)
    assert not diag.ok


def test_detects_wrong_spine_genus(closed_theta):
    bad = _swap_block(closed_theta, "spine", genus=2)
    diag = verify_schema(bad)
    assert not diag.ok
    assert any("chi" in e for e in diag.errors)


def test_detects_wrong_summary_genus(closed_theta):
    bad = replace(closed_theta, summary=replace(closed_theta.summary, genus=3))
    diag = verify_schema(bad)
    assert not diag.ok
    assert any("chi additivity" in e for e in diag.errors)


def test_detects_nonzero_twist(closed_theta):
    g0 = closed_theta.gluings[0]
    bad = replace(
        closed_theta, gluings=({**g0, "twist": 0.25},) + closed_theta.gluings[1:]
    )
    assert not verify_schema(bad).ok


def test_detects_double_gluing(closed_theta):
    extra = {"a": closed_theta.gluings[0]["a"], "b": ["spine", "w0"], "twist": 0.0}
    bad = replace(closed_theta, gluings=closed_theta.gluings + (extra,))
    assert not verify_schema(bad).ok


def test_detects_dangling_gluing(closed_theta):
    extra = {"a": ["pants:a", "waist"], "b": ["nowhere", "b0"], "twist": 0.0}
    bad = replace(closed_theta, gluings=closed_theta.gluings + (extra,))
    diag = verify_schema(bad)
    assert any("missing boundary" in e for e in diag.errors)


def test_detects_rotation_disagreement(theta, closed_theta):
    other = make_rotation(theta, [(0, 4, 2), (1, 3, 5)])
    bad = replace(closed_theta, rotation=other)
    diag = verify_schema(bad)
    assert not diag.ok


def test_detects_false_minimal_claim_on_naive(theta):
    schema = naive_embedding(theta)
    bad = replace(schema, summary=replace(schema.summary, minimal=True))
    diag = verify_schema(bad)
    assert any("minimal" in e for e in diag.errors)


def test_detects_wrong_naive_genus(theta):
    schema = naive_embedding(theta)
    bad = replace(schema, summary=replace(schema.summary, genus=schema.summary.genus + 1))
    diag = verify_schema(bad)
    assert "naive genus 6, expected |E| + beta = 5" in diag.errors


def test_detects_scale_tampering(closed_theta):
    waist = dict(closed_theta.scale.waist)
    waist[0] += 1e-3
    bad = replace(closed_theta, scale=replace(closed_theta.scale, waist=waist))
    assert not verify_schema(bad).ok


def test_detects_a_disconnected_graph():
    # capped, it is two closed genus-2 surfaces, not one of genus 3; every
    # other check passes, so the schema verified ok
    schema = two_thetas_schema()
    for diag in (verify_schema(schema), verify_schema(schema_from_json(schema_to_json(schema)))):
        assert diag.errors == ("graph is not connected",)


def test_schema_builders_refuse_a_disconnected_graph():
    # both built a schema that verify_schema then failed
    graph = two_thetas()
    with pytest.raises(GraphValidationError, match="graph is not connected"):
        assemble_sigma_surface(graph, default_rotation(graph, 0))
    with pytest.raises(GraphValidationError, match="graph is not connected"):
        naive_embedding(graph)


def test_schema_builders_cut_the_names_they_list():
    # a name of any length that parse_graph accepts: a 100,000-character
    # degree-1 vertex was listed whole
    text = "edge a u v 1\nedge b u v 1\nedge c u v 1\nedge d u " + "w" * 100_000 + " 1"
    graph = parse_graph(text)
    with pytest.raises(GraphValidationError, match="offending vertices: www") as exc:
        naive_embedding(graph)
    assert len(str(exc.value)) <= 200


# ------------------------------------------------------------ JSON

def test_json_round_trip_everywhere(theta, k4, dumbbell):
    schemas = []
    schemas.append(naive_embedding(theta))
    for g in (theta, k4, dumbbell):
        res = minimize_boundaries(g, restarts=2)
        bordered = assemble_sigma_surface(g, res.rotation)
        schemas.append(bordered)
        schemas.append(cap_standard(bordered))
    bordered, minimum = _minimal_bordered(theta)
    schemas.append(cap_target_genus(bordered, 3, minimum))
    for schema in schemas:
        text = schema_to_json(schema)
        back = schema_from_json(text)
        assert schema_to_json(back) == text
        assert graph_hash(back.graph) == graph_hash(schema.graph)
        assert back.summary == schema.summary
        assert verify_schema(back).ok == verify_schema(schema).ok


def test_schema_records_are_the_documents_own(theta):
    # the reader hands back the blocks and gluings json.loads builds, and
    # the builders write records with the same keys, in the same order
    demos = Path(__file__).resolve().parent.parent / "demos" / "graphs"
    for path in sorted(demos.glob("*.graph")):
        graph = parse_graph(path.read_text())
        for schema in (naive_embedding(graph), *_every_target(graph)):
            text = schema_to_json(schema)
            doc, back = json.loads(text), schema_from_json(text)
            assert list(back.blocks) == doc["blocks"]
            assert list(back.gluings) == doc["gluings"]
            for built, read in ((schema.blocks, back.blocks), (schema.gluings, back.gluings)):
                assert [list(r) for r in built] == [list(r) for r in read]
    # a document without payloads or twists reads them as {} and 0.0
    doc = json.loads(schema_to_json(naive_embedding(theta)))
    for record in doc["blocks"] + doc["gluings"]:
        record.pop("payload", None), record.pop("twist", None)
    back = schema_from_json(json.dumps(doc))
    assert '"payload": {}' in schema_to_json(back)
    assert schema_to_json(back).count('"twist": 0.0') == len(doc["gluings"])


def _reference_json(schema):
    """The schema document as ``json.dumps(indent=2)`` writes it, from the
    nested dicts and lists the writer's byte contract names."""
    graph, scale = schema.graph, schema.scale

    def r12(x):
        return float(f"{x:.12g}")

    doc = {
        "schema_version": 1,
        "meta": {
            "graph": {
                "hash": graph_hash(graph),
                "edges": [
                    [
                        graph.edge_names[e],
                        graph.vertex_names[graph.endpoints(e)[0]],
                        graph.vertex_names[graph.endpoints(e)[1]],
                        r12(graph.lengths[e]),
                    ]
                    for e in range(graph.edge_count)
                ],
            },
            "t": r12(scale.t),
            "margin": r12(scale.margin),
            "f_min": r12(F_MIN),
            "foot": {graph.vertex_names[v]: r12(x) for v, x in sorted(scale.foot.items())},
            "clearance": {graph.edge_names[e]: r12(x) for e, x in sorted(scale.clearance.items())},
            "waist": {graph.edge_names[e]: r12(x) for e, x in sorted(scale.waist.items())},
            "rotation": rotation_to_lines(graph, schema.rotation),
        },
        "blocks": [
            {
                "id": b["id"],
                "kind": b["kind"],
                "genus": b["genus"],
                "layer": b["layer"],
                "boundaries": [
                    {
                        "label": bd["label"],
                        "length": (
                            bd["length"] if isinstance(bd["length"], str) else r12(bd["length"])
                        ),
                    }
                    for bd in b["boundaries"]
                ],
                "payload": b["payload"],
            }
            for b in schema.blocks
        ],
        "gluings": [
            {"a": list(g["a"]), "b": list(g["b"]), "twist": r12(g["twist"])}
            for g in schema.gluings
        ],
        "summary": {
            "genus": schema.summary.genus,
            "boundary_count": schema.summary.boundary_count,
            "minimal": schema.summary.minimal,
            "construction": schema.summary.construction,
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def _every_target(graph):
    """The bordered schema of the minimum, and its minimal, maximal and
    genus = g_e + 2 closings."""
    res = minimize_boundaries(graph, restarts=2)
    bordered = assemble_sigma_surface(graph, res.rotation)
    yield bordered
    yield cap_standard(bordered)
    yield cap_standard(assemble_sigma_surface(graph, maximize_boundaries(graph).rotation))
    if res.certified:
        g_e = capped_genus(graph, res.boundary_count)
        yield cap_target_genus(bordered, g_e + 2, res.boundary_count)


def _writer_cases():
    demos = Path(__file__).resolve().parent.parent / "demos" / "graphs"
    for path in sorted(demos.glob("*.graph")):
        yield from _every_target(parse_graph(path.read_text()))
    for seed in range(100):
        g = random_multigraph(seed)
        yield naive_embedding(g)
        yield cap_standard(assemble_sigma_surface(g, default_rotation(g, seed)))
    for length in (2.0, 93.77, 1000.0):
        yield from _every_target(parse_graph(f"edge a u v 1\nedge b u v 1\nedge c u v {length}"))
    bouquet3 = parse_graph("edge p w w 1\nedge q w w 2\nedge r w w 3")
    yield from _every_target(bouquet3)
    yield naive_embedding(bouquet3)
    accented = parse_graph("edge \u00e9 u v 1\nedge b u v 1\nedge \u00df u v 1.5")
    yield from _every_target(accented)
    yield naive_embedding(accented)
    # payloads a reader may hand back: fills of caps glued elsewhere, and
    # every other JSON value, empty containers and non-finite floats included
    closed = cap_standard(assemble_sigma_surface(bouquet3, default_rotation(bouquet3, 0)))
    odd = {
        "cap": {"fills": [None, "w0", None]},
        "spine": {
            "x": [math.nan, math.inf, -math.inf, 1e300, -0.0, True, False, None, 3, -7],
            "empty": [[], {}, ""],
            "nested": {"k": [{"a": [1, [2, [3]]]}], 7: "seven", 2.5: "two", True: "t", None: "n"},
        },
    }
    yield replace(
        closed,
        blocks=tuple(
            {**b, "payload": odd.get(b["kind"].split("_")[0], b["payload"])}
            for b in closed.blocks
        ),
    )


def test_schema_to_json_writes_what_json_dumps_writes():
    # the writer's byte contract, against the indented json.dumps it replaced
    cases = 0
    for schema in _writer_cases():
        text = schema_to_json(schema)
        assert text == _reference_json(schema), schema.graph.edge_names
        cases += 1
    assert cases >= 240
    accented = parse_graph("edge \u00e9 u v 1\nedge b u v 1\nedge c u v 1")
    text = schema_to_json(naive_embedding(accented))
    assert '"\\u00e9"' in text and "\u00e9" not in text


def test_schema_to_json_refuses_a_payload_json_cannot_hold(theta):
    # as json.dumps refuses it, rather than write some other text
    schema = naive_embedding(theta)
    odd = replace(schema, blocks=({**schema.blocks[0], "payload": {"x": {1, 2}}},))
    with pytest.raises(TypeError, match="^Object of type set is not JSON serializable$"):
        schema_to_json(odd)


def test_stored_float_is_json_dumps_of_the_rounded_float():
    # the writer formats each stored float once; a positional .12g text must
    # be exactly what json.dumps writes for the float it rounds to
    switches = [1e-5, 1e-4, 999999999999.5, 1e12, 1e15, 1e16, 1e17]
    cases = [0.0, 5e-324, sys.float_info.max, 1.0, 2.0, 7.0, 1e11, 123456789012.0]
    cases += [math.nan, math.inf, 274.000000001, 0.1, 1 / 3, 2.81365822749]
    for x in switches:
        cases += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
    rng = random.Random(17)
    bits = [rng.getrandbits(64).to_bytes(8, "little") for _ in range(10**5)]
    cases += [struct.unpack("<d", b)[0] for b in bits]
    for x in cases + [-x for x in cases]:
        assert _stored(x) == json.dumps(float(f"{x:.12g}")), x


def test_json_rejects_garbage():
    with pytest.raises(SchemaFormatError):
        schema_from_json("not json at all")
    with pytest.raises(SchemaFormatError):
        schema_from_json("{}")
    with pytest.raises(SchemaFormatError):
        schema_from_json('{"schema_version": 99}')


def test_json_rejects_truncated(theta):
    text = schema_to_json(naive_embedding(theta))
    broken = text[: len(text) // 2]
    with pytest.raises(SchemaFormatError):
        schema_from_json(broken)


def test_json_detects_edited_length(closed_theta):
    import json

    doc = json.loads(schema_to_json(closed_theta))
    for block in doc["blocks"]:
        if block["kind"] == "edge_pants":
            block["boundaries"][2]["length"] += 0.01
            break
    tampered = schema_from_json(json.dumps(doc))
    assert not verify_schema(tampered).ok
