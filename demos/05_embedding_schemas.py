# Embedding schemas: assembling, capping, verifying, serializing.
#
# Two constructions are available.  The naive one thickens every edge,
# fills every waist with a one-holed torus, and lands on genus |E| + beta
# regardless of the rotation.  The rotation-respecting one builds the
# bordered surface the fat graph retracts onto, then caps its boundary
# walks with chi = -1 pieces; starting from a minimum-walk rotation the
# closed genus is the essential genus, and one cap can be upgraded to hit
# any larger genus exactly.

from pathlib import Path

from ribbon_embed import (
    assemble_sigma_surface,
    cap_standard,
    cap_target_genus,
    minimize_boundaries,
    naive_embedding,
    parse_graph,
    schema_from_json,
    schema_to_json,
    verify_schema,
)

HERE = Path(__file__).parent
k4 = parse_graph((HERE / "graphs" / "k4.graph").read_text())

naive = naive_embedding(k4)
print("naive k4:", naive.summary)
print("  blocks:", {b["kind"] for b in naive.blocks})

res = minimize_boundaries(k4, restarts=4)
assert res.certified  # the capping below takes its walk count as the minimum
bordered = assemble_sigma_surface(k4, res.rotation)
print("bordered k4:", bordered.summary)

closed = cap_standard(bordered)
print("capped k4:", closed.summary, " (the essential genus)")

bigger = cap_target_genus(bordered, 6, res.boundary_count)
print("target 6:", bigger.summary)

# Verification re-derives from the graph, the rotation and the margin:
# block shapes, gluing length matches, chi additivity, the scale t, the
# vertex feet and clearances, each waist against its cuff distance, the
# block payload numbers, the walk labels and the construction name.  The
# reader checks the graph hash and f_min, and a disconnected graph fails.
for schema in (naive, bordered, closed, bigger):
    diag = verify_schema(schema)
    print("verify:", schema.summary.construction, "->", "ok" if diag.ok else diag.errors)

# Schemas serialize to JSON and back without loss.
text = schema_to_json(closed)
assert schema_to_json(schema_from_json(text)) == text
print()
print("schema JSON is", len(text), "bytes; first lines:")
print("\n".join(text.splitlines()[:14]))

# Tampering is caught.  Bump one waist length in the document and the
# verifier points straight at it.
import json

doc = json.loads(text)
for block in doc["blocks"]:
    if block["kind"] == "edge_pants":
        block["boundaries"][2]["length"] += 0.001
        break
tampered = schema_from_json(json.dumps(doc))
print()
print("after tampering:")
for err in verify_schema(tampered).errors[:3]:
    print("  fail:", err)
