"""Embedding schemas: hyperbolic block decompositions with verified bookkeeping.

A schema carries two kinds of blocks, distinguished by ``layer``:

* ``surface`` blocks tile the surface the schema denotes.  Euler
  characteristic is additive over them and must match
  ``2 - 2 genus - boundary_count`` of the summary.
* ``construction`` blocks are the build recipe that realizes the graph
  inside a surface: one sphere per vertex with a unit cuff per dart, in
  rotation order, and one pants per edge whose two unit cuffs glue to the
  endpoint spheres.  For the naive closed surface these blocks ARE the
  surface, so they are marked ``surface`` there.  For the rotation-respecting
  bordered surface they are kept as the recipe only: the denoted surface is
  the tightened neighborhood of the embedded graph inside that complex,
  which deformation-retracts onto the graph and therefore has the graph's
  Euler characteristic.  That neighborhood appears as the single
  ``spine_surface`` block; its boundary circles are the boundary walks of
  the rotation, with symbolic lengths, and the cap operations attach caps
  to exactly those circles.

Keeping the recipe and the denoted surface in separate ledgers is what
makes chi additivity an exact checkable invariant on both the naive and the
capped constructions rather than an approximate story.

The in-memory records are the document's own: a block is the dict
``{"id", "kind", "genus", "layer", "boundaries": [{"label", "length"},
...], "payload"}`` and a gluing ``{"a": [block id, label], "b": [...],
"twist"}``, where a length is a number or ``sym:<label>``.  The builders
write them, :func:`schema_from_json` hands back the ones ``json.loads``
builds, and :func:`verify_schema` and :func:`schema_to_json` read them by
key.  No record is changed once built, so schemas share them: a closed
schema holds the records of the bordered one it caps.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, replace
from typing import NoReturn

from .errors import (
    CycleGraphError,
    GraphFormatError,
    GraphValidationError,
    SchemaFormatError,
    TargetGenusError,
    clip,
    quote,
)
from .graph import (
    MetricGraph,
    _from_records,
    betti,
    euler_char,
    graph_hash,
    is_cycle_graph,
)
from .hyperbolic import F_MIN, ScaleParams, choose_scale, waist_distance
from .invariants import capped_genus, qr_split
from .rotation import (
    RotationSystem,
    boundary_walks,
    default_rotation,
    rotation_from_lines,
    rotation_to_lines,
)

SCHEMA_VERSION = 1
_F_MIN_STORED = float(f"{F_MIN:.12g}")  # as a schema stores it, to 12 significant digits
_MAX = sys.float_info.max  # a JSON number within +-_MAX is a finite float
LENGTH_TOLERANCE = 1e-9  # relative to the expected length, absolute below 1

SURFACE = "surface"
CONSTRUCTION = "construction"


@dataclass(frozen=True)
class Summary:
    genus: int
    boundary_count: int
    minimal: bool | None  # None for bordered schemas
    construction: str  # "naive" | "sigma" | "sigma_target(g)"


@dataclass(frozen=True)
class SurfaceSchema:
    graph: MetricGraph
    rotation: RotationSystem
    scale: ScaleParams
    blocks: tuple[dict, ...]  # records of the document's shape, never changed
    gluings: tuple[dict, ...]
    summary: Summary


@dataclass(frozen=True)
class Diagnostics:
    """Verification outcome: hard errors and informational notes."""

    errors: tuple[str, ...]
    notes: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.errors


def _euler(block: dict) -> int:
    """The Euler characteristic of a block, 2 - 2 genus - its boundaries."""
    return 2 - 2 * block["genus"] - len(block["boundaries"])


def _require_embeddable(graph: MetricGraph) -> None:
    if is_cycle_graph(graph):
        raise CycleGraphError(
            "cycle graphs embed on every surface after rescaling; no schema needed"
        )
    graph._require_connected()
    bad = [v for v in range(graph.vertex_count) if graph.degree(v) < 3]
    if bad:
        names = clip(", ".join(graph.vertex_names[v] for v in bad))
        raise GraphValidationError(
            f"schema construction needs minimum degree 3; offending vertices: {names} "
            "(smooth degree-2 vertices first)"
        )


def _construction_blocks(
    graph: MetricGraph, rotation: RotationSystem, scale: ScaleParams, layer: str
) -> tuple[list[dict], list[dict]]:
    darts, spheres = _labels(graph)
    foot, waist, t, vertex_of = scale.foot, scale.waist, scale.t, graph.vertex_of
    blocks = [
        {
            "id": spheres[v], "kind": "vertex_sphere", "genus": 0, "layer": layer,
            "boundaries": [{"label": darts[d], "length": 1.0} for d in cycle],
            "payload": {"vertex": name, "foot": foot[v]},
        }
        for v, (name, cycle) in enumerate(zip(graph.vertex_names, rotation.cycles))
    ]
    gluings = []
    end0, end1 = {"label": "end0", "length": 1.0}, {"label": "end1", "length": 1.0}  # shared
    for e, (name, length) in enumerate(zip(graph.edge_names, graph.lengths)):
        pants = f"pants:{name}"
        blocks.append({
            "id": pants, "kind": "edge_pants", "genus": 0, "layer": layer,
            "boundaries": [end0, end1, {"label": "waist", "length": 2.0 * waist[e]}],
            "payload": {"edge": name, "scaled_length": t * length},
        })
        u, v = spheres[vertex_of[2 * e]], spheres[vertex_of[2 * e + 1]]
        gluings += [
            {"a": [pants, "end0"], "b": [u, darts[2 * e]], "twist": 0.0},
            {"a": [pants, "end1"], "b": [v, darts[2 * e + 1]], "twist": 0.0},
        ]
    return blocks, gluings


def _labels(graph: MetricGraph) -> tuple[list[str], list[str]]:
    """The cuff label of every dart and the block id of every vertex sphere."""
    darts = [f"dart:{d}" for d in range(graph.dart_count)]
    return darts, [f"sphere:{name}" for name in graph.vertex_names]


def naive_embedding(
    graph: MetricGraph, margin: float = 0.1, rotation: RotationSystem | None = None
) -> SurfaceSchema:
    """Closed surface of genus |E| + beta containing the rescaled graph.

    Vertex spheres and edge pants realize the graph; every leftover waist
    cuff is filled with a one-holed torus.  The genus does not depend on
    the rotation, which only fixes the gluing order around each sphere.
    """
    _require_embeddable(graph)
    if rotation is None:
        rotation = default_rotation(graph, 0)
    scale = choose_scale(graph, margin)
    blocks, gluings = _construction_blocks(graph, rotation, scale, layer=SURFACE)
    for e in range(graph.edge_count):
        name = graph.edge_names[e]
        cap_id = f"cap:{name}"
        blocks.append({
            "id": cap_id, "kind": "cap_torus", "genus": 1, "layer": SURFACE,
            "boundaries": [{"label": "b0", "length": 2.0 * scale.waist[e]}],
            "payload": {"fills": "waist", "edge": name},
        })
        gluings.append({"a": [f"pants:{name}", "waist"], "b": [cap_id, "b0"], "twist": 0.0})
    genus = graph.edge_count + betti(graph)
    return SurfaceSchema(
        graph=graph,
        rotation=rotation,
        scale=scale,
        blocks=tuple(blocks),
        gluings=tuple(gluings),
        summary=Summary(genus=genus, boundary_count=0, minimal=False, construction="naive"),
    )


def _spine_block(graph: MetricGraph, rotation: RotationSystem) -> dict:
    """The surface block of the bordered construction: the tightened
    neighborhood of the fat graph, with one symbolic boundary per walk."""
    walks = boundary_walks(graph, rotation)
    return {
        "id": "spine",
        "kind": "spine_surface",
        "genus": (2 - euler_char(graph) - len(walks)) // 2,
        "layer": SURFACE,
        "boundaries": [{"label": f"w{i}", "length": f"sym:w{i}"} for i in range(len(walks))],
        "payload": {"walks": [list(w) for w in walks]},
    }


def assemble_sigma_surface(
    graph: MetricGraph, rotation: RotationSystem, margin: float = 0.1
) -> SurfaceSchema:
    """Bordered surface that deformation-retracts onto the fat graph.

    The denoted surface is the tightened neighborhood of the graph inside
    the sphere-and-pants complex: genus and boundary count are determined
    by chi(graph) and the boundary walks of the rotation.  Its boundary
    lengths have no closed form, so they are symbolic, labeled by walk.
    """
    _require_embeddable(graph)
    scale = choose_scale(graph, margin)
    spine = _spine_block(graph, rotation)
    blocks, gluings = _construction_blocks(graph, rotation, scale, layer=CONSTRUCTION)
    return SurfaceSchema(
        graph=graph,
        rotation=rotation,
        scale=scale,
        blocks=tuple([*blocks, spine]),
        gluings=tuple(gluings),
        summary=Summary(
            genus=spine["genus"],
            boundary_count=len(spine["boundaries"]),
            minimal=None,
            construction="sigma",
        ),
    )


def _close(schema: SurfaceSchema, extra: int) -> SurfaceSchema:
    """Cap every boundary of a bordered schema, ``extra`` genus above the
    cheapest capping.

    With b = 3q + r boundaries, the q triples of boundaries (taken in label
    order) each receive a three-holed cap and the r stragglers a one-holed
    torus, with ids ``cap:0``, ``cap:1``, ... in that order.  For extra > 0
    the first torus, or with r = 0 the first three-holed cap, is built as a
    ``cap_surface`` of its genus plus ``extra``; only extra = 0 leaves
    every cap at chi = -1, a minimal embedding.
    """
    b = schema.summary.boundary_count
    if b < 1:
        raise ValueError("schema is already closed; nothing to cap")
    spine = next((blk for blk in schema.blocks if blk["kind"] == "spine_surface"), None)
    if spine is None:
        raise ValueError("capping applies to the bordered spine construction")
    q, r = qr_split(b)
    labels = [bd["label"] for bd in spine["boundaries"]]
    groups = [labels[3 * k : 3 * k + 3] for k in range(q)] + [[lab] for lab in labels[3 * q :]]
    upgraded = q if r else 0
    blocks = list(schema.blocks)
    gluings = list(schema.gluings)
    for i, fills in enumerate(groups):
        cap_id = f"cap:{i}"
        kind, genus = ("cap_pants", 0) if len(fills) == 3 else ("cap_torus", 1)
        if extra and i == upgraded:
            kind, genus = "cap_surface", genus + extra
        blocks.append({
            "id": cap_id, "kind": kind, "genus": genus, "layer": SURFACE,
            "boundaries": [
                {"label": f"b{j}", "length": f"sym:{lab}"} for j, lab in enumerate(fills)
            ],
            "payload": {"fills": fills},
        })
        gluings += [
            {"a": ["spine", lab], "b": [cap_id, f"b{j}"], "twist": 0.0}
            for j, lab in enumerate(fills)
        ]
    genus = schema.summary.genus + 2 * q + r + extra
    return replace(
        schema,
        blocks=tuple(blocks),
        gluings=tuple(gluings),
        summary=Summary(
            genus=genus,
            boundary_count=0,
            minimal=not extra,
            construction=f"sigma_target({genus})" if extra else "sigma",
        ),
    )


def cap_standard(schema: SurfaceSchema) -> SurfaceSchema:
    """Cap every boundary of a bordered schema as cheaply as possible.

    With b = 3q + r boundaries, the q triples of boundaries (taken in label
    order) each receive one three-holed sphere and the r stragglers each a
    one-holed torus.  Every cap has chi = -1, so the result is a minimal
    essential embedding of closed genus g + 2q + r.
    """
    return _close(schema, 0)


def cap_target_genus(schema: SurfaceSchema, target: int, minimum: int) -> SurfaceSchema:
    """Close the minimal-boundary bordered schema at an exact chosen genus.

    ``minimum`` is the walk count certified to be 1 + zeta, the
    ``boundary_count`` of a certified
    :func:`~ribbon_embed.moves.minimize_boundaries` result, which is where
    the minimum is decided; the schema's boundary count must equal it, so
    the cheapest capping realizes the essential genus g_e.  The caps are
    laid out as :func:`cap_standard` lays them out, except that for
    target > g_e one cap is built with g' = target - g_e more genus: the
    first torus cap, a one-holed surface of genus g' + 1, or when b is a
    multiple of 3 the first three-holed cap, of genus g'.  Only the target
    g_e itself yields a minimal embedding.
    """
    b = schema.summary.boundary_count
    if b < 1:
        raise ValueError("schema is already closed; nothing to cap")
    if b != minimum:
        raise ValueError(
            f"target-genus capping needs the minimal-boundary surface: "
            f"boundary count is {b}, 1 + zeta is {minimum}"
        )
    g_e = capped_genus(schema.graph, b)
    if target < g_e:
        raise TargetGenusError(
            f"target genus {target} is below the essential genus {g_e}"
        )
    return _close(schema, target - g_e)


# ---------------------------------------------------------------------------
# verification

def _off(x: float, w: float) -> bool:
    """True when a length ``x`` misses its expected value ``w``: unless
    |x - w| <= LENGTH_TOLERANCE * max(1, |w|), tested as within the
    tolerance absolutely or relatively, so a NaN difference misses (two
    equal infinities too).  Relative, because a schema stores 12
    significant digits: near 274 a stored cuff length and twice its stored
    half-length are each rounded to the ninth decimal, and together they
    can miss by more than 1e-9.  A payload number or cuff length that is
    not a float misses too, which its caller tests first."""
    d = abs(x - w)
    return not (d <= LENGTH_TOLERANCE or d <= LENGTH_TOLERANCE * abs(w))


def _named(a: tuple[str, str], b: tuple[str, str]) -> str:
    """A gluing of sides ``a`` and ``b`` as its messages name it."""
    return f"gluing {quote(a)} ~ {quote(b)}"


def _gluing_index(
    schema: SurfaceSchema, errors: list[str]
) -> dict[tuple[str, str], tuple[str, str]]:
    """The partner of every glued boundary, ``(block id, label)`` both.

    Building it checks each gluing: both sides exist and are glued once,
    the twist is zero and the two lengths agree.
    """
    lengths: dict[tuple[str, str], float | str] = {}
    for block in schema.blocks:
        bid = block["id"]
        for bd in block["boundaries"]:
            key = (bid, bd["label"])
            if key in lengths:
                errors.append(f"block {clip(bid)}: duplicate boundary label {clip(bd['label'])}")
            lengths[key] = bd["length"]
    partner: dict[tuple[str, str], tuple[str, str]] = {}
    for g in schema.gluings:
        a, b = tuple(g["a"]), tuple(g["b"])  # quoted as tuples, and hashable
        x, w = lengths.get(a), lengths.get(b)
        if x is None or w is None or a in partner or b in partner or a == b:
            for side, other in ((a, b), (b, a)):  # the side at fault, in this order
                if side not in lengths:
                    errors.append(f"gluing references missing boundary {quote(side)}")
                elif side in partner:
                    errors.append(f"boundary {quote(side)} appears in more than one gluing")
                else:
                    partner[side] = other
        else:
            partner[a], partner[b] = b, a
        if g["twist"] != 0.0:
            errors.append(f"{_named(a, b)}: nonzero twist {float(g['twist'])}")
        if x is None or w is None:
            continue
        if isinstance(x, str) or isinstance(w, str):
            if x != w:
                errors.append(f"{_named(a, b)}: symbolic lengths {quote(x)} vs {quote(w)}")
        elif _off(x, w):
            errors.append(f"{_named(a, b)}: lengths {x:.12g} vs {w:.12g}")
    return partner


def _check_sphere(
    schema: SurfaceSchema, block: dict, darts: list[str], errors: list[str]
) -> int | None:
    """A known vertex, its foot, genus 0 and unit cuffs in rotation order,
    ``darts`` naming the cuff of each dart; the vertex id."""
    bid, payload = block["id"], block["payload"]
    v = schema.graph.vertex_ids.get(payload.get("vertex"))
    if v is None:
        errors.append(f"block {clip(bid)}: unknown vertex {quote(payload.get('vertex'))}")
        return None
    x, w = payload.get("foot"), schema.scale.foot[v]
    if not isinstance(x, float) or _off(x, w):
        errors.append(f"block {clip(bid)}: foot {quote(x)}, expected {w:.12g}")
    if block["genus"] != 0:
        errors.append(f"block {clip(bid)}: vertex sphere must have genus 0")
    got = []
    for bd in block["boundaries"]:
        label, x = bd["label"], bd["length"]
        if not isinstance(x, float) or _off(x, 1.0):
            errors.append(f"block {clip(bid)}: cuff {clip(label)} is not unit length")
        got.append(label)
    want = [darts[d] for d in schema.rotation.cycles[v]]
    if got != want:
        errors.append(
            f"block {clip(bid)}: cuff order {quote(tuple(got))} "
            f"differs from rotation order {tuple(want)}"
        )
    return v


def _check_pants(
    schema: SurfaceSchema,
    block: dict,
    partner: dict[tuple[str, str], tuple[str, str]],
    labels: tuple[list[str], list[str]],
    errors: list[str],
) -> int | None:
    """A known edge, its scaled length, cuffs of length 1, 1 and twice the
    waist, and both ends glued to the edge's darts on their vertex spheres,
    with ``labels`` from :func:`_labels`; the edge id."""
    graph, bid, payload = schema.graph, block["id"], block["payload"]
    name = payload.get("edge")
    e = graph.edge_ids.get(name)
    if e is None:
        errors.append(f"block {clip(bid)}: unknown edge {quote(name)}")
        return None
    x, w = payload.get("scaled_length"), schema.scale.t * graph.lengths[e]
    if not isinstance(x, float) or _off(x, w):
        errors.append(
            f"block {clip(bid)}: scaled length {quote(x)}, expected t * length = {w:.12g}"
        )
    if block["genus"] != 0 or len(block["boundaries"]) != 3:
        errors.append(f"block {clip(bid)}: edge pants must be a genus-0 3-holed sphere")
        return e
    waist = 2.0 * schema.scale.waist[e]
    for bd in block["boundaries"]:
        label, x = bd["label"], bd["length"]
        w = 1.0 if label == "end0" or label == "end1" else waist if label == "waist" else None
        if w is None:
            errors.append(f"block {clip(bid)}: unexpected cuff {clip(label)}")
        elif not isinstance(x, float) or _off(x, w):
            errors.append(
                f"block {clip(bid)}: cuff {clip(label)} has length {quote(x)}, "
                f"expected {w:.12g}"
            )
    darts, spheres = labels
    for end_label, dart in (("end0", 2 * e), ("end1", 2 * e + 1)):
        u = graph.vertex_of[dart]
        if partner.get((bid, end_label)) != (spheres[u], darts[dart]):
            errors.append(
                f"edge {clip(name)}: cuff {end_label} is not glued to dart {dart} "
                f"of vertex {clip(graph.vertex_names[u])}"
            )
    return e


def _check_cap(
    block: dict, partner: dict[tuple[str, str], tuple[str, str]], errors: list[str]
) -> None:
    """The genus and hole count of the cap's kind, and a payload naming what
    the cap is glued to: spine walks, or the waist of a naive cap's edge."""
    bid, kind, genus, holes = block["id"], block["kind"], block["genus"], len(block["boundaries"])
    if kind == "cap_pants" and (genus != 0 or holes != 3):
        errors.append(f"block {clip(bid)}: three-holed cap must have genus 0")
    elif kind == "cap_torus" and (genus != 1 or holes != 1):
        errors.append(f"block {clip(bid)}: torus cap must be one-holed genus 1")
    elif kind == "cap_surface" and (genus < 1 or holes not in (1, 3)):
        errors.append(f"block {clip(bid)}: upgraded cap must have genus >= 1 and 1 or 3 holes")
    sides = [partner.get((bid, bd["label"])) for bd in block["boundaries"]]
    if len(sides) == 1 and sides[0] is not None and sides[0][1] == "waist":
        want = {"fills": "waist", "edge": sides[0][0].removeprefix("pants:")}
    else:
        want = {"fills": [s[1] if s is not None and s[0] == "spine" else None for s in sides]}
    got = {key: block["payload"].get(key) for key in want}
    if got != want:
        errors.append(
            f"block {clip(bid)}: payload {quote(got)} does not match its gluings, "
            f"{quote(want)}"
        )


def _check_spine(schema: SurfaceSchema, spine: dict, errors: list[str]) -> None:
    """The graph's Euler characteristic, and boundaries and walks that
    :func:`_spine_block` rebuilds from the recorded rotation."""
    chi, euler = euler_char(schema.graph), _euler(spine)
    if euler != chi:
        errors.append(f"block {clip(spine['id'])}: chi {euler} differs from the graph's {chi}")
    want = _spine_block(schema.graph, schema.rotation)
    got, expected = spine["boundaries"], want["boundaries"]
    if len(got) != len(expected):
        errors.append(f"spine has {len(got)} boundaries for {len(expected)} walks")
        return
    recorded = spine["payload"].get("walks")
    if recorded is not None and recorded != want["payload"]["walks"]:
        errors.append("spine walk payload disagrees with the rotation's walks")
    for i, (bd, wanted) in enumerate(zip(got, expected)):
        if bd["label"] != wanted["label"] or bd["length"] != wanted["length"]:
            errors.append(f"spine boundary {i} is not labeled {wanted['label']}")


def _check_scale(schema: SurfaceSchema, errors: list[str]) -> None:
    """The scale, feet and clearances that the margin gives, and waists
    that invert the cuff distances.  The cuff distances come from the
    derived scale, not the stored one: 12 stored digits of t can move the
    binding edge's distance by more than a small margin.  The waist is
    checked forward, through :func:`waist_distance`, because :func:`f_inv`
    is ill-conditioned just above f_min, where a small margin puts the
    binding edge."""
    graph = schema.graph
    scale = schema.scale
    try:
        derived = choose_scale(graph, scale.margin)
    except ValueError as exc:  # a graph or margin that admits no scale
        errors.append(f"margin {scale.margin!r} gives no scale: {exc}")
        return
    x, w = scale.t, derived.t
    if _off(x, w):
        errors.append(f"t {x!r}, but margin {scale.margin!r} gives {w:.12g}")
    for v, w in derived.foot.items():
        x = scale.foot[v]
        if _off(x, w):
            errors.append(f"vertex {clip(graph.vertex_names[v])}: foot {x!r}, expected {w:.12g}")
    for e, length in enumerate(graph.lengths):
        x, w = scale.clearance[e], derived.clearance[e]
        if _off(x, w):
            errors.append(
                f"edge {clip(graph.edge_names[e])}: clearance {x!r}, "
                f"expected the two feet {w:.12g}"
            )
        x, w = waist_distance(scale.waist[e]), derived.t * length - derived.clearance[e]
        if _off(x, w):
            errors.append(
                f"edge {clip(graph.edge_names[e])}: waist does not invert the cuff distance"
            )


def verify_schema(schema: SurfaceSchema) -> Diagnostics:
    """Re-derive every checkable fact of a schema and report disagreements.

    Hard errors mean the schema does not describe what its summary claims.
    Notes flag legitimate but noteworthy facts (a genus-upgraded cap, for
    example).  Verification recomputes from the graph, the rotation and
    the margin; it never trusts counts or measurements stored in the
    schema.  The graph must be connected, as :func:`parse_graph` requires
    of a graph file.  The scale ``t``, the feet and clearances come from
    :func:`~ribbon_embed.hyperbolic.choose_scale` at the stored margin;
    sphere feet, pants scaled lengths and cuffs from the scale; the spine
    from the rotation's walks; cap fills from what each cap is glued to.

    The gluings are indexed once (each glued side to its partner), and one
    pass over the blocks applies the rules of each kind.  It never raises
    on a document :func:`schema_from_json` accepts.
    """
    errors: list[str] = []
    notes: list[str] = []
    graph, summary = schema.graph, schema.summary
    if not graph._connected:  # its capped surface is not one surface
        errors.append("graph is not connected")
    if len({b["id"] for b in schema.blocks}) != len(schema.blocks):
        errors.append("duplicate block ids")
    partner = _gluing_index(schema, errors)
    labels = _labels(graph)
    sphere_of: list[int | None] = []  # the vertex of each sphere and the edge of
    pants_of: list[int | None] = []  # each pants, None for an unknown one
    spines = surface_chi = free = 0
    heavy: list[dict] = []
    for block in schema.blocks:
        kind = block["kind"]
        if block["layer"] == SURFACE:
            surface_chi += _euler(block)
            bid = block["id"]
            free += sum((bid, bd["label"]) not in partner for bd in block["boundaries"])
        if kind == "vertex_sphere":
            sphere_of.append(_check_sphere(schema, block, labels[0], errors))
        elif kind == "edge_pants":
            pants_of.append(_check_pants(schema, block, partner, labels, errors))
        elif kind == "spine_surface":
            spines += 1
            _check_spine(schema, block, errors)
        elif kind in ("cap_pants", "cap_torus", "cap_surface"):
            _check_cap(block, partner, errors)
            if _euler(block) != -1:
                heavy.append(block)
        else:
            errors.append(f"block {clip(block['id'])}: unknown kind {clip(str(kind))}")

    spheres, pants = Counter(sphere_of), Counter(pants_of)
    if spheres or pants:
        for v, name in enumerate(graph.vertex_names):
            if spheres[v] != 1:
                errors.append(f"vertex {clip(name)} has {spheres[v]} vertex spheres, not 1")
        for e, name in enumerate(graph.edge_names):
            if pants[e] != 1:
                errors.append(f"edge {clip(name)} has {pants[e]} edge pants, not 1")
    if spines > 1:
        errors.append("more than one spine block")

    if not spines:
        construction = "naive"
    elif summary.minimal is not False:
        construction = "sigma"
    else:
        construction = f"sigma_target({summary.genus})"
    if summary.construction != construction:
        errors.append(
            f"construction {quote(summary.construction)} does not match the blocks, "
            f"which build {construction!r}"
        )
    expected_chi = 2 - 2 * summary.genus - summary.boundary_count
    if surface_chi != expected_chi:
        errors.append(
            f"chi additivity broken: surface blocks sum to {quote(surface_chi)}, "
            f"summary implies {quote(expected_chi)}"
        )
    if free != summary.boundary_count:
        errors.append(
            f"{free} unglued surface boundaries, summary says {quote(summary.boundary_count)}"
        )
    if summary.construction == "naive":
        want = graph.edge_count + betti(graph)
        if summary.genus != want:
            errors.append(f"naive genus {quote(summary.genus)}, expected |E| + beta = {want}")
        if summary.minimal:
            errors.append("naive construction must not claim minimality")
    elif summary.boundary_count == 0:
        if summary.minimal != (not heavy):
            errors.append(
                f"summary.minimal={quote(summary.minimal)} but caps "
                f"{'do not all have' if heavy else 'all have'} chi = -1"
            )
        for c in heavy:
            notes.append(f"non-minimal cap {clip(c['id'])}: chi = {_euler(c)} (genus upgrade)")
    if summary.boundary_count > 0 and summary.minimal is not None:
        errors.append("bordered schema must leave minimality undecided")
    _check_scale(schema, errors)
    return Diagnostics(errors=tuple(errors), notes=tuple(notes))


# ---------------------------------------------------------------------------
# serialization

_string = json.encoder.encode_basestring_ascii  # json.dumps's own, in C where built


def _number(x: float) -> str:
    """A float as ``json.dumps`` writes it: its repr, or NaN and Infinity."""
    return float.__repr__(x) if math.isfinite(x) else json.dumps(x)


def _stored(x: float) -> str:
    """A float as the schema stores it, ``json.dumps(float(f"{x:.12g}"))``,
    formatted once: a positional ``.12g`` text, with ``.0`` if it has no
    point, is already that float's repr, since no other decimal of up to 15
    digits rounds to the same float.  Exponent, nan and inf texts are not."""
    text = f"{x:.12g}"
    if "e" in text or "n" in text:
        return _number(float(text))
    return text if "." in text else text + ".0"


def _scalar(value) -> str:
    """A JSON scalar as ``json.dumps`` writes it, tested in the order it
    tests them (``True`` and ``False`` before ``int``)."""
    if isinstance(value, str):
        return _string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _number(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _join(items, pad: str, brackets: str) -> str:
    """An indent-2 container of rendered ``items``, each on its own line
    indented by ``pad`` and two spaces, closed at ``pad``; ``brackets``
    when there are none (a rendered item is never empty)."""
    inner = pad + "  "
    body = (",\n" + inner).join(items)
    return f"{brackets[0]}\n{inner}{body}\n{pad}{brackets[1]}" if body else brackets


def _value(value, pad: str) -> str:
    """Any JSON value as ``json.dumps(indent=2)`` writes it on a line
    indented by ``pad``; dict keys are converted as ``json.dumps`` does.
    A payload's dict is tested first, and its items of the exact types
    ``json.loads`` yields are written without a call each; a list of ints
    (a spine walk) or of strings is written in one join, and a scalar by
    :func:`_scalar`."""
    inner = pad + "  "
    if isinstance(value, dict):
        items = []
        for k, v in value.items():
            kind = type(v)
            text = _string(v) if kind is str else _number(v) if kind is float else _value(v, inner)
            items.append(f"{_string(k if isinstance(k, str) else _scalar(k))}: {text}")
        return _join(items, pad, "{}")
    if isinstance(value, (list, tuple)):
        kinds = {*map(type, value)}
        if kinds == {int}:
            return _join(map(int.__repr__, value), pad, "[]")
        if kinds == {str}:
            return _join(map(_string, value), pad, "[]")
        return _join([_value(v, inner) for v in value], pad, "[]")
    return _scalar(value)


def schema_to_json(schema: SurfaceSchema) -> str:
    """The schema document: exactly the text of ``json.dumps(doc, indent=2)``
    and a newline, for the document ``doc`` of nested dicts and lists.

    ``doc`` holds ``schema_version``, ``meta`` (the graph's hash and edge
    records, the scale's numbers by vertex or edge name and the rotation's
    lines), ``blocks``, ``gluings`` and ``summary``, each in field order;
    stored floats carry 12 significant digits, payloads are written as
    they are, and a record's keys other than the document's are not
    written.  The text is written from the schema directly, one loop over
    the blocks and one over the gluings filling the template of each fixed
    shape, with strings escaped to ASCII by the C encoder ``json.dumps``
    itself uses; only payloads take the general recursive case.  A field
    of another type than the document's (a label that is no string, a
    side that is no pair) raises rather than write a different text.
    """
    graph, scale, summary = schema.graph, schema.scale, schema.summary
    vertex_names, edge_names, vertex_of = graph.vertex_names, graph.edge_names, graph.vertex_of
    edges = _join(
        [
            f"[\n          {_string(name)},\n"
            f"          {_string(vertex_names[vertex_of[2 * e]])},\n"
            f"          {_string(vertex_names[vertex_of[2 * e + 1]])},\n"
            f"          {_stored(length)}\n        ]"
            for e, (name, length) in enumerate(zip(edge_names, graph.lengths))
        ],
        "      ",
        "[]",
    )
    rotation = _join(map(_string, rotation_to_lines(graph, schema.rotation)), "    ", "[]")
    # dicts, as in the document: a repeated name keeps its first place and last value
    floats = [
        _join([f"{_string(k)}: {_stored(x)}" for k, x in named.items()], "    ", "{}")
        for named in (
            {vertex_names[v]: x for v, x in sorted(scale.foot.items())},
            {edge_names[e]: x for e, x in sorted(scale.clearance.items())},
            {edge_names[e]: x for e, x in sorted(scale.waist.items())},
        )
    ]
    blocks = []
    for b in schema.blocks:
        cuffs = ",\n".join(
            [
                f'        {{\n          "label": {_string(bd["label"])},\n          "length": '
                f"{_string(x) if isinstance(x := bd['length'], str) else _stored(x)}"
                "\n        }"
                for bd in b["boundaries"]
            ]
        )
        cuffs = f"[\n{cuffs}\n      ]" if cuffs else "[]"
        blocks.append(
            f'{{\n      "id": {_string(b["id"])},\n      "kind": {_string(b["kind"])},\n'
            f'      "genus": {_scalar(b["genus"])},\n      "layer": {_string(b["layer"])},\n'
            f'      "boundaries": {cuffs},\n'
            f'      "payload": {_value(b["payload"], "      ")}\n    }}'
        )
    gluings = []
    for g in schema.gluings:
        a0, a1 = g["a"]
        b0, b1 = g["b"]
        gluings.append(
            f'{{\n      "a": [\n        {_string(a0)},\n        {_string(a1)}\n      ],\n'
            f'      "b": [\n        {_string(b0)},\n        {_string(b1)}\n      ],\n'
            f'      "twist": {_stored(g["twist"])}\n    }}'
        )
    return (
        "{\n"
        f'  "schema_version": {_scalar(SCHEMA_VERSION)},\n'
        '  "meta": {\n'
        '    "graph": {\n'
        f'      "hash": {_string(graph_hash(graph))},\n'
        f'      "edges": {edges}\n'
        "    },\n"
        f'    "t": {_stored(scale.t)},\n'
        f'    "margin": {_stored(scale.margin)},\n'
        f'    "f_min": {_stored(F_MIN)},\n'
        f'    "foot": {floats[0]},\n'
        f'    "clearance": {floats[1]},\n'
        f'    "waist": {floats[2]},\n'
        f'    "rotation": {rotation}\n'
        "  },\n"
        f'  "blocks": {_join(blocks, "  ", "[]")},\n'
        f'  "gluings": {_join(gluings, "  ", "[]")},\n'
        '  "summary": {\n'
        f'    "genus": {_scalar(summary.genus)},\n'
        f'    "boundary_count": {_scalar(summary.boundary_count)},\n'
        f'    "minimal": {_scalar(summary.minimal)},\n'
        f'    "construction": {_scalar(summary.construction)}\n'
        "  }\n"
        "}\n"
    )


def _refuse(what: str, kind: str, value) -> NoReturn:
    raise SchemaFormatError(f"{what} is not {kind}: {quote(value)}")


def _finite(value, what: str):
    """``value`` unchanged if it is a JSON number, an int or a float, within
    the float range.  A bool is an int to Python and ``float()`` parses a
    string, so both are refused by type.  The one range test refuses NaN,
    since every comparison with it is false, the infinities, and an int
    past the largest float, which ``float()`` cannot convert; it converts
    nothing itself."""
    if type(value) is not float and type(value) is not int:
        _refuse(what, "a number", value)
    if not -_MAX <= value <= _MAX:
        raise SchemaFormatError(f"non-finite number {quote(value)}")
    return value


def _positive(value, what: str):
    """``value`` unchanged if it is a positive finite number, as every edge
    length, waist and margin of a schema is; the scaling and the pants
    trigonometry reject the others."""
    if not _finite(value, what) > 0.0:
        raise SchemaFormatError(f"non-positive number {quote(value)}")
    return value


def _side(value) -> NoReturn:
    raise SchemaFormatError(
        f"gluing side {quote(value)} is not a [block id, label] pair of strings"
    )


def _per_name(
    meta: dict, key: str, ids: dict[str, int], noun: str, number=_finite
) -> dict[int, float]:
    """One number per name of ``ids`` (each a ``noun`` of the graph), from
    the ``key`` object of ``meta``, which ``number`` (:func:`_finite` or
    :func:`_positive`) admits: the range test of :func:`_finite`, with the
    least positive float as its floor for :func:`_positive`."""
    low = math.ulp(0.0) if number is _positive else -_MAX
    entries = meta[key]
    if type(entries) is not dict:
        _refuse(f"meta {key}", "a JSON object", entries)
    try:
        values = {
            ids[k]: float(v) if type(v) in (float, int) and low <= v <= _MAX else number(v, key)
            for k, v in entries.items()
        }
    except KeyError as exc:  # only ids[k] can miss
        name = quote(exc.args[0])
        raise SchemaFormatError(f"{key} names no {noun} of the graph: {name}") from None
    missing = [name for name, i in ids.items() if i not in values]
    if missing:
        raise SchemaFormatError(f"{key} has no entry for {clip(', '.join(missing))}")
    return values


def _graph_from_meta(stored: dict) -> MetricGraph:
    """The graph of the ``edges`` records of ``meta.graph``."""
    records, edges = [], stored["edges"]
    if type(edges) is not list:
        _refuse("meta graph edges", "a JSON array", edges)
    for record in edges:
        if not (type(record) is list and len(record) == 4 and {*map(type, record[:3])} == {str}):
            raise SchemaFormatError(
                f"edge record {quote(record)} is not [name, u, v, length] with string names"
            )
        name, u, v, length = record
        records.append((name, u, v, float(_positive(length, "edge length"))))
    return _from_records(records)


def schema_from_json(text: str) -> SurfaceSchema:
    """The schema a document of :func:`schema_to_json`'s shape describes.

    Checks the document's shape, not its truth, which is
    :func:`verify_schema`'s question: the JSON, the schema version, the
    graph records against their hash, f_min, the rotation records, and the
    type of every field the verifier reads.  A stored number must be a
    JSON int or float (never a bool or a string) within the float range,
    ``-MAX <= x <= MAX`` for the largest float MAX (so no NaN, no infinity
    and no int that ``float()`` cannot convert), and positive for an edge
    length, waist or margin; a walk dart an int, never a bool;
    ``summary.minimal`` true, false or null; ``meta.graph.edges``,
    ``meta.rotation``, ``blocks``, each block's ``boundaries`` and
    ``gluings`` JSON arrays, tested before they are iterated.  Raises
    :class:`SchemaFormatError` on any document it cannot read, quoting
    the first offending value; a missing key is named with the object it
    is missing from (the document, ``meta``, ``meta graph``, a block, a
    boundary of a block, a gluing or ``summary``; blocks, boundaries and
    gluings counted from 0).  An integer longer than the interpreter's
    limit on decimal digits is refused as too long to read.  One loop
    checks the blocks and one the gluings; where a value fails its inline
    test, a refusal that only raises (:func:`_refuse`, :func:`_side`) or
    :func:`_finite` names it, and the handler of a missing key reads where
    it is from the loop indices.  The schema's blocks and gluings are the
    records ``json.loads`` built, with ``payload`` set to ``{}`` and
    ``twist`` to 0.0 where the document leaves them out.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaFormatError(f"not valid JSON: {exc}") from None
    except ValueError:  # the one other error of the decoder: an int past the digit limit
        raise SchemaFormatError(
            f"JSON integer too long to read: more than {sys.get_int_max_str_digits()} digits"
        ) from None
    except RecursionError:  # the decoder recurses once per level of nesting
        raise SchemaFormatError("JSON nested too deeply to decode") from None
    where, held = "the document", doc  # what is being read, for the handlers
    try:
        if type(doc["schema_version"]) is bool or doc["schema_version"] != SCHEMA_VERSION:
            raise SchemaFormatError(
                f"unsupported schema_version {quote(doc['schema_version'])}"
            )
        meta = doc["meta"]
        where, held = "meta", meta
        stored = meta["graph"]
        where, held = "meta graph", stored
        graph = _graph_from_meta(stored)
        if stored["hash"] != graph_hash(graph):
            raise SchemaFormatError("meta graph hash does not match the graph's edges")
        where, held = "meta", meta
        if float(_finite(meta["f_min"], "f_min")) != _F_MIN_STORED:
            raise SchemaFormatError(f"f_min {quote(meta['f_min'])} is not {_F_MIN_STORED!r}")
        if len(graph.edge_ids) != graph.edge_count:
            raise SchemaFormatError("meta graph repeats an edge name")
        if meta.get("rotation") is None:
            raise SchemaFormatError("meta has no rotation")
        if type(meta["rotation"]) is not list:
            _refuse("meta rotation", "a JSON array", meta["rotation"])
        rotation = rotation_from_lines(graph, meta["rotation"])
        scale = ScaleParams(
            t=float(_finite(meta["t"], "t")),
            margin=float(_positive(meta["margin"], "margin")),
            foot=_per_name(meta, "foot", graph.vertex_ids, "vertex"),
            clearance=_per_name(meta, "clearance", graph.edge_ids, "edge"),
            waist=_per_name(meta, "waist", graph.edge_ids, "edge", _positive),
        )
        where, held = "the document", doc
        for key in ("blocks", "gluings"):
            if type(doc[key]) is not list:
                _refuse(key, "a JSON array", doc[key])
        block_docs, gluing_docs = doc["blocks"], doc["gluings"]
        s = doc["summary"]
        where, i = "blocks", None
        for i, b in enumerate(block_docs):
            j = None  # the boundary being read
            bid = b["id"]
            if type(bid) is not str:  # json.loads yields exact types
                _refuse("block id", "a string", bid)
            kind, genus = b["kind"], b["genus"]
            if type(genus) is not int:  # int() would truncate 2.9, and True is an int
                _refuse("block genus", "an integer", genus)
            layer = b["layer"]
            if layer not in (SURFACE, CONSTRUCTION):  # chi additivity sums the surface layer
                raise SchemaFormatError(f"unknown block layer {quote(layer)}")
            boundary_docs = b["boundaries"]
            if type(boundary_docs) is not list:  # an object would be iterated by key
                _refuse(f"block {i} boundaries", "a JSON array", boundary_docs)
            for j, bd in enumerate(boundary_docs):
                label = bd["label"]
                if type(label) is not str:
                    _refuse("boundary label", "a string", label)
                length = bd["length"]
                if type(length) is not str and not (
                    type(length) in (float, int) and -_MAX <= length <= _MAX
                ):
                    _finite(length, "boundary length")
            payload = b.setdefault("payload", {})
            if type(payload) is not dict:
                raise SchemaFormatError(f"block {quote(bid)}: payload is not an object")
            if type(payload.get("vertex", "")) is not str:
                _refuse("payload vertex", "a string", payload["vertex"])
            if type(payload.get("edge", "")) is not str:
                _refuse("payload edge", "a string", payload["edge"])
            walks = payload.get("walks")
            if kind == "spine_surface" and walks is not None and not (
                type(walks) is list
                and all(type(w) is list and all(type(d) is int for d in w) for w in walks)
            ):
                raise SchemaFormatError(
                    f"block {quote(bid)}: payload walks are not lists of darts"
                )
        where, k = "gluings", None
        for k, g in enumerate(gluing_docs):
            a = g["a"]
            if not (type(a) is list and len(a) == 2 and type(a[0]) is str and type(a[1]) is str):
                _side(a)
            b = g["b"]
            if not (type(b) is list and len(b) == 2 and type(b[0]) is str and type(b[1]) is str):
                _side(b)
            twist = g.setdefault("twist", 0.0)
            if type(twist) not in (float, int) or not -_MAX <= twist <= _MAX:
                _finite(twist, "gluing twist")
        where, held = "summary", s
        for key in ("genus", "boundary_count"):
            if type(s[key]) is not int:
                _refuse(f"summary {key}", "an integer", s[key])
        minimal = s["minimal"]
        if minimal is not None and type(minimal) is not bool:  # 1 == True to Python
            raise SchemaFormatError(
                f"summary minimal is not true, false or null: {quote(minimal)}"
            )
        summary = Summary(s["genus"], s["boundary_count"], minimal, s["construction"])
    except SchemaFormatError:
        raise
    except GraphFormatError as exc:  # a bad rotation record; its message is ours, whole
        raise SchemaFormatError(str(exc)) from None
    except (KeyError, TypeError, ValueError, IndexError, AttributeError, OverflowError) as exc:
        if where == "blocks" and i is not None:
            where, held = (f"block {i}", b) if j is None else (f"boundary {j} of block {i}", bd)
        elif where == "gluings" and k is not None:
            where, held = f"gluing {k}", g
        if isinstance(exc, KeyError):
            raise SchemaFormatError(f"{where} has no key {quote(exc.args[0])}") from None
        if type(held) is not dict:
            raise SchemaFormatError(f"{where} is not a JSON object: {quote(held)}") from None
        raise SchemaFormatError(f"{where} holds a value of the wrong JSON type") from None
    return SurfaceSchema(
        graph=graph,
        rotation=rotation,
        scale=scale,
        blocks=tuple(block_docs),
        gluings=tuple(gluing_docs),
        summary=summary,
    )
