"""Hyperbolic block geometry: pair-of-pants waists, sphere feet, scaling.

All blocks are built from pants with two unit-length cuffs and one waist of
length 2x.  The distance between the two unit cuffs of such a pants is

    f(x) = acosh((cosh^2(1/2) + cosh x) / sinh^2(1/2)),

a strictly increasing bijection from (0, inf) onto (f_min, inf) with

    f_min = acosh((cosh^2(1/2) + 1) / sinh^2(1/2)) = 2.81365822749...

Both come from the right-angled hexagon relations, as does the foot length
x_v = asinh(coth(1/4) coth(pi/deg v)): the orthogonal distance from the
center of a regular deg-holed sphere with unit cuffs to each cuff.  Given
edge lengths, ``choose_scale`` finds the smallest uniform rescaling t at
which every edge is long enough to cross its two feet plus an f_min-wide
pants, with ``margin`` to spare; the leftover distance determines each
edge's waist via the inverse of f.

Everything is double precision; the formulas are well-conditioned on the
domains used here, and the round-trip f(f_inv(L)) = L holds to 1e-9 across
the working range.  Past ``_LOG_DOMAIN`` cosh x equals e^x / 2 to double
precision and soon overflows, so there both functions take their
log-domain forms f(x) = x - log sinh^2(1/2) and
f_inv(d) = d + log sinh^2(1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import clip
from .graph import MetricGraph

_COSH_SQ_HALF = math.cosh(0.5) ** 2
_SINH_SQ_HALF = math.sinh(0.5) ** 2

F_MIN = math.acosh((_COSH_SQ_HALF + 1.0) / _SINH_SQ_HALF)

_LOG_SINH_SQ_HALF = math.log(_SINH_SQ_HALF)
_LOG_DOMAIN = 700.0  # below where the cosh forms overflow (x or d near 709)


def waist_distance(x: float) -> float:
    """f(x): distance between the two unit cuffs of a (1, 1, 2x) pants."""
    if x <= 0.0:
        raise ValueError(f"waist half-length must be positive, got {x}")
    if x > _LOG_DOMAIN:
        return x - _LOG_SINH_SQ_HALF
    return math.acosh((_COSH_SQ_HALF + math.cosh(x)) / _SINH_SQ_HALF)


def f_inv(distance: float) -> float:
    """Inverse of :func:`waist_distance`; defined for distance > f_min."""
    if distance <= F_MIN:
        raise ValueError(f"distance must exceed f_min={F_MIN:.9f}, got {distance}")
    if distance > _LOG_DOMAIN:
        return distance + _LOG_SINH_SQ_HALF
    return math.acosh(math.cosh(distance) * _SINH_SQ_HALF - _COSH_SQ_HALF)


def foot_length(degree: int) -> float:
    """x_v: center-to-cuff distance on a regular degree-holed unit-cuff sphere."""
    if degree < 3:
        raise ValueError(f"foot length needs degree >= 3, got {degree}")
    quarter = 0.25
    return math.asinh(
        (math.cosh(quarter) / math.sinh(quarter)) / math.tanh(math.pi / degree)
    )


@dataclass(frozen=True)
class ScaleParams:
    """Rescaling factor and all per-vertex / per-edge block measurements.

    Keys of ``foot`` are vertex ids, keys of ``clearance`` and ``waist``
    edge ids.  ``clearance[e]`` is l(e) = x_u + x_v, the part of the edge
    spent inside vertex spheres (a loop pays its vertex's foot twice);
    ``waist[e]`` stores the half-length x_e, so the waist cuff of the edge
    pants has length 2 * waist[e].
    """

    t: float
    margin: float
    foot: dict[int, float]
    clearance: dict[int, float]
    waist: dict[int, float]


def choose_scale(graph: MetricGraph, margin: float = 0.1) -> ScaleParams:
    """Smallest t with t*d(e) >= l(e) + f_min + margin on every edge.

    At that t the binding edge has exactly ``margin`` to spare and every
    waist x_e = f_inv(t*d(e) - l(e)) is well-defined and positive.  Rejected
    with a :class:`ValueError`: a margin that is not positive and finite; an
    edge so short that t overflows double precision, or so long that its
    waist cuff 2 x_e does; a margin so small that rounding leaves the
    binding edge no gap above f_min; and degrees below 3 (by
    :func:`foot_length`).
    """
    if not 0.0 < margin < math.inf:
        raise ValueError(f"margin must be positive and finite, got {margin}")
    degrees = [graph.degree(v) for v in range(graph.vertex_count)]
    by_degree = {d: foot_length(d) for d in dict.fromkeys(degrees)}  # in vertex order
    foot = {v: by_degree[d] for v, d in enumerate(degrees)}
    vertex_of = graph.vertex_of
    clearance = {
        e: foot[vertex_of[2 * e]] + foot[vertex_of[2 * e + 1]] for e in range(graph.edge_count)
    }
    need = {
        e: (clearance[e] + F_MIN + margin) / graph.lengths[e] for e in range(graph.edge_count)
    }
    shortest = max(need, key=need.__getitem__)
    t = need[shortest]
    if t == math.inf:
        raise ValueError(
            f"edge {clip(graph.edge_names[shortest])} of length {graph.lengths[shortest]!r} "
            f"needs a scale beyond double precision at margin {margin!r}"
        )
    gap = {e: t * graph.lengths[e] - clearance[e] for e in range(graph.edge_count)}
    binding = min(gap, key=gap.__getitem__)
    if gap[binding] <= F_MIN:
        raise ValueError(
            f"margin {margin!r} is too small: in double precision it leaves edge "
            f"{clip(graph.edge_names[binding])} a gap of {gap[binding]!r}, not above "
            f"f_min={F_MIN:.9f}"
        )
    waist = {e: f_inv(d) for e, d in gap.items()}
    longest = max(waist, key=waist.__getitem__)
    if 2.0 * waist[longest] == math.inf:
        raise ValueError(
            f"margin {margin!r} gives edge {clip(graph.edge_names[longest])} a waist cuff "
            "beyond double precision"
        )
    return ScaleParams(t=t, margin=margin, foot=foot, clearance=clearance, waist=waist)
