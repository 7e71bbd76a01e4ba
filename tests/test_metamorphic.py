"""Metamorphic invariance: scaling a space by a power of two changes nothing
but its lengths.

Multiplying every distance, the resolution h and every length parameter
(ell, R, eps, r, rho, radii and steps) by f = 2 or 1/2, and kappa by 1/f^2,
is exact in floating point, and comparison angles are invariant under it.
So every member set, strainer pair, margin, angle and ratio must come out
bit-identical, and every length exactly f times its value.  Relabelling the
ids and scaling by 3 are not gates yet: the beam's tie-break and rounding at
lattice distances change a few members today (ROADMAP items 1, 2 and 4).
"""

import math

import numpy as np
import pytest

from alexkit import models
from alexkit.charts import build_chart, openness_measure
from alexkit.flow import FlowConfig, gradient_curve
from alexkit.glue import build_projection, projection_quality
from alexkit.space import Space, extremality_check, hausdorff_measure_estimate, packing_ids
from alexkit.strainers import classify, find_strainer

UNIT_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]
FACTORS = [2.0, 0.5]


def scaled(space: Space, f: float) -> Space:
    """The space with its distances, coordinates and resolution times f and
    its kappa over f^2, with the same named subsets."""
    out = Space(space.name, space.kappa / f**2, space.dist * f,
                None if space.coords is None else space.coords * f,
                space.resolution * f)
    for name, sub in space.subsets.items():
        out.subset(sub.indices, name=name, extremal=sub.extremal_claim)
    return out


def assert_witnesses_scale(mask, scaled_mask, f):
    assert scaled_mask.member_ids.tolist() == mask.member_ids.tolist()
    for p, w in mask.witnesses.items():
        s = scaled_mask.witnesses[p]
        assert (s.pairs, s.delta_achieved, s.length) == (w.pairs, w.delta_achieved,
                                                         w.length * f)


@pytest.fixture(scope="module")
def square():
    return models.gen_convex_polygon(UNIT_SQUARE, 0.05)


@pytest.fixture(scope="module")
def square_k2(square):
    # the strain-square workload's k = 2 scan
    mask = classify(square.all_points_subset(), 2, 0.1, 0.05, 0.2)
    assert mask.member_ids.size == 385
    return mask


@pytest.fixture(scope="module")
def sphere_k2():
    sphere = models.gen_spherical_suspension(models.gen_circle(2 * math.pi, 0.3), 0.3)
    mask = classify(sphere.all_points_subset(), 2, 0.2, 0.3, 1.2)
    assert mask.member_ids.size == 191
    return sphere, mask


@pytest.mark.parametrize("f", FACTORS)
def test_square_strainers_scale(square, square_k2, f):
    mask = classify(scaled(square, f).all_points_subset(), 2, 0.1, 0.05 * f, 0.2 * f)
    assert_witnesses_scale(square_k2, mask, f)


@pytest.mark.parametrize("f", FACTORS)
def test_square_boundary_packing_and_measure_scale(square, f):
    boundary = square.subsets["boundary"]
    scaled_boundary = scaled(square, f).subsets["boundary"]
    assert (packing_ids(scaled_boundary.space, scaled_boundary.indices, 0.12 * f,
                        "intrinsic").tolist()
            == packing_ids(square, boundary.indices, 0.12, "intrinsic").tolist())
    assert (hausdorff_measure_estimate(scaled_boundary, 1, 0.12 * f, "intrinsic")
            == f * hausdorff_measure_estimate(boundary, 1, 0.12, "intrinsic"))


@pytest.mark.parametrize("f", FACTORS)
def test_sphere_strainers_scale(sphere_k2, f):
    # kappa = 1 becomes 1/4 at f = 2 and 4 at f = 1/2
    sphere, sphere_mask = sphere_k2
    mask = classify(scaled(sphere, f).all_points_subset(), 2, 0.2, 0.3 * f, 1.2 * f)
    assert_witnesses_scale(sphere_mask, mask, f)


def twelve_gon_outputs(space, f):
    """A k = 1 witness, its chart and openness, the boundary's extremality
    check and a gradient curve on the filled 12-gon scaled by f."""
    boundary = space.subsets["boundary"]
    p, q = (int(boundary.indices[boundary.size // 7]),
            int(boundary.indices[boundary.size // 2]))
    strainer = find_strainer(space, p, 1, 0.2, 0.1 * f, 0.4 * f)
    chart = build_chart(boundary, strainer, radius=0.2 * f)
    h = space.resolution
    curve = gradient_curve(space, q, p, FlowConfig(step=3 * h, witness_radius=6 * h))
    return (strainer, chart, openness_measure(chart), extremality_check(boundary), curve)


@pytest.mark.parametrize("f", FACTORS)
def test_twelve_gon_chart_flow_and_extremality_scale(f):
    space = models.gen_regular_polygon(12, 0.04)
    w, chart, openness, extremality, curve = twelve_gon_outputs(space, 1.0)
    ws, chart_s, openness_s, extremality_s, curve_s = twelve_gon_outputs(scaled(space, f), f)
    assert (ws.pairs, ws.delta_achieved, ws.length) == (w.pairs, w.delta_achieved,
                                                        w.length * f)
    assert np.array_equal(chart_s.region, chart.region) and chart_s.stats == chart.stats
    assert np.array_equal(chart_s.values, chart.values * f)
    assert openness_s == {**openness, "probe_radius": openness["probe_radius"] * f}
    assert extremality_s == extremality and extremality["local_minima_checked"] > 0
    assert (curve_s.points.tolist(), curve_s.kind, curve_s.meta) == (
        curve.points.tolist(), curve.kind, curve.meta)
    assert curve_s.step == curve.step * f


@pytest.mark.parametrize("f", FACTORS)
def test_collar_projection_scales(f):
    # the collar-32gon workload's projection
    space = models.gen_regular_polygon(32, 0.04, circumradius=0.6)
    gmap = build_projection(space.subsets["boundary"], 1, 0.25, 0.1, 0.16, rho=0.03)
    gmap_s = build_projection(scaled(space, f).subsets["boundary"], 1, 0.25, 0.1 * f,
                              0.16 * f, rho=0.03 * f)
    assert np.array_equal(gmap_s.assignment, gmap.assignment)
    lengths = {"pair_floor", "displacement_excess_max", "displacement_budget_4h"}
    assert projection_quality(gmap_s) == {
        key: value * f if key in lengths else value
        for key, value in projection_quality(gmap).items()}
