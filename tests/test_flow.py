import numpy as np
import pytest

from alexkit import models
from alexkit.errors import Refusal
from alexkit.flow import (FlowConfig, dist_gradient_lower_bound, extremal_invariance_test,
                          gradient_curve)
from alexkit.space import Subset

H = 0.05


@pytest.fixture(scope="module")
def square():
    space = models.gen_convex_polygon([(0, 0), (1, 0), (1, 1), (0, 1)], H)
    return space


@pytest.fixture(scope="module")
def cfg():
    return FlowConfig(step=3 * H, witness_radius=6 * H)


def nearest(space, ids, xy):
    return int(ids[np.argmin(np.hypot(*(space.coords[ids] - xy).T))])


def test_step_below_two_pitches_refused(square):
    FlowConfig(step=2 * H, witness_radius=4 * H).check(square)
    with pytest.raises(Refusal, match="below 2h"):
        FlowConfig(step=1.9 * H, witness_radius=4 * H).check(square)


def test_witness_radius_below_the_step_refused(square):
    with pytest.raises(Refusal, match="^witness_radius must be >= step$"):
        FlowConfig(step=3 * H, witness_radius=2.5 * H).check(square)


def test_invariance_refuses_q_in_the_subset_or_starts_outside_it(square, cfg):
    boundary = square.subsets["boundary"]
    inside = np.setdiff1d(np.arange(square.n_points), boundary.indices)
    with pytest.raises(Refusal, match="^q must lie outside the subset"):
        extremal_invariance_test(boundary, int(boundary.indices[0]), boundary.indices[:3], cfg)
    with pytest.raises(Refusal, match="^starts must lie in the subset$"):
        extremal_invariance_test(boundary, int(inside[0]), inside[1:3], cfg)


def test_gradient_bound_refuses_an_empty_band(square, cfg):
    # no point of the unit square is further than 0.5 from its boundary
    with pytest.raises(Refusal, match="^band contains no ambient sample points$"):
        dist_gradient_lower_bound(square.subsets["boundary"], {"inner": 0.6, "outer": 0.7},
                                  cfg)


def test_derivative_is_one_straight_away_from_q():
    segment = models.gen_segment(1.0, 0.1)
    # x = 0.5 lies between q = 0 and the witnesses beyond it on the segment
    curve = gradient_curve(segment, 0, 5, FlowConfig(0.2, 0.5, max_steps=1))
    assert curve.meta["derivatives"] == [1.0]


def test_gradient_curves_ascend(square, cfg):
    interior = square.subsets["interior"].indices
    q = nearest(square, interior, (0.5, 0.5))
    starts = [x for x in interior[::7] if x != q]
    for x0 in starts:
        curve = gradient_curve(square, q, int(x0), cfg)
        assert np.all(np.diff(square.dist[q, curve.points]) > 0)
        derivs = np.asarray(curve.meta["derivatives"])
        assert np.all((derivs > cfg.stop_threshold) & (derivs <= 1.0))


def test_invariance_separates_boundary_from_midline(square, cfg):
    c = square.coords
    boundary = square.subsets["boundary"]
    q = nearest(square, square.subsets["interior"].indices, (0.5, 0.15))
    result = extremal_invariance_test(boundary, q, boundary.indices, cfg)
    assert result["max_deviation"] <= 2 * H and not result["stalls"]

    # the lattice row closest to y = 0.5, away from the sides: not extremal
    interior = square.subsets["interior"].indices
    rows = np.unique(c[interior, 1])
    row = rows[np.argmin(np.abs(rows - 0.5))]
    on_row = interior[(c[interior, 1] == row) & (np.abs(c[interior, 0] - 0.5) < 0.35)]
    midline = Subset(square, on_row, name="midline")
    result = extremal_invariance_test(midline, q, midline.indices, cfg)
    assert result["max_deviation"] > 5 * H


def test_invariance_records_a_stall_where_the_annulus_is_empty():
    segment = models.gen_segment(1.0, 0.1)
    # samples lie at whole multiples of h, none in [2.5h, 2.9h]
    cfg = FlowConfig(step=0.25, witness_radius=0.29)
    left = Subset(segment, np.arange(5), name="left")
    result = extremal_invariance_test(left, 10, [1, 3], cfg)
    assert result["max_deviation"] == 0.0 and result["per_start"] == {}
    assert sorted(result["stalls"]) == [1, 3]
    assert result["stalls"][3] == "no candidates in annulus [0.25, 0.29] around 3"


def test_boundary_distance_has_a_gradient_on_a_band(square, cfg):
    out = dist_gradient_lower_bound(square.subsets["boundary"],
                                    {"inner": 2 * H, "outer": 4 * H}, cfg)
    assert out["band_points"] > 0
    assert out["epsilon"] > 0 and not out["flagged"]
