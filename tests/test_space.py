import math

import numpy as np
import pytest

from alexkit import models
from alexkit import space as space_module
from alexkit.errors import KitError, Refusal
from alexkit.space import (Space, ball, extremality_check,
                           hausdorff_measure_estimate, intrinsic_metric,
                           packing_dimension_estimate, packing_number, validate)

UNIT_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


@pytest.fixture(scope="module")
def square():
    space, ann = models.gen_convex_polygon(UNIT_SQUARE, 0.05)
    return space, ann


class TestValidate:
    def test_grid_sample_passes(self, square):
        space, _ = square
        assert validate(space).passed

    def test_asymmetric_matrix_fails_naming_pair(self):
        d = np.array([[0, 1.0, 1], [2.0, 0, 1], [1, 1, 0]])
        rep = validate(Space("bad", 0.0, d))
        fail = [c for c in rep.failures() if c.name == "symmetry"]
        assert fail and set(fail[0].worst) == {0, 1}

    def test_triangle_violation_fails_with_triple(self):
        d = np.array([[0, 1, 5.0], [1, 0, 1], [5.0, 1, 0]])
        rep = validate(Space("bad", 0.0, d))
        fail = [c for c in rep.failures() if c.name == "triangle_inequality"]
        assert fail and set(fail[0].worst) == {0, 1, 2}

    def test_positive_curvature_diameter_bound(self):
        d = np.array([[0, 4.0], [4.0, 0]])
        rep = validate(Space("bad", 1.0, d))
        assert not rep.passed
        assert any(c.name == "diameter_bound" for c in rep.failures())

    def test_nan_distance_fails_positivity(self):
        d = np.array([[0, 1.0, np.nan], [1.0, 0, 1], [1, 1, 0]])
        rep = validate(Space("bad", 0.0, d))
        fail = [c for c in rep.failures() if c.name == "positivity"]
        assert fail and fail[0].worst == (0, 2) and "nan" in fail[0].detail

    def test_row_blocks_do_not_change_the_report(self, monkeypatch):
        rng = np.random.default_rng(1)
        d = rng.uniform(1, 2, (40, 40))
        d = d + d.T
        np.fill_diagonal(d, 0)
        d[30, 5] += 0.5          # the same asymmetry twice: (5, 30) is first
        d[7, 12] += 0.5
        d[35, 36] = d[36, 35] = 0.1  # the least distance twice: (4, 9) is first
        d[4, 9] = d[9, 4] = 0.1
        whole = validate(Space("bad", 0.0, d)).to_dict()
        monkeypatch.setattr(space_module, "VALIDATE_BLOCK_ELEMENTS", 1)
        assert validate(Space("bad", 0.0, d)).to_dict() == whole
        checks = {c["name"]: c["worst"] for c in whole["checks"]}
        assert checks["symmetry"] == [5, 30] and checks["positivity"] == [4, 9]

    def test_random_triple_mode_on_large_space(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1, (400, 2))
        diff = pts[:, None] - pts[None]
        d = np.sqrt((diff**2).sum(-1))
        np.fill_diagonal(d, 0)
        assert validate(Space("big", 0.0, d)).passed


class TestBall:
    def test_zero_radius_is_empty(self, square):
        space, _ = square
        assert ball(space, 0, 0.0).size == 0

    def test_positive_radius_contains_center(self, square):
        space, _ = square
        assert 0 in ball(space, 0, 0.01)

    def test_radius_beyond_diameter_is_everything(self, square):
        space, _ = square
        assert ball(space, 0, space.diameter + 1).size == space.n_points

    def test_segment_ball_matches_direct_scan(self):
        space, _ = models.gen_segment(1.0, 0.1)
        p = 5  # the point at 0.5
        got = set(ball(space, p, 0.25).tolist())
        want = {i for i in range(space.n_points)
                if abs(i * 0.1 - 0.5) < 0.25}
        assert got == want
        assert got == {3, 4, 5, 6, 7}


class TestIntrinsicMetric:
    def test_square_boundary_opposite_corners(self):
        space, ann = models.gen_convex_polygon(UNIT_SQUARE, 0.01, interior=False)
        sub = space.subsets["boundary"]
        d_e = intrinsic_metric(sub)
        corners = ann.subsets["boundary"].singular_ids
        i, j = sub.position(corners[0]), sub.position(corners[2])
        # two edges along the boundary, against the sqrt(2) chord
        assert d_e[i, j] == pytest.approx(2.0, abs=0.02)
        assert space.dist[corners[0], corners[2]] == pytest.approx(math.sqrt(2))

    def test_positions_of_members_and_refusal_of_others(self):
        space, _ = models.gen_segment(1.0, 0.25)
        sub = space.subset([1, 3, 4], name="odd")
        assert sub.position(3) == 1 and isinstance(sub.position(3), int)
        assert sub.position([4, 1]).tolist() == [2, 0]
        for outside in (0, 2, [1, 2], 5):
            with pytest.raises(KitError, match="not in subset 'odd'"):
                sub.position(outside)

    def test_convex_space_intrinsic_equals_ambient(self, square):
        space, _ = square
        sub = space.all_points_subset()
        d_e = intrinsic_metric(sub)
        assert np.all(d_e <= space.dist + 2 * sub.link_radius + 1e-9)

    def test_lower_bound_by_ambient(self, square):
        space, _ = square
        sub = space.subsets["boundary"]
        d_e = intrinsic_metric(sub)
        assert np.all(d_e >= sub.ambient_matrix() - 1e-12)

    def test_disconnected_pair_is_inf_and_flagged(self):
        coords = np.array([[0, 0], [0.1, 0], [5, 0], [5.1, 0.0]])
        diff = coords[:, None] - coords[None]
        d = np.sqrt((diff**2).sum(-1))
        np.fill_diagonal(d, 0)
        space = Space("two-clusters", 0.0, d, coords=coords, resolution=0.1)
        sub = space.all_points_subset()
        d_e = intrinsic_metric(sub)
        assert np.isinf(d_e[0, 2])
        assert sub.has_disconnected_pairs()

    def test_memoized(self, square):
        space, _ = square
        sub = space.subsets["boundary"]
        assert intrinsic_metric(sub) is intrinsic_metric(sub)


class TestPackingNumber:
    def test_exact_on_25_point_segment(self):
        # pitch 1/24 fits 4 points with pairwise gaps 1/3 > 0.3
        space, _ = models.gen_segment(1.0, 1.0 / 24.0)
        assert space.n_points == 25
        ids = np.arange(space.n_points)
        assert packing_number(space, ids, 0.3, method="exact") == 4

    def test_greedy_is_a_lower_bound_of_exact(self):
        space, _ = models.gen_segment(1.0, 1.0 / 24.0)
        ids = np.arange(space.n_points)
        greedy = packing_number(space, ids, 0.3)
        assert greedy <= 4
        assert greedy >= 3

    def test_exact_refuses_large_inputs(self):
        space, _ = models.gen_segment(1.0, 0.01)
        with pytest.raises(Refusal):
            packing_number(space, np.arange(space.n_points), 0.3, method="exact")

    def test_eps_beyond_diameter(self, square):
        space, _ = square
        assert packing_number(space, np.arange(space.n_points), 10.0) == 1

    def test_tiny_eps_counts_everything(self, square):
        space, _ = square
        n = space.n_points
        assert packing_number(space, np.arange(n), 1e-9) == n

    def test_nonincreasing_in_eps(self, square):
        space, _ = square
        ids = np.arange(space.n_points)
        values = [packing_number(space, ids, e)
                  for e in (0.05, 0.1, 0.2, 0.4, 0.8)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_monotone_in_subset(self, square):
        space, ann = square
        small = ann.subsets["boundary"].ids[:40]
        big = ann.subsets["boundary"].ids
        assert (packing_number(space, small, 0.1)
                <= packing_number(space, big, 0.1))


class TestMeasureEstimate:
    def test_unit_segment_calibration_point(self):
        space, _ = models.gen_segment(1.0, 0.05 / 25.95)
        est = hausdorff_measure_estimate(space.subsets["all"], 1, 0.05)
        assert est == pytest.approx(1.0, abs=0.05)

    def test_square_boundary_perimeter_both_metrics(self):
        space, _ = models.gen_convex_polygon(
            UNIT_SQUARE, 0.02 / 25.95, interior=False, boundary_mode="loop-uniform")
        sub = space.subsets["boundary"]
        ext = hausdorff_measure_estimate(sub, 1, 0.02, "extrinsic")
        intr = hausdorff_measure_estimate(sub, 1, 0.02, "intrinsic")
        assert ext == pytest.approx(4.0, abs=0.2)
        assert intr == pytest.approx(4.0, abs=0.2)
        assert abs(ext - intr) / ext < 0.05

    def test_intrinsic_at_least_extrinsic_up_to_tolerance(self):
        space, _ = models.gen_convex_polygon(
            UNIT_SQUARE, 0.02 / 25.95, interior=False, boundary_mode="loop-uniform")
        sub = space.subsets["boundary"]
        ext = hausdorff_measure_estimate(sub, 1, 0.02, "extrinsic")
        intr = hausdorff_measure_estimate(sub, 1, 0.02, "intrinsic")
        assert intr >= ext * 0.95

    def test_refuses_eps_below_resolution(self):
        space, _ = models.gen_segment(1.0, 0.05)
        with pytest.raises(Refusal):
            hausdorff_measure_estimate(space.subsets["all"], 1, 0.05)


DRIFT_KILL = 1.0 - 1e-9


class TestPackingDimension:
    def test_square_interior(self):
        h = 0.0125
        space, ann = models.gen_convex_polygon(UNIT_SQUARE, h, lattice="square")
        grid = [q * h * DRIFT_KILL for q in (3, 4, 6, 10, 16, 30)]
        out = packing_dimension_estimate(space, ann.subsets["interior"].ids, grid)
        assert out["dimension"] == pytest.approx(2.0, abs=0.15)

    def test_square_boundary(self):
        space, ann = models.gen_convex_polygon(UNIT_SQUARE, 0.01, interior=False)
        grid = [q * 0.01 * DRIFT_KILL for q in (3, 5, 10, 15, 30)]
        out = packing_dimension_estimate(space, ann.subsets["boundary"].ids, grid)
        assert out["dimension"] == pytest.approx(1.0, abs=0.15)

    def test_single_point_is_zero_dimensional(self):
        space, _ = models.gen_segment(1.0, 0.01)
        out = packing_dimension_estimate(space, [7], [0.05, 0.2, 0.5])
        assert out["dimension"] == pytest.approx(0.0, abs=1e-9)

    def test_refuses_narrow_grid(self):
        space, _ = models.gen_segment(1.0, 0.01)
        with pytest.raises(Refusal):
            packing_dimension_estimate(space, np.arange(space.n_points),
                                       [0.1, 0.2, 0.4])

    def test_refuses_grid_below_pitch(self):
        space, _ = models.gen_segment(1.0, 0.01)
        with pytest.raises(Refusal):
            packing_dimension_estimate(space, np.arange(space.n_points),
                                       [0.01, 0.05, 0.2])


class TestExtremalityCheck:
    def test_square_boundary_passes(self):
        space, _ = models.gen_convex_polygon(UNIT_SQUARE, 0.02)
        rep = extremality_check(space.subsets["boundary"], witness_radius=0.2)
        assert rep.passed
        assert rep.worst_excess <= rep.angle_tol

    def test_sharp_cone_vertex_passes(self):
        space, _ = models.gen_cone(math.pi / 2, 0.5, 0.025)
        rep = extremality_check(space.subsets["vertex"], witness_radius=0.2)
        assert rep.passed

    def test_wide_cone_vertex_fails(self):
        space, _ = models.gen_cone(1.5 * math.pi, 0.5, 0.025)
        rep = extremality_check(space.subsets["vertex"], witness_radius=0.2)
        assert not rep.passed
        # a witness direction continues past the vertex: excess ~ pi/4
        assert rep.worst_excess > 0.5

    def test_interior_point_fails(self):
        space, _ = models.gen_convex_polygon(UNIT_SQUARE, 0.02)
        center = int(np.argmin(np.linalg.norm(space.coords - 0.5, axis=1)))
        sub = space.subset([center], name="one-interior-point")
        rep = extremality_check(sub, witness_radius=0.2)
        assert not rep.passed
        assert rep.worst_excess > 1.0
