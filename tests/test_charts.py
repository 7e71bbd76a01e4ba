import math
import warnings

import numpy as np
import pytest

from alexkit import models
from alexkit.charts import (build_chart, direction_defects, direction_grid,
                            intrinsic_shortest_path, metric_comparison,
                            openness_measure, quasigeodesic_check)
from alexkit.errors import KitError, Refusal
from alexkit.space import Curve, intrinsic_metric
from alexkit.strainers import find_strainer

UNIT_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


def edge_midpoint_strainer(space, subset, target_xy, ell, delta=0.1,
                           search_radius=None):
    ids = subset.indices
    base = int(ids[np.argmin(np.linalg.norm(
        space.coords[ids] - np.asarray(target_xy), axis=1))])
    s = find_strainer(space, base, 1, delta=delta, ell=ell,
                      search_radius=search_radius or 3 * ell)
    assert s is not None
    return s


@pytest.fixture(scope="module")
def boundary_space():
    return models.gen_convex_polygon(UNIT_SQUARE, 0.01, interior=False)


class TestBuildChart:
    def test_straight_edge_intrinsic_ratios_exactly_one(self, boundary_space):
        space = boundary_space
        sub = space.subsets["boundary"]
        s = edge_midpoint_strainer(space, sub, (0.5, 0.0), ell=0.06)
        chart = build_chart(sub, s, radius=0.1)
        # region stays on one straight edge: collinear with the strainer
        assert chart.stats["intrinsic"]["max_abs_dev"] < 1e-9
        assert chart.stats["extrinsic"]["max_abs_dev"] < 1e-9

    def test_values_recomputable_from_matrix(self, boundary_space):
        space = boundary_space
        sub = space.subsets["boundary"]
        s = edge_midpoint_strainer(space, sub, (0.5, 0.0), ell=0.06)
        chart = build_chart(sub, s, radius=0.1)
        a = s.pairs[0][0]
        for row, x in zip(chart.values, chart.region):
            assert row[0] == space.dist[a, x]

    def test_components_individually_1_lipschitz(self, boundary_space):
        space = boundary_space
        sub = space.subsets["boundary"]
        s = edge_midpoint_strainer(space, sub, (0.5, 0.0), ell=0.06)
        chart = build_chart(sub, s, radius=0.3)
        d = space.dist[np.ix_(chart.region, chart.region)]
        for col in range(chart.k):
            f = chart.values[:, col]
            diff = np.abs(f[:, None] - f[None, :])
            assert np.all(diff <= d + 1e-12)

    def test_hundred_gon_corner_chart_bound(self):
        space = models.gen_regular_polygon(100, 0.002, interior=False)
        sub = space.subsets["boundary"]
        edge = space.annotations["extra"]["perimeter"] / 100
        s = edge_midpoint_strainer(space, sub, tuple(space.coords[0]),
                                   ell=edge / 3, delta=0.15,
                                   search_radius=edge)
        # below the strainer length, so the region holds no strainer point
        chart = build_chart(sub, s, radius=s.length / 2)
        # exact planar trigonometry: deficits are corner-turn effects
        assert chart.stats["intrinsic"]["max_abs_dev"] <= 3 * (2 * math.pi / 100)
        assert chart.stats["extrinsic"]["max_abs_dev"] <= 3 * (2 * math.pi / 100)

    def test_missing_strainer_refused(self):
        space = models.gen_segment(1.0, 0.01)
        sub = space.all_points_subset()
        # no pair at a segment endpoint has a positive comparison angle
        s = find_strainer(space, 0, 1, 0.05, 0.1, 0.3)
        assert s is None
        with pytest.raises(Refusal):
            build_chart(sub, s)

    def test_region_without_intrinsic_pairs_refused(self):
        # every tenth point of a segment at h = 0.01: 0.1 apart, beyond the
        # link radius 3h, so every pair of the region is at d_E = inf
        space = models.gen_segment(1.0, 0.01)
        sparse = space.subset(np.arange(0, space.n_points, 10), name="sparse")
        s = find_strainer(space, 50, 1, 0.05, 0.1, 0.3)
        with pytest.raises(Refusal, match="^no usable pairs in chart region$"):
            build_chart(sparse, s, radius=0.25)

    def test_tiny_region_refused(self, boundary_space):
        space = boundary_space
        sub = space.subsets["boundary"]
        s = edge_midpoint_strainer(space, sub, (0.5, 0.0), ell=0.06)
        with pytest.raises(Refusal):
            build_chart(sub, s, radius=1e-6)


class TestDirectionGrid:
    def test_k3_is_count_squared_unit_vectors(self):
        dirs = direction_grid(3, 4)
        assert dirs.shape == (16, 3)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.unique(dirs, axis=0).shape == (16, 3)

    def test_k4_refused(self):
        with pytest.raises(Refusal, match="^direction grids implemented for k <= 3, "
                                          "got k = 4$"):
            direction_grid(4, 16)


class TestOpenness:
    def test_segment_interior_realizes_both_directions(self):
        space = models.gen_segment(1.0, 0.01)
        sub = space.subsets["all"]
        s = find_strainer(space, 50, 1, 0.05, 0.1, 0.3)
        chart = build_chart(sub, s, radius=0.2)
        out = openness_measure(chart)
        assert out["eps_open"] < 0.01

    def test_segment_endpoint_direction_unrealizable(self):
        space = models.gen_segment(1.0, 0.01)
        # subset clipped at its end point 29, which the space strains:
        # the outward direction has no probes
        sub = space.subset(np.arange(0, 30), name="tail")
        s = find_strainer(space, int(sub.indices[-1]), 1, 0.05, 0.1, 0.3)
        chart = build_chart(sub, s, radius=0.25)
        out = openness_measure(chart)
        assert out["eps_open"] > 1.0

    def test_boundary_edge_midpoint_small_defect(self, boundary_space):
        space = boundary_space
        sub = space.subsets["boundary"]
        ell = 0.06
        s = edge_midpoint_strainer(space, sub, (0.5, 0.0), ell=ell)
        chart = build_chart(sub, s, radius=0.1)
        out = openness_measure(chart)
        assert out["eps_open"] <= 0.05 + 4 * 0.01 / ell

    def test_k2_defect_falls_with_h_toward_the_sample_direction_gap(self):
        """A 2-chart at the filled square's centre, of radius 2h, probed within
        4h.  Its defect is at most the sample's own direction gap (the probe
        directions miss some direction by that much, the same at every h, as
        the lattice scales with h) plus the chart map's departure from a
        linear isometry over a probe: each distance coordinate, from a
        strainer point at least ell away, bends by at most 4h / 2ell over a
        probe and turns by at most 2h / ell from the base, so by at most
        4 sqrt(2) h / ell for the pair.  The departure falls with h."""
        ell = 0.3
        eps = []
        for h in (0.05, 0.04, 0.025):
            space = models.gen_convex_polygon(UNIT_SQUARE, h)
            centre = int(np.argmin(np.linalg.norm(space.coords - 0.5, axis=1)))
            s = find_strainer(space, centre, 2, 0.2, ell, 0.5)
            chart = build_chart(space.all_points_subset(), s, radius=2 * h)
            out = openness_measure(chart)
            assert out["probe_radius"] == 4 * h and out["skipped_points"] == 0
            dirs = direction_grid(2, 360)
            gap = max(direction_defects(space.coords, space.coords[p], space.dist[p],
                                        4 * h, dirs).max() for p in chart.region)
            assert out["eps_open"] <= gap + 4 * math.sqrt(2) * h / ell
            eps.append(out["eps_open"])
        assert eps[0] > eps[1] > eps[2]


class TestMetricComparison:
    def test_edge_midpoint_ratio_one(self, boundary_space):
        space = boundary_space
        sub = space.subsets["boundary"]
        mid = int(sub.indices[np.argmin(np.linalg.norm(
            space.coords[sub.indices] - np.array([0.5, 0.0]), axis=1))])
        out = metric_comparison(sub, mid, 0.1)
        assert out["max_ratio"] == pytest.approx(1.0, abs=4 * 0.01 / 0.1)

    def test_corner_ratio_near_sqrt2(self, boundary_space):
        space = boundary_space
        sub = space.subsets["boundary"]
        corner = space.annotations["subsets"]["boundary"]["singular_ids"][0]
        out = metric_comparison(sub, corner, 0.1)
        assert out["max_ratio"] >= 1.3
        assert out["max_ratio"] <= math.sqrt(2) + 0.02

    @pytest.mark.parametrize("radius, reason", [
        (0.04, "fewer than 2 subset points in the ball"),
        (0.25, "all pairs disconnected in the intrinsic metric"),
    ])
    def test_ball_without_intrinsic_pairs_refused(self, radius, reason):
        # every tenth point of a segment at h = 0.01, beyond the link radius
        space = models.gen_segment(1.0, 0.01)
        sparse = space.subset(np.arange(0, space.n_points, 10), name="sparse")
        with pytest.raises(Refusal, match=f"^{reason}$"):
            metric_comparison(sparse, 50, radius)

    def test_convex_square_ratio_one(self):
        space = models.gen_convex_polygon(UNIT_SQUARE, 0.04)
        sub = space.all_points_subset()
        center = int(np.argmin(np.linalg.norm(space.coords - 0.5, axis=1)))
        out = metric_comparison(sub, center, 0.3)
        assert out["max_ratio"] <= 1.1


@pytest.fixture(scope="module")
def square_with_interior():
    return models.gen_convex_polygon(UNIT_SQUARE, 0.02)


class TestQuasigeodesic:
    def test_straight_chord_has_no_violation(self, square_with_interior):
        space = square_with_interior
        # points along the bottom edge form a straight chord
        sub = space.subsets["boundary"]
        edge_ids = [int(i) for i in sub.indices
                    if space.coords[i][1] == 0.0 and 0.1 < space.coords[i][0] < 0.9]
        edge_ids.sort(key=lambda i: space.coords[i][0])
        curve = Curve(points=np.asarray(edge_ids), step=0.02)
        center = int(np.argmin(np.linalg.norm(space.coords - 0.5, axis=1)))
        out = quasigeodesic_check(space, curve, center)
        assert out["max_violation"] <= 1e-9

    def test_boundary_geodesic_around_corner(self, square_with_interior):
        space = square_with_interior
        sub = space.subsets["boundary"]
        ids = sub.indices
        start = int(ids[np.argmin(np.linalg.norm(
            space.coords[ids] - np.array([0.5, 0.0]), axis=1))])
        end = int(ids[np.argmin(np.linalg.norm(
            space.coords[ids] - np.array([1.0, 0.5]), axis=1))])
        path = intrinsic_shortest_path(sub, start, end)
        assert path.kind == "intrinsic-geodesic"
        center = int(np.argmin(np.linalg.norm(space.coords - np.array([0.4, 0.6]),
                                              axis=1)))
        out = quasigeodesic_check(space, path, center)
        assert out["max_violation"] <= 1e-6 + 4 * 0.02

    def test_path_from_a_point_to_itself(self, square_with_interior):
        space = square_with_interior
        sub = space.subsets["boundary"]
        p = int(sub.indices[5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            path = intrinsic_shortest_path(sub, p, p)
        assert path.points.tolist() == [p]
        assert path.step == 0.0 and path.meta["length"] == 0.0

    def test_no_path_between_link_components(self, square_with_interior):
        # two pieces of the bottom edge, 0.3 > 3h apart: d_E between them is
        # inf, so there is no intrinsic path to jump the gap with
        space = square_with_interior
        x, y = space.coords[space.subsets["boundary"].indices].T
        bottom = space.subsets["boundary"].indices[(y == 0) & ((x < 0.3) | (x > 0.6))]
        sub = space.subset(bottom, name="two-pieces")
        start, end = int(bottom[0]), int(bottom[-1])
        assert np.isinf(intrinsic_metric(sub, [start])[0, sub.position(end)])
        with pytest.raises(KitError, match="in different link components"):
            intrinsic_shortest_path(sub, start, end)
        assert intrinsic_shortest_path(sub, start, int(bottom[1])).points.size == 2

    def test_zigzag_negative_control(self, square_with_interior):
        space = square_with_interior
        # sawtooth between two horizontal lines: not unit-speed for its
        # claimed parametrization, so monotonicity must fail badly
        xs = np.arange(0.1, 0.9, 0.04)
        pts = []
        for k, x in enumerate(xs):
            y = 0.3 if k % 2 == 0 else 0.42
            pts.append(int(np.argmin(np.linalg.norm(
                space.coords - np.array([x, y]), axis=1))))
        gaps = space.dist[pts[:-1], pts[1:]]
        curve = Curve(points=np.asarray(pts), step=float(np.median(gaps)))
        viewpoint = int(np.argmin(np.linalg.norm(
            space.coords - np.array([0.5, 0.95]), axis=1)))
        out = quasigeodesic_check(space, curve, viewpoint)
        assert out["max_violation"] > 0.1

    @pytest.mark.parametrize("points, reason", [
        ([0, 1], "path too short for a monotonicity check"),
        ([0, 1, 5], "path is not arc-length parametrized at its declared step"),
    ])
    def test_short_or_uneven_path_refused(self, points, reason):
        space = models.gen_segment(1.0, 0.01)
        curve = Curve(points=np.array(points), step=0.01)
        with pytest.raises(Refusal, match=f"^{reason}$"):
            quasigeodesic_check(space, curve, 50)

    def test_viewpoint_on_path_rejected(self, square_with_interior):
        space = square_with_interior
        curve = Curve(points=np.array([0, 1, 2, 3]), step=0.02)
        with pytest.raises(KitError):
            quasigeodesic_check(space, curve, 2)


class TestDistortionTrend:
    @staticmethod
    def ngon_edge_chart(n, h=0.002):
        space = models.gen_regular_polygon(n, h, interior=False)
        sub = space.subsets["boundary"]
        edge = space.annotations["extra"]["perimeter"] / n
        # delta falls with n but stays above the vertex margin 2*pi/n
        s = edge_midpoint_strainer(space, sub, tuple(space.coords[0]),
                                   ell=edge / 3, delta=0.3 * 25 / n,
                                   search_radius=edge)
        return build_chart(sub, s, radius=s.length / 2)

    # max|ratio - 1| along a refinement family with delta and h falling together
    @staticmethod
    def max_abs_devs(charts, metric="extrinsic"):
        return [c.stats[metric]["max_abs_dev"] for c in charts]

    def test_refining_polygon_charts_improve(self):
        charts = [self.ngon_edge_chart(n) for n in (25, 50, 100)]
        for metric in ("extrinsic", "intrinsic"):
            seq = self.max_abs_devs(charts, metric)
            assert seq[0] > seq[1] > seq[2]
            assert seq[-1] <= 0.05

    def test_flat_charts_saturate_at_zero(self):
        space = models.gen_convex_polygon(UNIT_SQUARE, 0.01, interior=False)
        sub = space.subsets["boundary"]
        charts = []
        for radius in (0.12, 0.1, 0.08):
            s = edge_midpoint_strainer(space, sub, (0.5, 0.0), ell=0.06)
            charts.append(build_chart(sub, s, radius=radius))
        assert all(v < 1e-9 for v in self.max_abs_devs(charts))

    def test_corner_anchored_charts_flagged(self):
        charts = []
        for n, h in ((25, 0.004), (25, 0.002), (25, 0.001)):
            space = models.gen_regular_polygon(n, h, interior=False)
            sub = space.subsets["boundary"]
            corner = space.annotations["subsets"]["boundary"]["singular_ids"][0]
            s = find_strainer(space, corner, 1, delta=0.3, ell=0.1,
                              search_radius=0.3)
            assert s is not None  # corner of a 25-gon is mildly strained
            charts.append(build_chart(sub, s, radius=s.length / 2))
        assert not self.max_abs_devs(charts)[-1] <= 0.01
