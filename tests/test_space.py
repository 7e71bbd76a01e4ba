import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from alexkit import models
from alexkit import space as space_module
from alexkit.charts import metric_comparison
from alexkit.errors import KitError, Refusal
from alexkit.flow import FlowConfig, dist_gradient_lower_bound
from alexkit.glue import NET_MIN_PITCH_FACTOR, discrete_net
from alexkit.io import dumps_stable
from alexkit.space import (ROW_BLOCK_ELEMENTS, Space, ball, calibration_constant,
                           distance_to, effective_spacing, euclidean_matrix, extremality_check,
                           greedy_packing_ids, hausdorff_measure_estimate,
                           intrinsic_metric, packing_dimension_estimate, packing_ids,
                           packing_number, validate)
from alexkit.strainers import local_strainer_number, unstrained_mass

UNIT_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


@pytest.fixture(scope="module")
def square():
    return models.gen_convex_polygon(UNIT_SQUARE, 0.05)


def one_temporary_euclidean_matrix(coords, others=None):
    """The reference: the whole matrix summed one axis at a time, unblocked."""
    others = coords if others is None else others
    d = np.zeros((len(coords), len(others)))
    for x, y in zip(coords.T, others.T):
        diff = np.subtract.outer(x, y)
        diff *= diff
        d += diff
    return np.sqrt(d, out=d)


class TestEuclideanMatrix:
    # with 256 columns a block holds 256 rows; 256 rows is one block exactly
    @pytest.mark.parametrize("rows", [1, 255, 256, 257, 513])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_blocks_give_the_unblocked_bits(self, rows, dim):
        assert ROW_BLOCK_ELEMENTS // 256 == 256
        rng = np.random.default_rng(rows * dim)
        coords, others = rng.normal(size=(rows, dim)), rng.normal(size=(256, dim))
        got = euclidean_matrix(coords, others)
        assert got.tobytes() == one_temporary_euclidean_matrix(coords, others).tobytes()

    @pytest.mark.parametrize("n", [255, 256, 257, 600])
    def test_square_blocks_give_the_unblocked_bits(self, n):
        coords = np.random.default_rng(n).uniform(-3, 3, size=(n, 2))
        got = euclidean_matrix(coords)
        assert got.tobytes() == one_temporary_euclidean_matrix(coords).tobytes()
        assert not np.diag(got).any()

    @pytest.mark.parametrize("elements", [1, 7, 100])
    def test_tiny_blocks_give_the_unblocked_bits(self, elements, monkeypatch):
        # blocks of one row (fewer elements than a row holds) and ragged ends
        coords = np.random.default_rng(elements).normal(size=(23, 2))
        want = one_temporary_euclidean_matrix(coords)
        monkeypatch.setattr(space_module, "ROW_BLOCK_ELEMENTS", elements)
        assert euclidean_matrix(coords).tobytes() == want.tobytes()


@st.composite
def coordinates_and_blocks(draw):
    """Coordinates of n points drawn from fewer distinct ones, so points
    repeat, and two id lists into them (repeats and empty lists included)."""
    n, dim = draw(st.integers(1, 12)), draw(st.integers(1, 3))
    pool = draw(hnp.arrays(np.float64, (draw(st.integers(1, n)), dim),
                           elements=st.floats(-1e3, 1e3)))
    coords = pool[draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))]
    ids = st.lists(st.integers(0, n - 1), max_size=2 * n).map(lambda i: np.array(i, dtype=int))
    return coords, draw(ids), draw(ids)


def count_matrix_builds(monkeypatch) -> list:
    """Patch the space module's euclidean_matrix to record each whole-matrix
    build (a call without ``others``) and return the record."""
    builds, build = [], space_module.euclidean_matrix

    def counted(coords, others=None):
        if others is None:
            builds.append(len(coords))
        return build(coords, others)

    monkeypatch.setattr(space_module, "euclidean_matrix", counted)
    return builds


class TestBlock:
    """A coordinate space's blocks before its matrix is built are the
    built matrix's blocks, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(coordinates_and_blocks())
    def test_an_unbuilt_block_is_the_matrix_block(self, case):
        coords, rows, cols = case
        lazy, built = Space("lazy", 0.0, coords=coords), Space("built", 0.0, coords=coords)
        want = built.dist[np.ix_(rows, cols)]
        assert lazy.block(rows, cols).tobytes() == want.tobytes()
        assert built.block(rows, cols).tobytes() == want.tobytes()

    def test_a_polygon_block_is_the_matrix_block(self, square):
        lazy = models.gen_convex_polygon(UNIT_SQUARE, 0.05)
        every = np.arange(lazy.n_points)
        assert lazy.block(every, every).tobytes() == square.dist.tobytes()
        rng = np.random.default_rng(0)
        rows, cols = rng.integers(0, lazy.n_points, (2, 300))
        rows[:50] = cols[:50]  # diagonal entries among them
        assert lazy.block(rows, cols).tobytes() == square.dist[np.ix_(rows, cols)].tobytes()
        assert not np.diag(lazy.block(rows, rows)).any()

    def test_only_a_whole_matrix_read_builds_the_matrix(self, monkeypatch):
        builds = count_matrix_builds(monkeypatch)
        space = models.gen_regular_polygon(12, 0.2)
        boundary = space.subsets["boundary"]
        assert space.n_points == len(space.coords)
        space.block(boundary.indices, boundary.indices)
        hausdorff_measure_estimate(boundary, 1, 0.5, "extrinsic")
        hausdorff_measure_estimate(boundary, 1, 0.5, "intrinsic")
        assert builds == []
        dist = space.dist
        assert builds == [space.n_points]
        assert space.dist is dist and builds == [space.n_points]
        assert not dist.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            dist[0, 1] = 1.0

    def test_a_given_matrix_is_read_only_and_blocks_gather_from_it(self):
        # a matrix given beside coordinates wins, whatever the coordinates say
        d = np.array([[0.0, 2.0], [2.0, 0.0]])
        space = Space("given", 0.0, d, coords=[[0.0, 0.0], [1.0, 0.0]])
        assert not space.dist.flags.writeable
        assert space.block([0], [1]).tolist() == [[2.0]]


class TestDistanceTo:
    # blocks of one row, the default, and the whole N x S block at once
    @pytest.mark.parametrize("elements", [1, ROW_BLOCK_ELEMENTS, 2**30])
    def test_blocks_give_the_whole_block_bits(self, elements, monkeypatch):
        space = models.gen_convex_polygon(UNIT_SQUARE, 0.02)
        ids = space.subsets["boundary"].indices
        rows = np.random.default_rng(0).permutation(space.n_points)[:2000]
        want = space.dist[np.ix_(rows, ids)].min(axis=1)
        monkeypatch.setattr(space_module, "ROW_BLOCK_ELEMENTS", elements)
        assert distance_to(space, rows, ids).tobytes() == want.tobytes()


class TestValidate:
    def test_grid_sample_passes(self, square):
        space = square
        assert validate(space)["passed"]

    def test_asymmetric_matrix_fails_naming_pair(self):
        d = np.array([[0, 1.0, 1], [2.0, 0, 1], [1, 1, 0]])
        rep = validate(Space("bad", 0.0, d))
        fail = [c for c in rep["checks"] if not c["passed"] and c["name"] == "symmetry"]
        assert fail and set(fail[0]["worst"]) == {0, 1}

    def test_triangle_violation_fails_with_triple(self):
        d = np.array([[0, 1, 5.0], [1, 0, 1], [5.0, 1, 0]])
        rep = validate(Space("bad", 0.0, d))
        fail = [c for c in rep["checks"]
                if not c["passed"] and c["name"] == "triangle_inequality"]
        assert fail and set(fail[0]["worst"]) == {0, 1, 2}

    def test_positive_curvature_diameter_bound(self):
        d = np.array([[0, 4.0], [4.0, 0]])
        rep = validate(Space("bad", 1.0, d))
        assert not rep["passed"]
        assert any(c["name"] == "diameter_bound" for c in rep["checks"] if not c["passed"])

    def test_nan_distance_fails_positivity(self):
        d = np.array([[0, 1.0, np.nan], [1.0, 0, 1], [1, 1, 0]])
        rep = validate(Space("bad", 0.0, d))
        fail = [c for c in rep["checks"] if not c["passed"] and c["name"] == "positivity"]
        assert fail and fail[0]["worst"] == [0, 2] and "nan" in fail[0]["detail"]

    def test_row_blocks_do_not_change_the_report(self, monkeypatch):
        rng = np.random.default_rng(1)
        d = rng.uniform(1, 2, (40, 40))
        d = d + d.T
        np.fill_diagonal(d, 0)
        d[30, 5] += 0.5          # the same asymmetry twice: (5, 30) is first
        d[7, 12] += 0.5
        d[35, 36] = d[36, 35] = 0.1  # the least distance twice: (4, 9) is first
        d[4, 9] = d[9, 4] = 0.1
        whole = validate(Space("bad", 0.0, d))
        monkeypatch.setattr(space_module, "ROW_BLOCK_ELEMENTS", 1)
        assert validate(Space("bad", 0.0, d)) == whole
        checks = {c["name"]: c["worst"] for c in whole["checks"]}
        assert checks["symmetry"] == [5, 30] and checks["positivity"] == [4, 9]

    def test_random_triple_mode_on_large_space(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1, (400, 2))
        diff = pts[:, None] - pts[None]
        d = np.sqrt((diff**2).sum(-1))
        np.fill_diagonal(d, 0)
        assert validate(Space("big", 0.0, d))["passed"]

    def test_report_is_plain_data(self, square):
        d = np.array([[0, 1.0, np.nan], [1.0, 0, 1], [1, 1, 0]])
        for space in (square, Space("bad", 1.0, d)):
            rep = validate(space)
            assert json.loads(dumps_stable(rep)) == rep


class TestSpaceAndSubset:
    def test_non_square_matrix_is_an_error(self):
        with pytest.raises(KitError, match="^distance matrix must be square$"):
            Space("wide", 0.0, np.zeros((2, 3)))

    def test_a_space_needs_a_matrix_or_coordinates(self):
        with pytest.raises(KitError, match="^a space needs a distance matrix or coordinates$"):
            Space("nothing", 0.0)

    @pytest.mark.parametrize("coords", [[0.0, 1.0], [[0.0], [1.0, 2.0]], [["x"], [1.0]],
                                        [[0.0], [1.0], [2.0]], [[{}], [1.0]]],
                             ids=["scalar", "ragged", "text", "a-row-too-many", "object"])
    def test_coordinates_must_be_one_row_per_point(self, coords):
        with pytest.raises(KitError, match="^coordinates must be one row of numbers per point$"):
            Space("bad", 0.0, np.zeros((2, 2)), coords=coords)

    def test_empty_subset_is_an_error(self, square):
        with pytest.raises(KitError, match="^empty subset$"):
            square.subset([], name="none")
        assert "none" not in square.subsets


class TestBall:
    def test_negative_radius_is_an_error(self, square):
        with pytest.raises(KitError, match="^ball radius must be nonnegative$"):
            ball(square, 0, -0.1)

    def test_zero_radius_is_empty(self, square):
        space = square
        assert ball(space, 0, 0.0).size == 0

    def test_positive_radius_contains_center(self, square):
        space = square
        assert 0 in ball(space, 0, 0.01)

    def test_radius_beyond_diameter_is_everything(self, square):
        space = square
        assert ball(space, 0, space.diameter + 1).size == space.n_points

    def test_segment_ball_matches_direct_scan(self):
        space = models.gen_segment(1.0, 0.1)
        p = 5  # the point at 0.5
        got = set(ball(space, p, 0.25).tolist())
        want = {i for i in range(space.n_points)
                if abs(i * 0.1 - 0.5) < 0.25}
        assert got == want
        assert got == {3, 4, 5, 6, 7}


def dense_mask_link_graph(d, radius):
    """The reference: the link rule's graph from one whole S x S mask."""
    mask = (d > 0) & (d <= radius)
    graph = csr_matrix(mask, dtype=float)
    graph.data = d[mask]  # both in row-major order
    return graph


@pytest.fixture(scope="module")
def link_cases(square):
    """(space, ids) for the filled square, its boundary, and a 25-gon's
    boundary with two arcs cut out, which falls apart into pieces."""
    polygon = models.gen_regular_polygon(25, 0.08, interior=False)
    return {"whole": (square, np.arange(square.n_points)),
            "boundary": (square, square.subsets["boundary"].indices),
            "pieces": (polygon, np.setdiff1d(polygon.subsets["boundary"].indices,
                                             [10, 11, 12, 50, 51, 52]))}


class TestLinkGraph:
    # 1 element: a block of one row; 2**30: all rows in one block
    @pytest.mark.parametrize("elements", [1, ROW_BLOCK_ELEMENTS, 2**30])
    @pytest.mark.parametrize("case", ["whole", "boundary", "pieces"])
    def test_blocks_give_the_dense_mask_graph_bits(self, case, elements, link_cases,
                                                   monkeypatch):
        space, ids = link_cases[case]
        radius = space.link_radius()
        want = dense_mask_link_graph(space.dist[np.ix_(ids, ids)], radius)
        monkeypatch.setattr(space_module, "ROW_BLOCK_ELEMENTS", elements)
        got = space_module.link_graph(space, ids, radius)
        assert got.shape == want.shape == (ids.size, ids.size)
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert got.nnz > 0


class TestIntrinsicMetric:
    def test_square_boundary_opposite_corners(self):
        space = models.gen_convex_polygon(UNIT_SQUARE, 0.01, interior=False)
        sub = space.subsets["boundary"]
        corners = space.annotations["subsets"]["boundary"]["singular_ids"]
        d_e = intrinsic_metric(sub, corners[0])
        # two edges along the boundary, against the sqrt(2) chord
        assert d_e[sub.position(corners[2])] == pytest.approx(2.0, abs=0.02)
        assert space.dist[corners[0], corners[2]] == pytest.approx(math.sqrt(2))

    def test_positions_of_members_and_refusal_of_others(self):
        space = models.gen_segment(1.0, 0.25)
        sub = space.subset([1, 3, 4], name="odd")
        assert sub.position(3) == 1 and isinstance(sub.position(3), int)
        assert sub.position([4, 1]).tolist() == [2, 0]
        for outside in (0, 2, [1, 2], 5):
            with pytest.raises(KitError, match="not in subset 'odd'"):
                sub.position(outside)

    def test_convex_space_intrinsic_equals_ambient(self, square):
        space = square
        sub = space.all_points_subset()
        d_e = intrinsic_metric(sub, sub.indices)
        assert np.all(d_e <= space.dist + 2 * space.link_radius() + 1e-9)

    def test_lower_bound_by_ambient(self, square):
        space = square
        sub = space.subsets["boundary"]
        d_e = intrinsic_metric(sub, sub.indices)
        assert np.all(d_e >= space.dist[np.ix_(sub.indices, sub.indices)] - 1e-12)

    def test_disconnected_pair_is_inf_and_flagged(self):
        coords = np.array([[0, 0], [0.1, 0], [5, 0], [5.1, 0.0]])
        diff = coords[:, None] - coords[None]
        d = np.sqrt((diff**2).sum(-1))
        np.fill_diagonal(d, 0)
        space = Space("two-clusters", 0.0, d, coords=coords, resolution=0.1)
        sub = space.all_points_subset()
        d_e = intrinsic_metric(sub, sub.indices)
        assert np.isinf(d_e[0, 2])
        assert np.isinf(d_e).any()

    @pytest.mark.parametrize("rows", [[0, 3], [60, 0, 41], "all"])
    def test_rows_bitwise_equal_scipy_all_pairs(self, rows):
        # a 25-gon boundary, and the same with two arcs cut out so that it
        # falls apart into components at inf from each other
        space = models.gen_regular_polygon(25, 0.08, interior=False)
        whole = space.subsets["boundary"]
        cut = space.subset(np.setdiff1d(whole.indices, [10, 11, 12, 50, 51, 52]),
                           name="cut")
        for sub in (whole, cut):
            ids = sub.indices if rows == "all" else sub.indices[rows]
            amb = space.dist[np.ix_(sub.indices, sub.indices)]
            graph = csr_matrix(np.where((amb > 0) & (amb <= space.link_radius()), amb, 0.0))
            want = shortest_path(graph, method="D", directed=False)[sub.position(ids)]
            got = intrinsic_metric(sub, ids)
            assert got.tobytes() == want.tobytes()
        assert np.isinf(intrinsic_metric(cut, cut.indices[:1])).any()

    def test_non_member_row_is_refused(self, square):
        space = square
        sub = space.subsets["boundary"]
        with pytest.raises(KitError, match="not in subset"):
            intrinsic_metric(sub, [space.n_points - 1])

    def test_space_without_resolution_is_refused(self):
        space = Space("bare", 0.0, [[0.0, 1.0], [1.0, 0.0]])
        sub = space.all_points_subset()
        with pytest.raises(Refusal, match="no declared resolution"):
            intrinsic_metric(sub, sub.indices)


class TestPackingNumber:
    def test_greedy_is_a_lower_bound_of_the_true_maximum(self):
        # pitch 1/24 on [0, 1]: points > 0.3 apart are >= 8 pitches apart,
        # so at most floor(24 / 8) + 1 = 4 of them fit
        space = models.gen_segment(1.0, 1.0 / 24.0)
        assert space.n_points == 25
        greedy = packing_number(space, np.arange(space.n_points), 0.3)
        assert 3 <= greedy <= 4

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan])
    def test_eps_must_be_positive(self, eps, square):
        space = square
        with pytest.raises(KitError, match="eps must be positive"):
            packing_number(space, [0, 1], eps)

    def test_empty_id_list_packs_nothing(self, square):
        space = square
        assert packing_number(space, [], 0.1) == 0

    def test_eps_beyond_diameter(self, square):
        space = square
        assert packing_number(space, np.arange(space.n_points), 10.0) == 1

    def test_tiny_eps_counts_everything(self, square):
        space = square
        n = space.n_points
        assert packing_number(space, np.arange(n), 1e-9) == n

    def test_nonincreasing_in_eps(self, square):
        space = square
        ids = np.arange(space.n_points)
        values = [packing_number(space, ids, e)
                  for e in (0.05, 0.1, 0.2, 0.4, 0.8)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_monotone_in_subset(self, square):
        space = square
        small = space.annotations["subsets"]["boundary"]["ids"][:40]
        big = space.annotations["subsets"]["boundary"]["ids"]
        assert (packing_number(space, small, 0.1)
                <= packing_number(space, big, 0.1))


@pytest.fixture(scope="module")
def packed_subsets(square):
    """A 12-gon boundary, the square's, and the 12-gon's with two arcs of
    4 pitches cut out, whose intrinsic rows hold inf."""
    space = models.gen_regular_polygon(12, 0.05, circumradius=0.6, interior=False)
    whole = space.subsets["boundary"]
    cut = space.subset(np.delete(whole.indices, np.r_[10:14, 50:54]), name="cut")
    return {"12-gon": whole, "square": square.subsets["boundary"], "cut": cut}


class TestPackingIds:
    @pytest.mark.parametrize("eps", [0.1, 0.25])
    @pytest.mark.parametrize("name", ["12-gon", "square", "cut"])
    def test_equals_greedy_over_the_full_matrix(self, name, eps, packed_subsets):
        sub = packed_subsets[name]
        for metric, full in (("extrinsic", sub.space.dist[np.ix_(sub.indices, sub.indices)]),
                             ("intrinsic", intrinsic_metric(sub, sub.indices))):
            want = sub.indices[greedy_packing_ids(sub.size, full.__getitem__, eps)]
            for ids in (sub.indices, sub.indices[::-1]):
                got = packing_ids(sub.space, ids, eps, metric)
                assert got.tobytes() == want.tobytes()

    def test_cut_subset_has_inf_rows(self, packed_subsets):
        cut = packed_subsets["cut"]
        assert np.isinf(intrinsic_metric(cut, cut.indices)).any()

    @pytest.mark.parametrize("r", [0.25, 0.4])
    def test_discrete_net_equals_greedy_over_ambient_matrix(self, r, packed_subsets):
        sub = packed_subsets["12-gon"]
        amb = sub.space.dist[np.ix_(sub.indices, sub.indices)]
        want = sub.indices[greedy_packing_ids(sub.size, amb.__getitem__, r / 2.0)]
        assert discrete_net(sub, r).tobytes() == want.tobytes()

    def test_unknown_metric_is_an_error(self, square):
        space = square
        with pytest.raises(KitError, match="extrinsic|intrinsic"):
            packing_ids(space, [0, 1], 0.1, "geodesic")


class TestMeasureEstimate:
    def test_unit_segment_calibration_point(self):
        space = models.gen_segment(1.0, 0.05 / 25.95)
        est = hausdorff_measure_estimate(space.subsets["all"], 1, 0.05)
        assert est == pytest.approx(1.0, abs=0.05)

    def test_square_boundary_perimeter_both_metrics(self):
        space = models.gen_convex_polygon(
            UNIT_SQUARE, 0.02 / 25.95, interior=False, boundary_mode="loop-uniform")
        sub = space.subsets["boundary"]
        ext = hausdorff_measure_estimate(sub, 1, 0.02, "extrinsic")
        intr = hausdorff_measure_estimate(sub, 1, 0.02, "intrinsic")
        assert ext == pytest.approx(4.0, abs=0.2)
        assert intr == pytest.approx(4.0, abs=0.2)
        assert abs(ext - intr) / ext < 0.05

    def test_intrinsic_at_least_extrinsic_up_to_tolerance(self):
        space = models.gen_convex_polygon(
            UNIT_SQUARE, 0.02 / 25.95, interior=False, boundary_mode="loop-uniform")
        sub = space.subsets["boundary"]
        ext = hausdorff_measure_estimate(sub, 1, 0.02, "extrinsic")
        intr = hausdorff_measure_estimate(sub, 1, 0.02, "intrinsic")
        assert intr >= ext * 0.95

    def test_filled_square_area_converges_to_one(self):
        # the greedy packing over-counts a strip of width s_eff / 2 along the
        # perimeter 4, so the error is at most 2 s_eff; it falls with h
        errors = []
        for h in (0.05, 0.04, 0.025):
            space = models.gen_convex_polygon(UNIT_SQUARE, h)
            est = hausdorff_measure_estimate(space.all_points_subset(), 2, 2.5 * h)
            errors.append(abs(est - 1.0))
            assert errors[-1] <= 2 * effective_spacing(2.5 * h, h)
        assert errors[0] > errors[1] > errors[2]

    def test_refuses_eps_below_resolution(self):
        space = models.gen_segment(1.0, 0.05)
        with pytest.raises(Refusal):
            hausdorff_measure_estimate(space.subsets["all"], 1, 0.05)

    @pytest.mark.parametrize("m", [-1, 3])
    def test_calibration_refuses_unsupported_dimension(self, m):
        with pytest.raises(Refusal, match=f"got {m}"):
            calibration_constant(m)


# each caller of Space.require_scale: (call on a space, its boundary and a
# value, the quantity its refusal names, the factor of h below which it refuses)
FLOORS = {
    "hausdorff_measure_estimate": (
        lambda space, sub, v: hausdorff_measure_estimate(sub, 1, v), "eps", 2.0),
    "packing_dimension_estimate": (
        lambda space, sub, v: packing_dimension_estimate(space, sub.indices,
                                                         [v, 5 * v, 10 * v]),
        "smallest eps", 2.0),
    "extremality_check": (
        lambda space, sub, v: extremality_check(sub, witness_radius=v),
        "witness_radius", 2.0),
    "unstrained_mass": (
        lambda space, sub, v: unstrained_mass(sub, 1, 0.1, 0.1, v), "eps", 2.0),
    "local_strainer_number": (
        lambda space, sub, v: local_strainer_number(sub, int(sub.indices[0]), 0.1,
                                                    [1.0, v]),
        "smallest scale", 4.0),
    "metric_comparison": (
        lambda space, sub, v: metric_comparison(sub, int(sub.indices[0]), v),
        "radius", 4.0),
    "FlowConfig.check": (
        lambda space, sub, v: FlowConfig(step=v, witness_radius=1.0).check(space),
        "step", 2.0),
    "dist_gradient_lower_bound": (
        lambda space, sub, v: dist_gradient_lower_bound(
            sub, {"inner": v, "outer": 0.5}, FlowConfig(step=0.3, witness_radius=0.6)),
        "band inner radius", 2.0),
    "discrete_net": (
        lambda space, sub, v: discrete_net(sub, v), "r", NET_MIN_PITCH_FACTOR),
}


class TestResolutionFloors:
    def test_require_scale_admits_its_floor_and_refuses_below(self, square):
        space = square
        h = space.resolution
        assert space.require_scale(2.0 * h, 2.0, "eps") == h
        with pytest.raises(Refusal, match=r"^eps = 0.09 below 2h = 0.1$"):
            space.require_scale(0.09, 2.0, "eps")
        with pytest.raises(Refusal, match="no declared resolution"):
            Space("bare", 0.0, [[0.0]]).require_scale(1.0, 2.0, "eps")

    @pytest.mark.parametrize("call, name, factor", FLOORS.values(), ids=list(FLOORS))
    def test_each_caller_refuses_just_below_its_floor(self, call, name, factor,
                                                      square):
        space = square
        floor = factor * space.resolution
        below = math.nextafter(floor, 0.0)
        with pytest.raises(Refusal) as e:
            call(space, space.subsets["boundary"], below)
        assert str(e.value) == f"{name} = {below} below {factor:g}h = {floor}"

    @pytest.mark.parametrize("call", [c for c, _, _ in FLOORS.values()], ids=list(FLOORS))
    def test_each_caller_refuses_nan(self, call, square):
        space = square
        with pytest.raises(Refusal, match="nan"):
            call(space, space.subsets["boundary"], math.nan)


DRIFT_KILL = 1.0 - 1e-9


class TestPackingDimension:
    def test_square_interior(self):
        h = 0.0125
        space = models.gen_convex_polygon(UNIT_SQUARE, h, lattice="square")
        grid = [q * h * DRIFT_KILL for q in (3, 4, 6, 10, 16, 30)]
        out = packing_dimension_estimate(
            space, space.annotations["subsets"]["interior"]["ids"], grid)
        assert out["dimension"] == pytest.approx(2.0, abs=0.15)

    def test_square_boundary(self):
        space = models.gen_convex_polygon(UNIT_SQUARE, 0.01, interior=False)
        grid = [q * 0.01 * DRIFT_KILL for q in (3, 5, 10, 15, 30)]
        out = packing_dimension_estimate(
            space, space.annotations["subsets"]["boundary"]["ids"], grid)
        assert out["dimension"] == pytest.approx(1.0, abs=0.15)

    def test_single_point_is_zero_dimensional(self):
        space = models.gen_segment(1.0, 0.01)
        out = packing_dimension_estimate(space, [7], [0.05, 0.2, 0.5])
        assert out["dimension"] == pytest.approx(0.0, abs=1e-9)

    def test_refuses_fewer_than_3_grid_values(self):
        space = models.gen_segment(1.0, 0.01)
        with pytest.raises(Refusal, match="^eps_grid needs at least 3 values$"):
            packing_dimension_estimate(space, np.arange(space.n_points), [0.05, 0.5])

    def test_refuses_narrow_grid(self):
        space = models.gen_segment(1.0, 0.01)
        with pytest.raises(Refusal):
            packing_dimension_estimate(space, np.arange(space.n_points),
                                       [0.1, 0.2, 0.4])

    @pytest.mark.parametrize("bad", [0.0, -0.5])
    def test_refuses_non_positive_grid_value(self, bad):
        space = models.gen_segment(1.0, 0.01)
        with pytest.raises(Refusal, match="positive"):
            packing_dimension_estimate(space, np.arange(space.n_points),
                                       [bad, 0.5, 5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_refuses_non_finite_grid_value(self, bad):
        space = models.gen_segment(1.0, 0.01)
        with pytest.raises(Refusal, match="finite"):
            packing_dimension_estimate(space, np.arange(space.n_points),
                                       [0.05, 0.5, bad])

    def test_refuses_grid_below_pitch(self):
        space = models.gen_segment(1.0, 0.01)
        with pytest.raises(Refusal):
            packing_dimension_estimate(space, np.arange(space.n_points),
                                       [0.01, 0.05, 0.2])


class TestExtremalityCheck:
    def test_square_boundary_passes(self):
        space = models.gen_convex_polygon(UNIT_SQUARE, 0.02)
        rep = extremality_check(space.subsets["boundary"], witness_radius=0.2)
        assert rep["passed"]
        assert rep["worst_excess"] <= rep["angle_tol"]

    def test_sharp_cone_vertex_passes(self):
        space = models.gen_cone(math.pi / 2, 0.5, 0.025)
        rep = extremality_check(space.subsets["vertex"], witness_radius=0.2)
        assert rep["passed"]

    def test_wide_cone_vertex_fails(self):
        space = models.gen_cone(1.5 * math.pi, 0.5, 0.025)
        rep = extremality_check(space.subsets["vertex"], witness_radius=0.2)
        assert not rep["passed"]
        # a witness direction continues past the vertex: excess ~ pi/4
        assert rep["worst_excess"] > 0.5

    def test_interior_point_fails(self):
        space = models.gen_convex_polygon(UNIT_SQUARE, 0.02)
        center = int(np.argmin(np.linalg.norm(space.coords - 0.5, axis=1)))
        sub = space.subset([center], name="one-interior-point")
        rep = extremality_check(sub, witness_radius=0.2)
        assert not rep["passed"]
        assert rep["worst_excess"] > 1.0

    def test_report_is_plain_data(self):
        space = models.gen_cone(1.5 * math.pi, 0.5, 0.05)
        rep = extremality_check(space.subsets["vertex"], witness_radius=0.2)
        assert rep["local_minima_checked"] > 0
        assert json.loads(dumps_stable(rep)) == rep
