import hashlib
import math

import numpy as np
import pytest

from alexkit import models
from alexkit.errors import Refusal
from alexkit.kplane import comparison_angles_array
from alexkit.space import Space, extremality_check, validate

UNIT_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


class TestConvexPolygon:
    def test_square_annotations(self):
        space = models.gen_convex_polygon(UNIT_SQUARE, 0.02)
        info = space.annotations["subsets"]["boundary"]
        assert info["exact_measure"] == pytest.approx(4.0)
        assert len(info["singular_ids"]) == 4
        assert set(info["singular_ids"]) <= set(info["ids"])
        assert not set(info["regular_ids"]) & set(info["singular_ids"])

    def test_twelve_gon_perimeter(self):
        space = models.gen_regular_polygon(12, 0.02)
        info = space.annotations["subsets"]["boundary"]
        expected = 24 * math.sin(math.pi / 12)
        assert info["exact_measure"] == pytest.approx(expected)
        assert abs(expected - 6.2117) < 1e-4

    def test_right_triangle_perimeter(self):
        space = models.gen_convex_polygon([(0, 0), (1, 0), (0, 1)], 0.02)
        info = space.annotations["subsets"]["boundary"]
        assert info["exact_measure"] == pytest.approx(2 + math.sqrt(2))

    def test_nonconvex_refused(self):
        with pytest.raises(Refusal):
            models.gen_convex_polygon([(0, 0), (1, 0), (0.4, 0.4), (0, 1)], 0.05)

    @pytest.mark.parametrize("vertices, reason", [
        (UNIT_SQUARE[:2], "need at least 3 vertices"),
        (UNIT_SQUARE[::-1], "vertices must be in counterclockwise order"),
    ])
    def test_too_few_or_clockwise_vertices_refused(self, vertices, reason):
        with pytest.raises(Refusal, match=f"^{reason}$"):
            models.gen_convex_polygon(vertices, 0.1)

    def test_collinear_refused(self):
        with pytest.raises(Refusal):
            models.gen_convex_polygon([(0, 0), (0.5, 0), (1, 0), (1, 1)], 0.05)

    @pytest.mark.parametrize("option, allowed", [
        ({"lattice": "hexagonal"}, "'triangular' or 'square'"),
        ({"boundary_mode": "spiral"}, "'per-edge' or 'loop-uniform'")])
    def test_unknown_sampling_refused(self, option, allowed):
        with pytest.raises(Refusal, match=allowed):
            models.gen_convex_polygon(UNIT_SQUARE, 0.1, **option)

    def test_loop_uniform_pitch_is_exact(self):
        space = models.gen_convex_polygon(UNIT_SQUARE, 0.021,
                                          boundary_mode="loop-uniform",
                                          interior=False)
        b = space.coords[space.annotations["subsets"]["boundary"]["ids"]]
        gaps = np.linalg.norm(np.roll(b, -1, axis=0) - b, axis=1)
        # arcs are uniform; chords equal arcs except across the 4 corners
        assert np.isclose(np.median(gaps), space.resolution, rtol=1e-9)

    def test_corner_exclusion_for_regular_ids(self):
        space = models.gen_convex_polygon(UNIT_SQUARE, 0.02)
        info = space.annotations["subsets"]["boundary"]
        corners = space.coords[info["singular_ids"]]
        regs = space.coords[info["regular_ids"]]
        d = np.linalg.norm(regs[:, None] - corners[None], axis=-1).min(axis=1)
        assert d.min() > 2 * 0.02


class TestCone:
    def test_sharp_vertex_marked_extremal(self):
        space = models.gen_cone(math.pi / 2, 0.5, 0.05)
        assert space.annotations["subsets"]["vertex"]["extremal"]
        assert space.annotations["extra"]["direction_diameter"] == pytest.approx(math.pi / 4)

    def test_wide_vertex_not_extremal(self):
        space = models.gen_cone(1.5 * math.pi, 0.5, 0.05)
        assert not space.annotations["subsets"]["vertex"]["extremal"]

    def test_full_angle_is_flat_disk(self):
        space = models.gen_cone(2 * math.pi, 0.5, 0.05)
        assert not space.annotations["subsets"]["vertex"]["extremal"]
        # distances across the vertex behave like the plane
        d = space.dist[0]
        ring = np.flatnonzero(np.isclose(d, 0.5, atol=0.06))
        assert ring.size > 10

    def test_angle_out_of_range_refused(self):
        with pytest.raises(Refusal):
            models.gen_cone(2 * math.pi + 0.1, 0.5, 0.05)
        with pytest.raises(Refusal):
            models.gen_cone(0.0, 0.5, 0.05)


@pytest.fixture(scope="module")
def pillow():
    return models.gen_pillow(1.0, 0.05)


class TestPillow:

    def test_area_annotation(self, pillow):
        assert pillow.annotations["extra"]["area"] == pytest.approx(2.0)

    def test_corner_cone_angle(self, pillow):
        assert pillow.annotations["extra"]["corner_cone_angle"] == pytest.approx(math.pi)

    def test_four_extremal_corners(self, pillow):
        corners = [s for n, s in pillow.annotations["subsets"].items()
                   if n.startswith("corner")]
        assert len(corners) == 4 and all(c["extremal"] for c in corners)

    def test_antipodal_corner_distance(self, pillow):
        space = pillow
        i, j = space.annotations["extra"]["antipodal_pair"]
        assert space.dist[i, j] == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_same_sheet_distances_euclidean(self, pillow):
        space = pillow
        # corner to corner along one side stays a straight segment
        i, j = space.annotations["extra"]["corner_ids"][:2]
        assert space.dist[i, j] == pytest.approx(1.0, abs=1e-12)

    def test_twin_points_are_twice_the_distance_to_the_seam(self, pillow):
        # the two copies of an interior point (x, y) are joined through the
        # nearest edge, straight there and back
        space, extra = pillow, pillow.annotations["extra"]
        side, n_a = extra["side"], extra["sheet_a_size"]
        m = round(side / space.resolution)
        j, i = np.divmod(np.arange(n_a), m + 1)
        inner = np.flatnonzero((i > 0) & (i < m) & (j > 0) & (j < m))
        x, y = i[inner] * space.resolution, j[inner] * space.resolution
        expected = 2 * np.minimum.reduce([x, y, side - x, side - y])
        np.testing.assert_allclose(space.dist[inner, n_a + np.arange(inner.size)], expected,
                                   rtol=0, atol=1e-12)

    def test_seam_distances_match_a_dense_boundary_search(self):
        # across the seam d(p, q) is the least |p - z| + |z - q| over boundary
        # points z; a search over z at pitch 1e-3, corners included, reads
        # above the closed form by O(1e-7) where the least z lies between two
        # of its samples (2.8e-7 here)
        space = models.gen_pillow(1.0, 0.25)
        n_a = space.annotations["extra"]["sheet_a_size"]
        j, i = np.divmod(np.arange(n_a), 5)
        inner = np.flatnonzero((i > 0) & (i < 4) & (j > 0) & (j < 4))
        points = np.column_stack([i[inner], j[inner]]) * 0.25
        s, o = np.linspace(0.0, 1.0, 1001), np.zeros(1001)
        z = np.concatenate([np.column_stack(e) for e in ((s, o), (s, o + 1), (o, s), (o + 1, s))])
        legs = np.linalg.norm(points[:, None, :] - z[None, :, :], axis=-1)
        gap = (legs[:, None, :] + legs[None, :, :]).min(axis=-1) - space.dist[inner, n_a:]
        assert gap.min() >= -1e-12 and gap.max() <= 1e-6

    def test_corner_direction_diameter_is_half_the_cone_angle(self, pillow):
        # a corner's space of directions is a circle of length pi, so of
        # diameter pi/2: the largest comparison angle at the corner over
        # pairs at distance 0.1-0.3 reaches it, on the two sides through it,
        # and never exceeds it
        space = pillow
        half = space.annotations["extra"]["corner_cone_angle"] / 2
        for c in space.annotations["extra"]["corner_ids"]:
            ids = np.flatnonzero((space.dist[c] >= 0.1) & (space.dist[c] <= 0.3))
            sides = space.dist[c, ids]
            angles = comparison_angles_array(space.kappa, sides[:, None], sides[None, :],
                                             space.dist[np.ix_(ids, ids)])
            assert angles.max() == pytest.approx(half, abs=1e-12)

    @pytest.mark.parametrize("k", range(4))
    def test_corner_passes_extremality_exactly(self, pillow, k):
        report = extremality_check(pillow.subsets[f"corner_{k}"])
        assert report["passed"] and report["worst_excess"] <= 1e-12

    def test_seam_edges_count_once(self, pillow):
        space = pillow
        # sheet A's row j = 0 is ids 0..m, one side of the glued seam
        side, h = space.annotations["extra"]["side"], space.resolution
        m = round(side / h)
        seam = np.arange(m + 1)
        np.testing.assert_allclose(space.dist[seam[:-1], seam[1:]], h, rtol=0, atol=1e-12)
        c = space.annotations["extra"]["corner_ids"]
        for i, j in ((0, 1), (0, 2), (1, 3), (2, 3)):
            assert space.dist[c[i], c[j]] == pytest.approx(side, abs=1e-9)

    # SHA-256 of the distance bits; (1.0, 0.5) is the smallest grid, m = 2
    @pytest.mark.parametrize("side, h, n, digest", [
        (1.0, 0.5, 10, "e002a75ddf60d6f2ca6fdcb52fc9736533db0bf9649d4c0495f3c300980a16c6"),
        (1.0, 0.2, 52, "c94c9a8a0d3034775bcd75be2303431f8c44f703084ec7f829d1db762851f090"),
        (2.0, 0.1, 802, "217f4f316df87e2807cf56dbcb9e9ac86394b60ec20a8235444ea7385e43e289"),
    ])
    def test_distance_digest(self, side, h, n, digest):
        space = models.gen_pillow(side, h)
        assert space.n_points == n
        assert hashlib.sha256(space.dist.tobytes()).hexdigest() == digest


class TestSuspension:
    def test_suspension_of_two_points_is_circle(self):
        base = models.gen_two_point_base()
        space = models.gen_spherical_suspension(base, 0.1)
        # sampled circle of length 2*pi: diameter pi, poles antipodal
        poles = space.annotations["extra"]["poles"]
        assert space.dist[poles[0], poles[1]] == pytest.approx(math.pi, abs=1e-9)
        assert space.diameter <= math.pi + 1e-9

    def test_suspension_of_circle_is_round_sphere(self):
        base = models.gen_circle(2 * math.pi, 0.15)
        space = models.gen_spherical_suspension(base, 0.15)
        assert validate(space)["passed"]
        assert space.diameter == pytest.approx(math.pi, abs=2 * 0.15)
        # spot-check against the closed form for a 2-sphere
        poles = space.annotations["extra"]["poles"]
        equator = np.flatnonzero(
            np.isclose(space.dist[poles[0]], math.pi / 2, atol=0.08))
        assert equator.size >= 3
        i, j = equator[0], equator[1]
        got = space.dist[i, j]
        # both on the equator: distance equals the base arc distance
        assert got <= math.pi / 1.99

    def test_pole_to_pole(self):
        base = models.gen_circle(2 * math.pi, 0.2)
        space = models.gen_spherical_suspension(base, 0.2)
        p0, p1 = space.annotations["extra"]["poles"]
        assert space.dist[p0, p1] == pytest.approx(math.pi, abs=1e-9)

    def test_rejects_flat_base(self):
        space = models.gen_segment(1.0, 0.1)
        with pytest.raises(Refusal):
            models.gen_spherical_suspension(space, 0.1)

    @pytest.mark.parametrize("dist, reason", [
        ([[0, 4.0], [4.0, 0]], r"suspension base diameter 4\.0 exceeds pi"),
        ([[0, 1, 3.0], [1, 0, 1], [3.0, 1, 0]],
         r"suspension base fails validation: \['triangle_inequality'\]"),
    ], ids=["diameter-above-pi", "fails-validation"])
    def test_rejects_a_base_that_is_not_a_curvature_1_space(self, dist, reason):
        with pytest.raises(Refusal, match=f"^{reason}$"):
            models.gen_spherical_suspension(Space("base", 1.0, dist), 0.1)

    def test_circle_longer_than_2pi_refused(self):
        with pytest.raises(Refusal, match="circle longer than 2\\*pi"):
            models.gen_circle(2 * math.pi + 1e-6, 0.1)

    # (1, 0) divided by zero, (-1, 0.1) gave distance -1.667, (nan, 0.1) a
    # ValueError and h = inf a 3-point circle
    @pytest.mark.parametrize("length, h", [
        (1.0, 0.0), (1.0, -0.1), (-1.0, 0.1), (0.0, 0.1), (math.nan, 0.1),
        (1.0, math.nan), (math.inf, 0.1), (1.0, math.inf)])
    def test_circle_refuses_non_positive_or_non_finite_scales(self, length, h):
        with pytest.raises(Refusal, match="positive and finite"):
            models.gen_circle(length, h)

    @pytest.mark.parametrize("separation", [-1.0, 0.0, math.nan, math.inf])
    def test_two_point_base_refuses_non_positive_or_non_finite_separation(self,
                                                                          separation):
        with pytest.raises(Refusal, match="positive and finite"):
            models.gen_two_point_base(separation)


# each generator with a scale h; all refuse h = 0, nan and inf alike
GENERATORS_OF_H = {
    "polygon": lambda h: models.gen_convex_polygon(UNIT_SQUARE, h),
    "segment": lambda h: models.gen_segment(1.0, h),
    "cone": lambda h: models.gen_cone(math.pi / 2, 0.5, h),
    "pillow": lambda h: models.gen_pillow(1.0, h),
    "suspension": lambda h: models.gen_spherical_suspension(models.gen_two_point_base(), h),
}


@pytest.mark.parametrize("h", [0.0, -0.1, math.nan, math.inf])
@pytest.mark.parametrize("name", list(GENERATORS_OF_H))
def test_every_generator_refuses_a_non_positive_or_non_finite_pitch(name, h):
    with pytest.raises(Refusal, match=f"^h must be positive and finite, got {h}$"):
        GENERATORS_OF_H[name](h)


ALL_GENERATORS = [
    lambda: models.gen_convex_polygon(UNIT_SQUARE, 0.05),
    lambda: models.gen_regular_polygon(10, 0.05),
    lambda: models.gen_segment(1.0, 0.05),
    lambda: models.gen_cone(math.pi / 2, 0.5, 0.05),
    lambda: models.gen_cone(1.5 * math.pi, 0.5, 0.06),
    lambda: models.gen_pillow(1.0, 0.08),
    lambda: models.gen_spherical_suspension(models.gen_circle(2 * math.pi, 0.2), 0.2),
]


@pytest.mark.parametrize("gen", ALL_GENERATORS)
def test_every_generator_output_validates(gen):
    space = gen()
    assert validate(space)["passed"]


@pytest.mark.parametrize("gen", ALL_GENERATORS + [
    lambda: models.gen_circle(2 * math.pi, 0.2), models.gen_two_point_base])
def test_every_generator_returns_the_space_its_annotations_describe(gen):
    space = gen()
    assert isinstance(space, Space)
    for name, info in space.annotations.get("subsets", {}).items():
        ids = set(info["ids"])
        regular = set(info.get("regular_ids", []))
        singular = set(info.get("singular_ids", []))
        assert regular <= ids and singular <= ids and not regular & singular
        assert space.subsets[name].indices.tolist() == info["ids"]
        assert space.subsets[name].extremal_claim == info["extremal"]


QUADRUPLES = 2**16
# arccos at a straight angle errs by about sqrt(eps), 1.5e-8 rad: the segment
# reads 7.9e-8 and the pillow at h = 0.08 reads 2.1e-8
FOUR_POINT_SLACK = 1e-6


def worst_four_point_excess(space: Space) -> float:
    """The worst of the comparison angles at p of (a, b), (b, c) and (c, a),
    summed, minus 2 pi, over QUADRUPLES quadruples (p, a, b, c) drawn with
    seed 0, p apart from a, b and c, at the space's own kappa.  A space of
    curvature >= kappa has none above 0 (the (1+3)-point comparison of
    Alexander, Kapovitch and Petrunin, arXiv:1903.08539), up to rounding."""
    rng = np.random.default_rng(0)
    p, a, b, c = (rng.integers(0, space.n_points, QUADRUPLES, dtype=np.int32)
                  for _ in range(4))
    keep = (p != a) & (p != b) & (p != c)
    p, a, b, c = p[keep], a[keep], b[keep], c[keep]
    d = space.dist
    total = sum(comparison_angles_array(space.kappa, d[p, x], d[p, y], d[x, y])
                for x, y in ((a, b), (b, c), (c, a)))
    return float(total.max()) - 2 * math.pi


@pytest.mark.parametrize("gen", ALL_GENERATORS + [lambda: models.gen_pillow(1.0, 0.1)])
def test_every_generator_satisfies_the_four_point_comparison_at_its_kappa(gen):
    assert worst_four_point_excess(gen()) <= FOUR_POINT_SLACK


def tripod() -> Space:
    """Three unit segments joined at point 0, four points on each: a tree, of
    no curvature bound below, whose legs make angle pi pairwise at point 0."""
    t = np.concatenate([[0.0], np.tile([0.25, 0.5, 0.75, 1.0], 3)])
    leg = np.concatenate([[-1], np.repeat(np.arange(3), 4)])
    dist = np.where(leg[:, None] == leg[None, :], np.abs(t[:, None] - t[None, :]),
                    t[:, None] + t[None, :])
    return Space("tripod", kappa=0.0, dist=dist, coords=None, resolution=0.25)


def test_four_point_comparison_fails_where_the_curvature_bound_does():
    square = models.gen_convex_polygon(UNIT_SQUARE, 0.05)
    retagged = Space("square", kappa=0.25, dist=square.dist, coords=square.coords,
                     resolution=square.resolution)
    assert worst_four_point_excess(retagged) > 0.03  # 0.040 rad
    assert worst_four_point_excess(tripod()) == pytest.approx(math.pi, abs=FOUR_POINT_SLACK)


def test_polygon_boundary_extremality():
    space = models.gen_convex_polygon(UNIT_SQUARE, 0.02)
    assert extremality_check(space.subsets["boundary"], witness_radius=0.2)["passed"]


def test_cone_vertex_extremality_matches_annotation():
    sharp = models.gen_cone(math.pi / 2, 0.5, 0.025)
    wide = models.gen_cone(1.5 * math.pi, 0.5, 0.025)
    assert extremality_check(sharp.subsets["vertex"], witness_radius=0.2)["passed"] \
        == sharp.annotations["subsets"]["vertex"]["extremal"]
    assert extremality_check(wide.subsets["vertex"], witness_radius=0.2)["passed"] \
        == wide.annotations["subsets"]["vertex"]["extremal"]
