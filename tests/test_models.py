import hashlib
import math

import numpy as np
import pytest

from alexkit import models
from alexkit.errors import Refusal
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
        h = space.resolution
        assert space.dist[i, j] == pytest.approx(math.sqrt(2), abs=2 * h)

    def test_same_sheet_distances_euclidean(self, pillow):
        space = pillow
        # corner to corner along one side stays a straight segment
        i, j = space.annotations["extra"]["corner_ids"][:2]
        assert space.dist[i, j] == pytest.approx(1.0, abs=2 * space.resolution)

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

    # SHA-256 of the distance bits, recorded with the per-node edge loops
    # that the index grids replaced; (1.0, 0.5) is the smallest grid, m = 2
    @pytest.mark.parametrize("side, h, n, digest", [
        (1.0, 0.5, 10, "e002a75ddf60d6f2ca6fdcb52fc9736533db0bf9649d4c0495f3c300980a16c6"),
        (1.0, 0.2, 52, "225674b47762e90cb619ae41ab9f6e9b27843cb30d0d1cc1d78792d965cf8f84"),
        (2.0, 0.1, 802, "fe08134746f656d0506f8a307fa2596e8033f1366476538f5f2eca8b3d607399"),
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
