import hashlib
import json
import math

import numpy as np
import pytest

from alexkit import models, strainers
from alexkit.errors import KitError, Refusal
from alexkit.kplane import comparison_angles_array
from alexkit.space import Space, Subset, packing_dimension_estimate
from alexkit.strainers import (classify, find_strainer, is_strainer,
                               local_strainer_number, regular_points,
                               strainer_number, unstrained_mass)

UNIT_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


def planar_space(points):
    coords = np.asarray(points, dtype=float)
    diff = coords[:, None] - coords[None]
    d = np.sqrt((diff**2).sum(-1))
    np.fill_diagonal(d, 0)
    return Space("planar", 0.0, d, coords=coords, resolution=0.05)


class TestIsStrainer:
    def test_exact_orthogonal_cross(self):
        space = planar_space([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)])
        ok, margin = is_strainer(space, 0, [(1, 2), (3, 4)], 0.01)
        assert ok
        assert margin == pytest.approx(0.0, abs=1e-12)

    def test_tilted_pair_margin_matches_exact_trig(self):
        space = planar_space([(0, 0), (1, 0), (-1, 0.2)])
        ok, margin = is_strainer(space, 0, [(1, 2)], 0.1)
        assert not ok
        # planar oracle: angle = arccos(-1/sqrt(1.04)), margin = pi - angle
        expected = math.pi - math.acos(-1.0 / math.sqrt(1.04))
        assert margin == pytest.approx(expected, abs=1e-12)
        assert abs(margin - 0.1974) < 1e-4

    def test_empty_pairs_vacuous(self):
        space = planar_space([(0, 0), (1, 0)])
        ok, margin = is_strainer(space, 0, [], 0.01)
        assert ok and margin == 0.0

    def test_coincident_points_error(self):
        space = planar_space([(0, 0), (1, 0), (-1, 0)])
        with pytest.raises(KitError):
            is_strainer(space, 0, [(1, 1)], 0.1)
        with pytest.raises(KitError):
            is_strainer(space, 0, [(0, 1)], 0.1)


@pytest.fixture(scope="module")
def square():
    return models.gen_convex_polygon(UNIT_SQUARE, 0.04)


@pytest.fixture(scope="module")
def fine_boundary():
    return models.gen_convex_polygon(UNIT_SQUARE, 0.01, interior=False)


class TestFindStrainer:
    def test_square_interior_point_has_2_strainer(self, square):
        space = square
        center = int(np.argmin(np.linalg.norm(space.coords - 0.5, axis=1)))
        s = find_strainer(space, center, 2, delta=0.1, ell=0.05,
                          search_radius=0.3)
        assert s is not None
        assert s.delta_achieved < 0.1
        assert s.length > 0.05
        ok, margin = is_strainer(space, center, s.pairs, 0.1)
        assert ok and margin == pytest.approx(s.delta_achieved)

    def test_square_corner_has_no_1_strainer(self, square):
        space = square
        corner = space.annotations["subsets"]["boundary"]["singular_ids"][0]
        s = find_strainer(space, corner, 1, delta=0.3, ell=0.05,
                          search_radius=0.3)
        assert s is None
        # brute-force oracle: no pair achieves a comparison angle above pi/2
        dp = space.dist[corner]
        pool = np.flatnonzero((dp > 0.05) & (dp < 0.3))
        ang = comparison_angles_array(
            0.0, dp[pool][:, None], dp[pool][None, :],
            space.dist[np.ix_(pool, pool)])
        np.fill_diagonal(ang, 0.0)
        assert ang.max() <= math.pi / 2 + 1e-9

    def test_segment_midpoint_collinear(self):
        space = models.gen_segment(1.0, 0.01)
        mid = space.n_points // 2
        s = find_strainer(space, mid, 1, delta=0.01, ell=0.05, search_radius=0.4)
        assert s is not None
        assert s.delta_achieved == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("turns", [1.95, 1.9, 1.8])
    def test_cone_vertex_is_strained_at_exactly_half_the_angle_deficit(self, turns):
        """A strained point that is not regular, with an exact oracle.

        At the vertex o of a cone of angle theta in (pi, 2 pi], two points
        whose rays are phi <= theta / 2 apart (the shorter way round) are
        joined through the flat sector, so their comparison angle at o is
        phi.  A pair's margin pi - phi is therefore at least pi - theta / 2,
        attained by opposite rays.  Two opposite pairs a quarter turn theta / 4
        apart make all four cross angles theta / 4, a cross margin
        pi / 2 - theta / 4 = (2 pi - theta) / 4, below the pair margin.  So
        delta_achieved = pi - theta / 2 = (2 pi - theta) / 2: the vertex is
        (2, delta)-strained exactly for delta above it, and regular only at
        theta = 2 pi.  The k = 2 search is a beam search, so this gates that
        it reaches the optimum.
        """
        theta = turns * math.pi
        s = find_strainer(models.gen_cone(theta, 0.6, 0.02), 0, 2, 0.6, 0.15,
                          search_radius=0.5)
        assert s.delta_achieved == pytest.approx((2.0 * math.pi - theta) / 2.0,
                                                 abs=1e-12)

    def test_k_zero_is_vacuous(self, square):
        space = square
        s = find_strainer(space, 0, 0, delta=0.1, ell=0.05, search_radius=0.3)
        assert s is not None and s.k == 0 and s.delta_achieved == 0.0

    def test_ell_above_one_refused(self, square):
        space = square
        with pytest.raises(Refusal):
            find_strainer(space, 0, 1, delta=0.1, ell=1.5, search_radius=2.0)

    def test_negative_k_refused(self, square):
        space = square
        with pytest.raises(Refusal):
            find_strainer(space, 0, -1, delta=0.1, ell=0.05, search_radius=0.3)


def witness_corpus_spaces():
    """Small samples of the model spaces, each with its pitch h."""
    sq = models.gen_convex_polygon(UNIT_SQUARE, 0.1)
    hexagon = models.gen_regular_polygon(6, 0.1, circumradius=0.6)
    cone = models.gen_cone(math.pi, 0.5, 0.08)
    seg = models.gen_segment(1.0, 0.04)
    susp = models.gen_spherical_suspension(
        models.gen_circle(2 * math.pi, 0.6), 0.35)
    return [(sq, 0.1), (hexagon, 0.1), (cone, 0.08), (seg, 0.04), (susp, 0.35)]


# SHA-256 of the canonical JSON of every witness (or None) in the corpus of
# test_witness_corpus_digest, as the plain beam search (before any pruning)
# returned them: search changes must keep strainer output byte-identical.
WITNESS_CORPUS_SHA256 = \
    "2f31381f1bfa28d94bcb442216c87cf8b4570b0148b691587c41fb4421ed796b"


def test_witness_corpus_digest():
    # about 12 base points per space x k in {1, 2, 3} x two (ell, radius)
    # settings x six deltas: 2,412 cases, 1,209 of them found
    out = []
    for space, h in witness_corpus_spaces():
        for p in range(0, space.n_points, max(1, space.n_points // 12)):
            for k in (1, 2, 3):
                for ell, radius in ((1.5 * h, 5 * h), (2.5 * h, 8 * h)):
                    for delta in (0.05, 0.1, 0.2, 0.4, 0.8, 2.0):
                        s = find_strainer(space, p, k, delta, ell, radius)
                        out.append(None if s is None else s.to_dict())
    assert len(out) == 2412
    assert sum(s is not None for s in out) == 1209
    blob = json.dumps(out, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == WITNESS_CORPUS_SHA256


def test_search_is_exact_in_delta():
    # the witness does not depend on delta except for whether it is returned:
    # the same strainer at every delta above its margin, none at the margin,
    # and is_strainer reproduces the margin bit for bit
    found = 0
    for space, h in witness_corpus_spaces():
        for p in range(0, space.n_points, max(1, space.n_points // 12)):
            for k in (1, 2, 3):
                for ell, radius in ((1.5 * h, 5 * h), (2.5 * h, 8 * h)):
                    s = find_strainer(space, p, k, 0.8, ell, radius)
                    if s is None:
                        continue
                    found += 1
                    got = s.delta_achieved
                    for above in (np.nextafter(got, math.inf), (got + 0.8) / 2, 4.0):
                        assert find_strainer(space, p, k, above, ell, radius) == s
                    assert find_strainer(space, p, k, got, ell, radius) is None
                    assert is_strainer(space, p, s.pairs, 0.8) == (True, got)
    assert found == 206


def classify_cases():
    """(subset, k, delta, ell, radius) over the corpus spaces.

    Each space is scanned whole (sizes 145, 127, 70, 26 and 82, none a
    multiple of a block), and each polygon also on a subset whose id order
    runs from boundary points into interior points, so that one block holds
    pools of very different sizes.
    """
    for space, h in witness_corpus_spaces():
        subsets = [Subset(space, np.arange(space.n_points), name="all")]
        if "interior" in space.subsets:
            edge = space.subsets["boundary"].indices
            inner = space.subsets["interior"].indices
            subsets.append(Subset(space, np.r_[edge[-7:], inner[::4]], name="mixed"))
        for sub in subsets:
            for k in (1, 2, 3):
                for ell, radius in ((1.5 * h, 5 * h), (2.5 * h, 8 * h)):
                    for delta in (0.1, 0.4):
                        yield sub, k, delta, ell, radius


# SHA-256 of the canonical JSON of classify(...).to_dict() over classify_cases,
# recorded with the per-point search loop before scans ran in blocks.
CLASSIFY_CASES_SHA256 = \
    "0c143c86c6edf6cbede7e27498641b702c0892591c3677d5024470afd0db840e"


@pytest.fixture(scope="module")
def classified():
    return [(case, classify(*case)) for case in classify_cases()]


def test_classify_cases_digest(classified):
    assert len(classified) == 84
    blob = json.dumps([mask.to_dict() for _, mask in classified], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == CLASSIFY_CASES_SHA256


def test_classify_is_find_strainer_at_every_point(classified):
    for (sub, k, delta, ell, radius), mask in classified:
        want = {}
        for p in sub.indices.tolist():
            s = find_strainer(sub.space, p, k, delta, ell, radius)
            if s is not None:
                want[p] = s
        assert mask.witnesses == want
        assert mask.member_ids.tolist() == list(want)


def test_strainer_number_is_the_largest_k_with_members(classified):
    # every case has full classify masks at k = 1, 2 and 3, and one is empty
    empty = {}
    for (sub, _k, delta, ell, radius), mask in classified:
        empty.setdefault((sub, delta, ell, radius), []).append(not mask.witnesses)
    for (sub, delta, ell, radius), at_k in empty.items():
        assert strainer_number(sub, delta, ell, radius) == at_k.index(True)


def test_block_size_does_not_change_masks(classified, monkeypatch):
    # eight times the element budget: longer blocks with other boundaries
    monkeypatch.setattr(strainers, "_BLOCK_ELEMENTS", 8 * strainers._BLOCK_ELEMENTS)
    for case, mask in classified:
        assert classify(*case).to_dict() == mask.to_dict()


def full_array_pair(space, p, delta, ell, radius):
    """The k = 1 witness from the whole pool x pool angle array: the least
    pair margin over its strict upper triangle, the first in row-major
    order on ties (the search before the k = 1 bound)."""
    dp = space.dist[p]
    pool = np.flatnonzero((dp > ell) & (dp < radius))
    ang = comparison_angles_array(space.kappa, dp[pool][:, None], dp[pool][None, :],
                                  space.dist[np.ix_(pool, pool)])
    iu, ju = np.triu_indices(pool.size, 1)
    margin = (math.pi - ang)[iu, ju]
    live = np.flatnonzero(margin < delta)
    if live.size == 0:
        return None
    t = live[np.argmin(margin[live])]
    a, b = int(pool[iu[t]]), int(pool[ju[t]])
    return strainers.Strainer(base=p, pairs=((a, b),), delta_achieved=float(margin[t]),
                              length=float(min(dp[a], dp[b])))


def k1_equivalence_cases():
    """(subset, ell, radius) for the k = 1 equivalence test: the corpus
    spaces (kappa = 0 and the kappa = 1 suspension) and their mixed subsets,
    whose blocks pad short pools with the base point; a polygon re-tagged
    kappa = -1 (a valid lower bound), where every pair is computed; and the
    h=0.05 square around point 82, which lies between points 1 and 103 with
    d(1, 103) one rounding above d(82, 1) + d(82, 103)."""
    for (sub, k, delta, ell, radius) in classify_cases():
        if k == 1 and delta == 0.1:
            yield sub, ell, radius
    sq = witness_corpus_spaces()[0][0]
    hyperbolic = Space("hyperbolic-square", -1.0, sq.dist, coords=sq.coords, resolution=0.1)
    yield Subset(hyperbolic, np.arange(sq.n_points), name="all"), 0.15, 0.5
    knife = models.gen_convex_polygon(UNIT_SQUARE, 0.05)
    d = knife.dist
    assert d[1, 103] > d[82, 1] + d[82, 103]
    yield Subset(knife, np.arange(70, 95), name="around-82"), 0.05, 0.2


K1_DELTAS = (1e-8, 0.05, 0.1, 0.2, 0.25, 0.4, 0.8, 2.0, 4.0)
# (space, subset, witnesses found at each of K1_DELTAS) for each of the k = 1
# equivalence cases, in order.  On the hyperbolic square at 1e-8, collinear
# pairs score margin 0 with the kernel's cancellation-free kappa < 0 law of
# cosines.
K1_FOUND = [
    ("polygon4", "all", [125, 127, 129, 129, 129, 129, 129, 145, 145]),
    ("polygon4", "all", [105, 109, 109, 109, 109, 111, 127, 145, 145]),
    ("polygon4", "mixed", [30, 31, 31, 31, 31, 31, 31, 34, 34]),
    ("polygon4", "mixed", [26, 27, 27, 27, 27, 27, 30, 34, 34]),
    ("regular6gon", "all", [105, 109, 109, 109, 109, 109, 121, 127, 127]),
    ("regular6gon", "all", [86, 87, 91, 91, 91, 109, 121, 127, 127]),
    ("regular6gon", "mixed", [25, 26, 26, 26, 26, 26, 29, 30, 30]),
    ("regular6gon", "mixed", [21, 21, 22, 22, 22, 26, 29, 30, 30]),
    ("cone3.142", "all", [10, 46, 46, 46, 46, 66, 66, 70, 70]),
    ("cone3.142", "all", [10, 31, 39, 39, 39, 39, 66, 70, 70]),
    ("segment", "all", [22, 22, 22, 22, 22, 22, 22, 22, 26]),
    ("segment", "all", [20, 20, 20, 20, 20, 20, 20, 20, 26]),
    ("susp(circle)", "all", [82, 82, 82, 82, 82, 82, 82, 82, 82]),
    ("susp(circle)", "all", [82, 82, 82, 82, 82, 82, 82, 82, 82]),
    ("hyperbolic-square", "all", [124, 127, 129, 129, 129, 129, 129, 145, 145]),
    ("polygon4", "around-82", [24, 24, 24, 24, 24, 24, 25, 25, 25]),
]


def test_k1_search_is_the_full_array_argmin():
    # every witness, bit for bit, at every point and at the corpus deltas,
    # at the workloads' 0.25, at 1e-8, where collinear pool points are live
    # only by rounding and the bound's 1 - 1e-9 slack must keep them, and at
    # 4 > pi, where pairs without a comparison triangle (margin pi) are live
    # and the bound keeps every pair
    found = []
    for sub, ell, radius in k1_equivalence_cases():
        counts = []
        for delta in K1_DELTAS:
            mask = classify(sub, 1, delta, ell, radius)
            for p in sub.indices.tolist():
                want = full_array_pair(sub.space, p, delta, ell, radius)
                assert repr(mask.witnesses.get(p)) == repr(want), (sub.name, p, delta)
            counts.append(len(mask.witnesses))
        found.append((sub.space.name, sub.name, counts))
    assert found == K1_FOUND


class TestClassify:
    def test_boundary_edges_strained_corners_not(self, fine_boundary):
        space = fine_boundary
        sub = space.subsets["boundary"]
        mask = classify(sub, 1, delta=0.1, ell=0.05, search_radius=0.2)
        corners = set(space.annotations["subsets"]["boundary"]["singular_ids"])
        members = set(mask.member_ids.tolist())
        assert not corners & members
        # points away from corners are members
        far = [int(i) for i in sub.indices
               if min(np.linalg.norm(space.coords[i] - np.array(v))
                      for v in UNIT_SQUARE) > 0.08]
        assert set(far) <= members

    def test_witnesses_reverify(self, fine_boundary):
        space = fine_boundary
        sub = space.subsets["boundary"]
        mask = classify(sub, 1, delta=0.1, ell=0.05, search_radius=0.2)
        for p, w in list(mask.witnesses.items())[::17]:
            ok, margin = is_strainer(space, p, w.pairs, mask.delta)
            assert ok and margin == pytest.approx(w.delta_achieved)
            assert w.length > mask.ell

    def test_k2_on_1d_boundary_is_empty(self, fine_boundary):
        space = fine_boundary
        sub = space.subsets["boundary"]
        mask = classify(sub, 2, delta=0.1, ell=0.05, search_radius=0.2)
        assert not mask.witnesses

    def test_masks_monotone_in_delta_and_ell(self, fine_boundary):
        space = fine_boundary
        sub = space.subsets["boundary"]
        big = classify(sub, 1, 0.2, 0.05, 0.2)
        small = classify(sub, 1, 0.05, 0.05, 0.2)
        assert set(small.member_ids) <= set(big.member_ids)
        longer = classify(sub, 1, 0.2, 0.1, 0.4)
        shorter = classify(sub, 1, 0.2, 0.05, 0.4)
        assert set(longer.member_ids) <= set(shorter.member_ids)


class TestStrainerNumber:
    def test_square_boundary_is_one(self, fine_boundary):
        space = fine_boundary
        assert strainer_number(space.subsets["boundary"], 0.1, ell=0.05) == 1

    def test_full_square_is_two(self, square):
        space = square
        sub = space.all_points_subset()
        assert strainer_number(sub, 0.1, ell=0.05, search_radius=0.2) == 2

    def test_segment_is_one(self):
        space = models.gen_segment(1.0, 0.01)
        assert strainer_number(space.subsets["all"], 0.1, ell=0.05) == 1

    def test_cone_vertex_singleton_is_zero(self):
        space = models.gen_cone(math.pi / 2, 0.5, 0.025)
        assert strainer_number(space.subsets["vertex"], 0.1, ell=0.05) == 0

    def test_refuses_when_the_default_radius_is_not_above_ell(self):
        # the default search radius is min(4 ell, diameter) = 0.04 < ell
        space = models.gen_segment(0.04, 0.01)
        sub = space.subsets["all"]
        with pytest.raises(Refusal, match="need ell < search_radius"):
            strainer_number(sub, 0.1, ell=0.05)
        with pytest.raises(Refusal, match="need ell < search_radius"):
            classify(sub, 1, 0.1, ell=0.05)


class TestLocalStrainerNumber:
    def test_edge_midpoint_is_one_at_all_scales(self, fine_boundary):
        space = fine_boundary
        sub = space.subsets["boundary"]
        mid = int(sub.indices[np.argmin(
            np.linalg.norm(space.coords[sub.indices] - np.array([0.5, 0.0]),
                           axis=1))])
        out = local_strainer_number(sub, mid, 0.1, scales=[0.4, 0.2, 0.1])
        assert out["value"] == 1
        assert all(v == 1 for v in out["profile"].values())

    def test_corner_is_one_via_nearby_edge_points(self, fine_boundary):
        space = fine_boundary
        sub = space.subsets["boundary"]
        corner = space.annotations["subsets"]["boundary"]["singular_ids"][0]
        out = local_strainer_number(sub, corner, 0.1, scales=[0.4, 0.2, 0.1])
        assert out["value"] == 1

    def test_interior_point_of_square_is_two(self, square):
        space = square
        sub = space.all_points_subset()
        center = int(np.argmin(np.linalg.norm(space.coords - 0.5, axis=1)))
        out = local_strainer_number(sub, center, 0.1, scales=[0.45, 0.3])
        assert out["value"] == 2

    @pytest.mark.parametrize("scales", [[], [0.4]])
    def test_refuses_fewer_than_two_scales(self, square, scales):
        sub = square.all_points_subset()
        with pytest.raises(Refusal, match="at least two scales"):
            local_strainer_number(sub, 0, 0.1, scales=scales)

    def test_refuses_tiny_scales(self, square):
        space = square
        sub = space.all_points_subset()
        with pytest.raises(Refusal):
            local_strainer_number(sub, 0, 0.1, scales=[0.4, 0.01])

    def test_local_subsets_link_at_the_space_radius(self, fine_boundary, monkeypatch):
        space = fine_boundary
        seen = []
        real = strainers.strainer_number
        monkeypatch.setattr(strainers, "strainer_number",
                            lambda sub, *a, **kw: seen.append(sub) or real(sub, *a, **kw))
        corner = space.annotations["subsets"]["boundary"]["singular_ids"][0]
        local_strainer_number(space.subsets["boundary"], corner, 0.1, scales=[0.2, 0.1])
        assert len(seen) == 2
        assert all(sub.space is space for sub in seen)


class TestRegularPoints:
    def test_boundary_masks_converge_to_edge_interiors(self, fine_boundary):
        space = fine_boundary
        sub = space.subsets["boundary"]
        out = regular_points(sub, 1, delta_schedule=(0.2, 0.1, 0.05), ell=0.04)
        corners = set(space.annotations["subsets"]["boundary"]["singular_ids"])
        assert not corners & set(out["regular_ids"].tolist())
        assert out["regular_ids"].size > 0.5 * sub.size

    def test_masks_are_nested(self, fine_boundary):
        space = fine_boundary
        sub = space.subsets["boundary"]
        out = regular_points(sub, 1, delta_schedule=(0.2, 0.1, 0.05), ell=0.04)
        sets = [set(m.member_ids.tolist()) for m in out["masks"]]
        assert sets[2] <= sets[1] <= sets[0]

    def test_zero_dimensional_subset_trivially_regular(self):
        space = models.gen_cone(math.pi / 2, 0.5, 0.025)
        sub = space.subsets["vertex"]
        out = regular_points(sub, 0, delta_schedule=(0.2, 0.1), ell=0.05)
        assert out["regular_ids"].tolist() == sub.indices.tolist()

    def test_denseness_trend_as_pitch_halves(self):
        fractions = []
        for h in (0.04, 0.02, 0.01):
            space = models.gen_convex_polygon(UNIT_SQUARE, h, interior=False)
            sub = space.subsets["boundary"]
            out = regular_points(sub, 1, delta_schedule=(0.1, 0.05), ell=4 * h)
            fractions.append(out["fractions"][0.05])
        assert fractions[0] < fractions[1] < fractions[2]
        assert fractions[2] > 0.85

    @pytest.mark.parametrize("case", ["square-boundary", "square-interior",
                                      "12gon-boundary", "pi-cone"])
    def test_one_scan_equals_per_delta_classify(self, case):
        if case == "pi-cone":
            space = models.gen_cone(math.pi, 0.5, 0.05)
            sub, m = space.all_points_subset(), 2
        elif case == "12gon-boundary":
            space = models.gen_regular_polygon(12, 0.05, interior=False)
            sub, m = space.subsets["boundary"], 1
        else:
            space = models.gen_convex_polygon(UNIT_SQUARE, 0.1)
            sub = space.subsets[case.split("-")[1]]
            m = 1 if case == "square-boundary" else 2
        h = space.resolution
        for sched in ((0.3, 0.2, 0.1, 0.05), (0.25, 0.12)):
            out = regular_points(sub, m, delta_schedule=sched)
            for mask, d in zip(out["masks"], sched):
                want = classify(sub, m, d, 4.0 * h)
                assert mask.to_dict() == want.to_dict()
            assert out["regular_ids"].tolist() == want.member_ids.tolist()

    @pytest.mark.parametrize("sched", [(), (0.1, 0.0), (0.1, -0.1), (math.inf, 0.1),
                                       (math.nan,)])
    def test_schedule_must_be_positive_and_finite(self, fine_boundary, sched):
        with pytest.raises(Refusal, match="positive finite"):
            regular_points(fine_boundary.subsets["boundary"], 1, delta_schedule=sched)

    def test_schedule_must_descend(self, fine_boundary):
        space = fine_boundary
        with pytest.raises(Refusal):
            regular_points(space.subsets["boundary"], 1,
                           delta_schedule=(0.05, 0.1), ell=0.05)


class TestUnstrainedMass:
    def test_corner_caps_only(self, fine_boundary):
        space = fine_boundary
        sub = space.subsets["boundary"]
        ell = 0.05
        mass = unstrained_mass(sub, 1, delta=0.1, ell=ell, eps=0.02)
        assert mass <= 16 * ell

    def test_nonincreasing_as_ell_shrinks(self, fine_boundary):
        space = fine_boundary
        sub = space.subsets["boundary"]
        masses = [unstrained_mass(sub, 1, delta=0.1, ell=l, eps=0.02)
                  for l in (0.08, 0.04, 0.02)]
        assert masses[0] >= masses[1] >= masses[2]

    def test_refuses_negative_dimension(self, fine_boundary):
        with pytest.raises(Refusal, match="got -1"):
            unstrained_mass(fine_boundary.subsets["boundary"], -1, delta=0.1,
                            ell=0.05, eps=0.02)

    def test_zero_when_everything_strained(self):
        space = models.gen_segment(1.0, 0.01)
        sub = space.subset(np.arange(30, 70), name="middle")
        mass = unstrained_mass(sub, 1, delta=0.1, ell=0.05, eps=0.02,
                               search_radius=0.4)
        assert mass == 0.0


# polygon boundaries (generator, number of corners), sampled at pitch h
RATE_BOUNDARIES = {
    "square": (lambda h: models.gen_convex_polygon(UNIT_SQUARE, h, interior=False), 4),
    "12-gon": (lambda h: models.gen_regular_polygon(12, h, interior=False), 12),
}


@pytest.mark.parametrize("name", list(RATE_BOUNDARIES))
def test_regular_points_are_dense_and_of_full_measure_as_h_falls(name):
    """The abstract's claims at m = 1, as rates in the pitch h (the space's
    resolution), with ell = 4h, the delta schedule (0.1, 0.05) and, for the
    unstrained mass, k = 1, delta = 0.05 and eps = 2h.

    Where the unstrained points lie: a boundary point at least ell + h from
    both corners of its edge has a sample of its own edge at distance in
    (ell, ell + h] on either side, inside the pool (ell, 4 ell); the two are
    collinear with it, at angle pi, so it is strained.  The unstrained
    points thus lie in corner caps: arcs of length 2(ell + h) about each
    corner.  A corner itself is never strained (its angle is at most 5pi/6).

    Density radius: the first sample past a cap (every edge here is longer
    than two caps and a pitch) is regular and at most ell + 2h along the
    boundary from any point of the cap, and the chord is no longer than the
    arc, so every point is within ell + 2h of the regular set.

    Unstrained mass: eps = 2h keeps packing points more than 2h apart, so
    on the pitch-h sample at least 3h apart along the boundary (the chord
    is no longer than the arc).  A cap of length 2(ell + h) = 10h holds at
    most floor(10h / 3h) + 1 = 4 of them, so the mass eps * beta is at most
    8h per corner, and positive since the corners are unstrained.
    """
    gen, corners = RATE_BOUNDARIES[name]
    fractions = []
    for pitch in (0.04, 0.02, 0.01):
        space = gen(pitch)
        sub = space.subsets["boundary"]
        h = space.resolution
        ell = 4 * h
        out = regular_points(sub, 1, delta_schedule=(0.1, 0.05), ell=ell)
        to_regular = space.dist[np.ix_(sub.indices, out["regular_ids"])]
        assert to_regular.min(axis=1).max() <= ell + 2 * h  # the density radius
        mass = unstrained_mass(sub, 1, delta=0.05, ell=ell, eps=2 * h)
        assert 0 < mass <= 8 * h * corners
        fractions.append(out["fractions"][0.05])
    assert fractions[0] < fractions[1] < fractions[2]


def test_strainer_number_tracks_packing_dimension(square):
    # empirical dimension-equals-strainer-number check on model outputs;
    # the number is searched on a coarse sample (exhaustive k+1 emptiness
    # scan), the dimension fitted on a fine one
    kill = 1 - 1e-9
    space_coarse = square
    num = strainer_number(space_coarse.all_points_subset(), 0.1, ell=0.05,
                          search_radius=0.2)
    h = 0.0125
    sq = models.gen_convex_polygon(UNIT_SQUARE, h, lattice="square")
    dim = packing_dimension_estimate(
        sq, sq.annotations["subsets"]["interior"]["ids"],
        [q * h * kill for q in (3, 4, 6, 10, 16, 30)])["dimension"]
    assert num == 2 and abs(dim - num) <= 0.2

    bnd = models.gen_convex_polygon(UNIT_SQUARE, 0.01, interior=False)
    sub = bnd.subsets["boundary"]
    num = strainer_number(sub, 0.1, ell=0.05)
    dim = packing_dimension_estimate(
        bnd, sub.indices, [q * 0.01 * kill for q in (3, 5, 10, 15, 30)])["dimension"]
    assert num == 1 and abs(dim - num) <= 0.2

    seg = models.gen_segment(1.0, 0.01)
    num = strainer_number(seg.subsets["all"], 0.1, ell=0.05)
    dim = packing_dimension_estimate(
        seg, seg.subsets["all"].indices,
        [q * 0.01 * kill for q in (3, 5, 10, 15, 30)])["dimension"]
    assert num == 1 and abs(dim - num) <= 0.2
