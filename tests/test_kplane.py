import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alexkit import models
from alexkit.kplane import comparison_angles_array
from alexkit.space import validate

# side_from_angle accepts an angle this far outside [0, pi]: float noise at
# flat and degenerate triangles is routine and must not raise.
ACOS_CLAMP = 1e-12


def angle(kappa, a, b, c):
    return float(comparison_angles_array(kappa, a, b, c))


def law_of_cosines_50(kappa, a, b, c):
    """The comparison angle between sides a, b opposite c, by the kappa law
    of cosines at 50 digits: the reference of the kernel, with angle 0 where
    no comparison triangle exists."""
    with mpmath.workdps(50):
        a, b, c = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c)
        if c > a + b or a > b + c or b > a + c:
            return 0.0
        if kappa > 0:
            s = mpmath.sqrt(kappa)
            if max(a, b, c) > mpmath.pi / s or a + b + c > 2 * mpmath.pi / s:
                return 0.0
            cos_ang = ((mpmath.cos(c * s) - mpmath.cos(a * s) * mpmath.cos(b * s))
                       / (mpmath.sin(a * s) * mpmath.sin(b * s)))
        elif kappa < 0:
            s = mpmath.sqrt(-kappa)
            cos_ang = ((mpmath.cosh(a * s) * mpmath.cosh(b * s) - mpmath.cosh(c * s))
                       / (mpmath.sinh(a * s) * mpmath.sinh(b * s)))
        else:
            cos_ang = (a * a + b * b - c * c) / (2 * a * b)
        return float(mpmath.acos(min(max(cos_ang, -1), 1)))


def side_from_angle(kappa: float, l1: float, l2: float, theta: float) -> float:
    """Third side of the kappa-plane triangle with sides l1, l2 enclosing theta:
    the law of cosines, the round-trip reference for comparison angles."""
    if l1 < 0 or l2 < 0:
        raise ValueError("side lengths must be nonnegative")
    if not -ACOS_CLAMP <= theta <= math.pi + ACOS_CLAMP:
        raise ValueError(f"angle {theta} outside [0, pi]")
    if kappa == 0.0:
        sq = l1 * l1 + l2 * l2 - 2.0 * l1 * l2 * math.cos(theta)
        return math.sqrt(max(sq, 0.0))
    if kappa > 0.0:
        s = math.sqrt(kappa)
        bound = math.pi / s
        if l1 > bound + 1e-9 or l2 > bound + 1e-9:
            raise ValueError(f"side exceeds pi/sqrt(kappa) = {bound}")
        val = math.cos(l1 * s) * math.cos(l2 * s) + math.sin(l1 * s) * math.sin(
            l2 * s
        ) * math.cos(theta)
        return math.acos(min(max(val, -1.0), 1.0)) / s
    s = math.sqrt(-kappa)
    val = math.cosh(l1 * s) * math.cosh(l2 * s) - math.sinh(l1 * s) * math.sinh(
        l2 * s
    ) * math.cos(theta)
    return math.acosh(max(val, 1.0)) / s


class TestComparisonAngle:
    def test_flat_equilateral(self):
        assert angle(0.0, 1, 1, 1) == pytest.approx(math.pi / 3, abs=1e-12)

    def test_flat_pythagorean(self):
        assert angle(0.0, 3, 4, 5) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_spherical_octant(self):
        assert angle(1.0, math.pi / 2, math.pi / 2, math.pi / 2) == pytest.approx(
            math.pi / 2, abs=1e-12)

    def test_hyperbolic_equilateral_against_high_precision_oracle(self):
        # hyperbolic law of cosines evaluated at 50 digits
        with mpmath.workdps(50):
            expected = float(mpmath.acos(
                (mpmath.cosh(1) ** 2 - mpmath.cosh(1)) / mpmath.sinh(1) ** 2))
        assert angle(-1.0, 1, 1, 1) == pytest.approx(expected, abs=1e-12)
        assert abs(angle(-1.0, 1, 1, 1) - 0.918) < 1e-3

    def test_degenerate_zero_convention(self):
        assert angle(0.0, 1, 1, 3) == 0.0

    def test_spherical_perimeter_bound(self):
        assert angle(1.0, 2.5, 2.5, 2.5) == 0.0

    def test_spherical_side_bound(self):
        assert angle(1.0, 3.5, 0.1, 3.5) == 0.0

    def test_zero_adjacent_side_is_nan(self):
        assert math.isnan(angle(0.0, 0.0, 1.0, 1.0))
        assert math.isnan(angle(0.0, 1.0, 0.0, 1.0))

    def test_collinear_angle_pi(self):
        assert angle(0.0, 1, 1, 2) == pytest.approx(math.pi, abs=1e-9)

    def test_collinear_angle_zero(self):
        assert angle(0.0, 1, 2, 1) == pytest.approx(0.0, abs=1e-9)


class TestSideFromAngle:
    def test_flat_right_triangle(self):
        assert side_from_angle(0.0, 3, 4, math.pi / 2) == pytest.approx(5.0)

    def test_flat_collinear(self):
        assert side_from_angle(0.0, 1, 1, math.pi) == pytest.approx(2.0)

    def test_spherical_octant(self):
        assert side_from_angle(1.0, math.pi / 2, math.pi / 2,
                               math.pi / 2) == pytest.approx(math.pi / 2)

    def test_spherical_domain_error(self):
        with pytest.raises(ValueError):
            side_from_angle(1.0, 3.5, 1.0, 1.0)


KAPPAS = (-1.0, 0.0, 1.0)


def random_triangles(kappa, n, seed):
    rng = np.random.default_rng(seed)
    hi = 1.4 if kappa > 0 else 2.0  # keep spherical sides well inside the bound
    l1 = rng.uniform(0.1, hi, n)
    l2 = rng.uniform(0.1, hi, n)
    ang = rng.uniform(0.05, math.pi - 0.05, n)
    return l1, l2, ang


class TestRoundTrip:
    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_round_trip_1000_random_triangles(self, kappa):
        l1s, l2s, angs = random_triangles(kappa, 1000, seed=int(kappa) + 7)
        worst = 0.0
        for l1, l2, a in zip(l1s, l2s, angs):
            l3 = side_from_angle(kappa, l1, l2, a)
            back = angle(kappa, l1, l2, l3)
            worst = max(worst, abs(back - a))
        assert worst < 1e-9

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_monotone_in_opposite_side(self, kappa):
        # strictly increasing on the open existence region, by finite differences
        l1, l2 = 1.0, 1.2
        lo = abs(l1 - l2) + 1e-3
        hi = min(l1 + l2, 2 * math.pi - l1 - l2 if kappa > 0 else l1 + l2) - 1e-3
        cs = np.linspace(lo, hi, 60)
        angles = [angle(kappa, l1, l2, c) for c in cs]
        assert all(b > a for a, b in zip(angles, angles[1:]))

    def test_kappa_continuity_near_flat(self):
        for l1, l2, c in [(0.3, 0.4, 0.5), (1.0, 1.0, 1.0), (0.2, 0.9, 1.0)]:
            flat = angle(0.0, l1, l2, c)
            assert abs(angle(1e-6, l1, l2, c) - flat) < 1e-5
            assert abs(angle(-1e-6, l1, l2, c) - flat) < 1e-5


@settings(max_examples=200, deadline=None)
@given(l1=st.floats(0.1, 2.0), l2=st.floats(0.1, 2.0),
       frac=st.floats(0.01, 0.99),
       kappa=st.sampled_from(KAPPAS))
def test_symmetry_in_adjacent_sides(l1, l2, frac, kappa):
    lo, hi = abs(l1 - l2), l1 + l2
    if kappa > 0:
        hi = min(hi, 2 * math.pi - l1 - l2)
        if hi <= lo:
            return
    c = lo + frac * (hi - lo)
    if c <= lo or c >= hi:
        return
    assert angle(kappa, l1, l2, c) == pytest.approx(angle(kappa, l2, l1, c),
                                                    abs=1e-12)


def test_kernel_matches_the_50_digit_law_of_cosines():
    rng = np.random.default_rng(3)
    a = rng.uniform(0.2, 1.5, 50)
    b = rng.uniform(0.2, 1.5, 50)
    c = np.abs(a - b) + rng.uniform(0.01, 1.0, 50) * (a + b - np.abs(a - b) - 0.02)
    # and kappa = -1 triangles with sides short against 1, where the
    # hyperbolic law of cosines must not cancel
    for kappa, scale in [(kappa, 1.0) for kappa in KAPPAS] + [(-1.0, 1e-6), (-1.0, 1e-3)]:
        sa, sb, sc = a * scale, b * scale, c * scale
        vec = comparison_angles_array(kappa, sa, sb, sc)
        for i in range(50):
            assert vec[i] == pytest.approx(law_of_cosines_50(kappa, sa[i], sb[i], sc[i]),
                                           abs=1e-12)


def test_vectorized_degenerate_entries_are_zero():
    vec = comparison_angles_array(0.0, [1.0, 1.0], [1.0, 1.0], [3.0, 1.0])
    assert vec[0] == 0.0 and vec[1] > 0


def test_straight_angle_one_rounding_past_the_triangle_inequality_scores_zero():
    """A known defect, pinned: the kernel tests for a triangle with
    ``c <= a + b`` and no slack, so a straight angle whose computed far side
    rounds past the sum scores 0, not pi, while ``validate``, which allows
    1e-9 of slack, passes the same space.  Points 1, 82 and 103 of the
    h=0.05 unit square lie on one line, 82 in the middle, and d(1, 103)
    exceeds d(82, 1) + d(82, 103) by 2.8e-17.  The rounding-robust
    comparisons of ROADMAP item 1 flip this test: the angle becomes pi."""
    square = models.gen_convex_polygon([(0, 0), (1, 0), (1, 1), (0, 1)], 0.05)
    d = square.dist
    assert d[1, 103] > d[82, 1] + d[82, 103]
    assert angle(square.kappa, d[82, 1], d[82, 103], d[1, 103]) == 0.0
    assert validate(square)["passed"]
