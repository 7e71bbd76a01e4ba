"""Closed-form trigonometry on the plane of constant curvature kappa.

Comparison angles from three side lengths by the kappa law of cosines,
for kappa < 0 (hyperbolic), kappa = 0 (Euclidean) and kappa > 0 (spherical).
All functions are pure; kappa is an argument of every call, never global
state, so spaces with different curvature bounds can coexist.

Degenerate-case conventions
---------------------------
Two conventions are in use and are selected by ``degenerate_mode``:

* ``"error"``  -- raise :class:`NoComparisonTriangle` naming the violated
  existence condition (the ordinary comparison-angle convention);
* ``"zero"``   -- return angle 0 when no comparison triangle exists (the
  convention used for comparison angles along unit-speed curves).

A zero-length adjacent side always raises :class:`UndefinedAngle`; no
convention assigns an angle at a collapsed vertex.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NoComparisonTriangle, UndefinedAngle

# Arguments of acos within this distance of +-1 are clamped; float noise at
# flat/degenerate triangles is routine and must not raise.
ACOS_CLAMP = 1e-12

_MODES = ("error", "zero")


def _existence(kappa: float, a: float, b: float, c: float) -> tuple[bool, str]:
    """Whether a kappa-plane triangle with sides a, b, c exists.

    Returns (flag, reason); reason is "" when the triangle exists.
    Requires nonnegative finite sides and the triangle inequality; for
    kappa > 0 additionally every side <= pi/sqrt(kappa) and perimeter
    <= 2*pi/sqrt(kappa).
    """
    for s in (a, b, c):
        if not math.isfinite(s):
            return False, f"non-finite side {s!r}"
        if s < 0:
            return False, f"negative side {s!r}"
    if c > a + b:
        return False, f"triangle inequality: {c} > {a} + {b}"
    if a > b + c:
        return False, f"triangle inequality: {a} > {b} + {c}"
    if b > a + c:
        return False, f"triangle inequality: {b} > {a} + {c}"
    if kappa > 0:
        bound = math.pi / math.sqrt(kappa)
        slack = 1e-9
        for s in (a, b, c):
            if s > bound + slack:
                return False, f"side {s} exceeds pi/sqrt(kappa) = {bound}"
        if a + b + c > 2.0 * bound + slack:
            return False, (
                f"perimeter {a + b + c} exceeds 2*pi/sqrt(kappa) = {2 * bound}"
            )
    return True, ""


def _clamped_acos(x: float) -> float:
    if x > 1.0:
        if x > 1.0 + ACOS_CLAMP:
            raise DomainError(f"law-of-cosines argument {x} outside [-1, 1]")
        x = 1.0
    elif x < -1.0:
        if x < -1.0 - ACOS_CLAMP:
            raise DomainError(f"law-of-cosines argument {x} outside [-1, 1]")
        x = -1.0
    return math.acos(x)


def _cos_angles(kappa: float, a, b, c):
    """The kappa law of cosines: cos of the angle between sides a, b with c
    opposite, elementwise over floats or arrays, no validation.

    Returns (cos, degenerate).  ``degenerate`` marks a spherical vertex with
    sin(a sqrt(kappa)) sin(b sqrt(kappa)) ~ 0, where cos is set to 1 (angle 0);
    it is False for kappa <= 0.
    """
    if kappa == 0.0:
        return (a * a + b * b - c * c) / (2.0 * a * b), False
    if kappa > 0.0:
        s = math.sqrt(kappa)
        denom = np.sin(a * s) * np.sin(b * s)
        num = np.cos(c * s) - np.cos(a * s) * np.cos(b * s)
        degenerate = np.abs(denom) < 1e-14
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(degenerate, 1.0, num / denom), degenerate
    s = math.sqrt(-kappa)
    denom = np.sinh(a * s) * np.sinh(b * s)
    return (np.cosh(a * s) * np.cosh(b * s) - np.cosh(c * s)) / denom, False


def comparison_angle(kappa: float, a: float, b: float, c: float,
                     degenerate_mode: str = "error") -> float:
    """Angle at the vertex between sides a and b, opposite to side c, in
    radians in [0, pi], on the kappa-plane.

    ``degenerate_mode`` selects the convention when no comparison triangle
    exists: "error" raises, "zero" returns 0.0.  The scalar reference for
    :func:`comparison_angles_array`.
    """
    if degenerate_mode not in _MODES:
        raise ValueError(f"degenerate_mode must be one of {_MODES}")
    if a == 0.0 or b == 0.0:
        raise UndefinedAngle("zero-length side adjacent to the angle vertex")
    ok, reason = _existence(kappa, a, b, c)
    if not ok:
        if degenerate_mode == "zero":
            return 0.0
        raise NoComparisonTriangle(f"comparison triangle does not exist: {reason}")
    cos_ang, degenerate = _cos_angles(kappa, a, b, c)
    if degenerate and degenerate_mode == "error":
        raise UndefinedAngle(f"spherical vertex degenerate: sin(a * sqrt(kappa)) * "
                             f"sin(b * sqrt(kappa)) ~ 0 for a = {a}, b = {b}")
    return _clamped_acos(float(cos_ang))


def comparison_angles_array(kappa, a, b, c):
    """Vectorized comparison angles with the "zero" degenerate convention.

    a, b are the sides adjacent to the vertex, c the opposite side; all three
    broadcast together.  Entries whose triangle does not exist (or whose
    spherical denominator vanishes) get angle 0.  Entries with a zero
    adjacent side get NaN; callers decide how to treat them.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    a, b, c = np.broadcast_arrays(a, b, c)
    out = np.zeros(a.shape, dtype=float)

    bad_vertex = (a == 0.0) | (b == 0.0)
    exists = (c <= a + b) & (a <= b + c) & (b <= a + c)
    if kappa > 0:
        s = math.sqrt(kappa)
        bound = math.pi / s + 1e-9
        exists &= (a <= bound) & (b <= bound) & (c <= bound)
        exists &= a + b + c <= 2 * math.pi / s + 1e-9

    sel = exists & ~bad_vertex
    if np.any(sel):
        cos_ang, _ = _cos_angles(kappa, a[sel], b[sel], c[sel])
        out[sel] = np.arccos(np.clip(cos_ang, -1.0, 1.0))
    out[bad_vertex] = np.nan
    return out
