"""Closed-form trigonometry on the plane of constant curvature kappa.

Comparison angles from three side lengths by the kappa law of cosines,
for kappa < 0 (hyperbolic), kappa = 0 (Euclidean) and kappa > 0 (spherical).
The kernel is pure; kappa is an argument of every call, never global
state, so spaces with different curvature bounds can coexist.

Convention
----------
One convention, the one for comparison angles along unit-speed curves
(Alexander, Kapovitch and Petrunin, arXiv:1903.08539; Burago, Gromov and
Perelman 1992): the angle is 0 where no comparison triangle exists, and
also at a spherical vertex whose law-of-cosines denominator vanishes.  A
zero-length adjacent side gives NaN: no convention assigns an angle at a
collapsed vertex, and each caller decides how to treat it.
"""

from __future__ import annotations

import math

import numpy as np


def comparison_angles_array(kappa, a, b, c):
    """Comparison angles at the vertex between sides a and b, opposite to
    side c, in radians in [0, pi], on the kappa-plane.

    a, b and c broadcast together.  An entry whose triangle does not exist
    (a triangle inequality fails; for kappa > 0 a side exceeds
    pi/sqrt(kappa) or the perimeter 2 pi/sqrt(kappa), each by more than
    1e-9) gets angle 0, and so does a spherical vertex with
    |sin(a sqrt(kappa)) sin(b sqrt(kappa))| < 1e-14.  An entry with a zero
    adjacent side gets NaN.
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
        a, b, c = a[sel], b[sel], c[sel]
        if kappa == 0.0:
            cos_ang = (a * a + b * b - c * c) / (2.0 * a * b)
        elif kappa > 0.0:
            denom = np.sin(a * s) * np.sin(b * s)
            num = np.cos(c * s) - np.cos(a * s) * np.cos(b * s)
            with np.errstate(divide="ignore", invalid="ignore"):
                cos_ang = np.where(np.abs(denom) < 1e-14, 1.0, num / denom)
        else:
            # cosh a cosh b - cosh c = sinh a sinh b - 2 sinh((c+a-b)/2) sinh((c-a+b)/2)
            # for sides times s, which does not cancel when sides are short against 1/s
            s = math.sqrt(-kappa)
            num = 2.0 * np.sinh((c + a - b) * (s / 2.0)) * np.sinh((c - a + b) * (s / 2.0))
            cos_ang = 1.0 - num / (np.sinh(a * s) * np.sinh(b * s))
        out[sel] = np.arccos(np.clip(cos_ang, -1.0, 1.0))
    out[bad_vertex] = np.nan
    return out
