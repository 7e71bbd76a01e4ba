"""Discrete gradient curves of distance functions.

Directions are witness-based: the derivative of dist_q at x toward a witness
w is -cos of the comparison angle q x w (first variation).  Curves take
unit-ish steps to the best witness in an annulus; too-close witnesses would
amplify the O(h) angle noise, hence the annulus lower bound.  The reported
"gradient magnitude" is the best witness derivative, a biased-low estimator
with bias O(h / step); the bias is stated, not corrected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FlowStalled, KitError, Refusal
from .kplane import comparison_angles_array
from .space import Curve, Space, Subset

DEFAULT_STOP_THRESHOLD = 0.1  # discrete derivative noise floor is O(h/step)
NEAR_CRITICAL_THRESHOLD = 0.3  # gradient estimates below this are flagged


@dataclass(frozen=True)
class FlowConfig:
    step: float
    witness_radius: float
    max_steps: int = 100
    stop_threshold: float = DEFAULT_STOP_THRESHOLD

    def check(self, space: Space):
        h = space.require_resolution()
        if self.step < 2.0 * h:
            raise Refusal(f"step {self.step} below 2h = {2 * h}")
        if self.witness_radius < self.step:
            raise Refusal("witness_radius must be >= step")


def directional_derivative(space: Space, q: int, x: int, w: int) -> float:
    """Witness approximation of d(dist_q) at x toward w: -cos angle(q, x, w)."""
    q, x, w = (int(i) for i in space.check_ids([q, x, w]))
    if x == q or w == x:
        raise KitError("directional derivative needs distinct q != x and w != x")
    ang = comparison_angles_array(space.kappa, space.dist[q, x],
                                  space.dist[x, w], space.dist[q, w])
    return float(-np.cos(ang))


def _best_step(space: Space, q: int, x: int, cfg: FlowConfig):
    dx = space.dist[x]
    cand = np.flatnonzero((dx >= cfg.step) & (dx <= cfg.witness_radius))
    cand = cand[cand != q]
    if cand.size == 0:
        raise FlowStalled(
            f"no candidates in annulus [{cfg.step}, {cfg.witness_radius}] around {x}",
            {"x": x, "q": q})
    ang = comparison_angles_array(space.kappa, space.dist[q, x], dx[cand],
                                  space.dist[q, cand])
    derivs = -np.cos(ang)
    best = float(np.nanmax(derivs))
    # deterministic tie-break: lowest id among near-maximal derivatives
    w = int(cand[np.flatnonzero(derivs >= best - 1e-12)[0]])
    return w, best


def gradient_curve(space: Space, q: int, x0: int, cfg: FlowConfig) -> Curve:
    """Discrete ascent curve of dist_q from x0.

    Moves to the annulus witness maximizing the directional derivative until
    the best derivative drops to ``stop_threshold`` (the point is then
    considered critical and the gradient zero) or ``max_steps`` is reached.
    Deterministic: identical inputs give identical curves.
    """
    q, x0 = (int(i) for i in space.check_ids([q, x0]))
    if x0 == q:
        raise KitError("start coincides with the distance-function center")
    cfg.check(space)
    points = [x0]
    derivs = []
    x = x0
    for _ in range(cfg.max_steps):
        w, best = _best_step(space, q, x, cfg)
        if best <= cfg.stop_threshold:
            break
        points.append(w)
        derivs.append(best)
        x = w
    return Curve(points=np.asarray(points, dtype=int), step=cfg.witness_radius,
                 kind="gradient",
                 meta={"derivatives": derivs, "q": q,
                       "stopped": len(points) <= cfg.max_steps})


def extremal_invariance_test(subset: Subset, q: int, starts, cfg: FlowConfig) -> dict:
    """Max distance from the subset along gradient curves started on it.

    Extremal subsets are exactly the subsets invariant under gradient curves
    of ambient distance functions; a deviation growing past a few sample
    pitches exposes a non-extremal subset.
    """
    space = subset.space
    starts = space.check_ids(starts)
    if int(q) in set(subset.indices.tolist()):
        raise Refusal("q must lie outside the subset for a nontrivial test")
    if not set(starts.tolist()) <= set(subset.indices.tolist()):
        raise Refusal("starts must lie in the subset")
    deviations = {}
    stalls = {}
    worst = 0.0
    for x0 in starts:
        try:
            curve = gradient_curve(space, int(q), int(x0), cfg)
        except FlowStalled as e:
            stalls[int(x0)] = str(e)
            continue
        dev = float(space.dist[np.ix_(curve.points, subset.indices)].min(axis=1).max())
        deviations[int(x0)] = dev
        worst = max(worst, dev)
    return {"max_deviation": worst, "per_start": deviations, "stalls": stalls}


def dist_gradient_lower_bound(subset: Subset, band: dict, cfg: FlowConfig) -> dict:
    """Empirical lower bound for |grad dist_E| on a band around the subset.

    For every ambient x with inner <= d(x, E) <= outer, the derivative of
    dist_E toward a witness w is the min over nearest subset points e of
    -cos angle(e, x, w); the per-point gradient estimate is the max over
    witnesses, and the returned bound the min over the band.  Points whose
    estimate falls below NEAR_CRITICAL_THRESHOLD (0.3) are flagged (e.g.
    close to a cut locus).
    """
    space = subset.space
    h = space.require_resolution()
    inner, outer = float(band["inner"]), float(band["outer"])
    if inner < 2.0 * h:
        raise Refusal(f"band inner radius must be >= 2h = {2 * h}")
    cfg.check(space)
    d_to_sub = space.dist[:, subset.indices].min(axis=1)
    in_band = np.flatnonzero((d_to_sub >= inner) & (d_to_sub <= outer))
    in_band = np.setdiff1d(in_band, subset.indices)
    if in_band.size == 0:
        raise Refusal("band contains no ambient sample points")

    lowest = math.inf
    argmin = None
    flagged = []
    for x in in_band:
        dx = space.dist[x]
        de = d_to_sub[x]
        nearest = subset.indices[space.dist[x, subset.indices] <= de * 1.05 + 1e-12]
        ws = np.flatnonzero((dx >= cfg.step) & (dx <= cfg.witness_radius))
        if ws.size == 0:
            continue
        ang = comparison_angles_array(
            space.kappa, dx[nearest][:, None], dx[ws][None, :],
            space.dist[np.ix_(nearest, ws)])
        derivs = (-np.cos(ang)).min(axis=0)  # worst over nearest points
        grad = float(derivs.max())
        if grad < NEAR_CRITICAL_THRESHOLD:
            flagged.append(int(x))
        if grad < lowest:
            lowest = grad
            argmin = int(x)
    return {"epsilon": lowest, "argmin": argmin, "flagged": flagged,
            "band_points": int(in_band.size)}
