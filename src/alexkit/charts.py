"""Strainer distance-map charts and their quantitative verification.

A chart maps a region around a strained base point through
f = (d(a_1, .), ..., d(a_k, .)) and measures how far f is from an isometry:
Lipschitz / co-Lipschitz ratios in both the extrinsic and intrinsic metrics,
empirical openness in the sense of the direction-realizability hypothesis,
and the comparison-angle monotonicity of unit-speed curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# intrinsic_metric is called through its home module, where wrappers are installed
from . import space as _space
from .errors import KitError, Refusal
from .kplane import comparison_angles_array
from .space import (Curve, Space, Subset, ball, euclidean_matrix, graph_path, link_graph,
                    linked, shortest_paths)
from .strainers import Strainer

RATIO_QUANTILES = (0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0)
ARC_LENGTH_TOLERANCE = 0.2  # path gaps may differ from the step by this fraction
DIRECTION_COUNT = 16  # directions per sphere dimension of every direction grid


@dataclass
class Chart:
    subset: Subset
    strainer: Strainer
    radius: float
    region: np.ndarray
    values: np.ndarray          # (len(region), k)
    stats: dict = field(default_factory=dict)

    @property
    def k(self) -> int:
        return self.strainer.k

    def to_dict(self) -> dict:
        return {
            "base": self.strainer.base,
            "strainer": self.strainer.to_dict(),
            "radius": self.radius,
            "region": self.region.tolist(),
            "stats": self.stats,
        }


def _ratio_stats(fdiff: np.ndarray, dmat: np.ndarray) -> dict:
    iu, ju = np.triu_indices(dmat.shape[0], k=1)
    dd = dmat[iu, ju]
    ff = fdiff[iu, ju]
    ok = np.isfinite(dd) & (dd > 0)
    if not np.any(ok):
        raise Refusal("no usable pairs in chart region")
    ratios = ff[ok] / dd[ok]
    qs = {f"q{int(q * 100):03d}": float(np.quantile(ratios, q))
          for q in RATIO_QUANTILES}
    return {
        "lip": float(ratios.max()),
        "colip": float(ratios.min()),
        "max_ratio": float(ratios.max()),
        "min_ratio": float(ratios.min()),
        "max_abs_dev": float(np.abs(ratios - 1.0).max()),
        "pairs": int(ok.sum()),
        "quantiles": qs,
    }


def build_chart(subset: Subset, strainer: Strainer, radius: float | None = None) -> Chart:
    """Distance-map chart over subset /\\ ball(base, radius) with pair stats.

    Default radius is length * max(delta_achieved, 0.1), the scale on which
    the strainer controls the map.  Requires a strainer and at least 2 region
    points.  A radius that reaches a strainer point a folds the map: points on
    either side of a share d(a, .), their ratio is 0 and ``max_abs_dev`` is 1
    whatever the geometry, so keep the radius below the strainer length.
    """
    if strainer is None:
        raise Refusal("no strainer given; a chart needs a strained base point")
    if strainer.k < 1:
        raise Refusal(f"a chart needs k >= 1, got k = {strainer.k}")
    space = subset.space
    if radius is None:
        radius = strainer.length * max(strainer.delta_achieved, 0.1)
    region = np.intersect1d(subset.indices, ball(space, strainer.base, radius))
    if region.size < 2:
        raise Refusal(f"chart region has {region.size} point(s); need >= 2")
    a_ids = np.array([a for a, _ in strainer.pairs], dtype=int)
    values = space.dist[np.ix_(a_ids, region)].T.copy()

    fdiff = euclidean_matrix(values)
    stats = {"extrinsic": _ratio_stats(fdiff, space.dist[np.ix_(region, region)])}
    d_e = _space.intrinsic_metric(subset, region, region)
    stats["intrinsic"] = _ratio_stats(fdiff, d_e)
    return Chart(subset=subset, strainer=strainer, radius=float(radius),
                 region=region, values=values, stats=stats)


# ---------------------------------------------------------------------------
# direction grids (deterministic)

def direction_grid(k: int, count: int) -> np.ndarray:
    """Deterministic unit directions in R^k: signs, equal angles, Fibonacci."""
    if k == 1:
        return np.array([[1.0], [-1.0]])
    if k == 2:
        ang = 2.0 * math.pi * np.arange(count) / count
        return np.column_stack([np.cos(ang), np.sin(ang)])
    if k == 3:
        n = count * count
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        i = np.arange(n) + 0.5
        phi = 2.0 * math.pi * i / golden
        z = 1.0 - 2.0 * i / n
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    raise Refusal(f"direction grids implemented for k <= 3, got k = {k}")


def direction_defects(values: np.ndarray, value: np.ndarray, dist: np.ndarray,
                      probe: float, dirs: np.ndarray) -> np.ndarray | None:
    """Per direction xi, min of |(values_q - value) / dist_q - xi| over the
    probe rows q, those with 0 < dist_q <= probe (:func:`linked`); None when
    there are none."""
    near = np.flatnonzero(linked(dist, probe))
    if near.size == 0:
        return None
    diffs = (values[near] - value) / dist[near, None]
    return np.linalg.norm(diffs[:, None, :] - dirs[None, :, :], axis=-1).min(axis=0)


def nearest_values(pool: np.ndarray, targets: np.ndarray):
    """Row of pool nearest to each row of targets, and its squared distance."""
    gaps = ((pool[None, :, :] - targets[:, None, :]) ** 2).sum(axis=-1)
    return np.argmin(gaps, axis=1), gaps.min(axis=1)


def openness_measure(chart: Chart) -> dict:
    """Empirical direction-realizability defect of the chart map.

    For each region point p and each grid direction xi, finds a nearby subset
    point q minimizing |(f(q) - f(p)) / d(p, q) - xi|; the returned eps_open
    is the max over (p, xi) of that minimum.  A map whose defect is eps is
    (1 - eps)-open on the region.  Probe points are drawn from the whole
    subset within probe_radius = max(4h, radius / 4) so that region-edge
    points can still realize outward directions; isolated points are skipped
    and counted.
    """
    subset = chart.subset
    space = subset.space
    probe_radius = max(4.0 * space.require_resolution(), chart.radius / 4.0)
    dirs = direction_grid(chart.k, DIRECTION_COUNT)
    a_ids = np.array([a for a, _ in chart.strainer.pairs], dtype=int)
    sub_vals = space.dist[np.ix_(a_ids, subset.indices)].T  # (S, k)

    eps_open = 0.0
    worst = None
    skipped = 0
    for idx, p in enumerate(chart.region):
        per_dir = direction_defects(sub_vals, chart.values[idx],
                                    space.dist[p, subset.indices], probe_radius, dirs)
        if per_dir is None:
            skipped += 1
            continue
        j = int(np.argmax(per_dir))
        if per_dir[j] > eps_open:
            eps_open = float(per_dir[j])
            worst = {"point": int(p), "direction": dirs[j].tolist()}
    return {"eps_open": eps_open, "openness": 1.0 - eps_open, "worst": worst,
            "skipped_points": skipped, "probe_radius": probe_radius,
            "directions": len(dirs)}


def metric_comparison(subset: Subset, p: int, radius: float) -> dict:
    """Max of d_E / d over pairs of subset points near p."""
    space = subset.space
    space.require_scale(radius, 4.0, "radius")
    ids = np.intersect1d(subset.indices, ball(space, p, radius))
    if ids.size < 2:
        raise Refusal("fewer than 2 subset points in the ball")
    d_e = _space.intrinsic_metric(subset, ids, ids)
    d = space.dist[np.ix_(ids, ids)]
    iu, ju = np.triu_indices(ids.size, k=1)
    ratios = d_e[iu, ju] / d[iu, ju]
    finite = np.isfinite(ratios)
    if not finite.any():
        raise Refusal("all pairs disconnected in the intrinsic metric")
    a = int(np.flatnonzero(finite)[np.argmax(ratios[finite])])
    return {
        "max_ratio": float(ratios[a]),
        "argmax_pair": (int(ids[iu[a]]), int(ids[ju[a]])),
        "pairs": int(finite.sum()),
    }


# ---------------------------------------------------------------------------
# comparison angles along curves

def quasigeodesic_check(space: Space, path: Curve, p: int) -> dict:
    """Largest monotonicity violation of t -> angle(p, path(t), path(t + tau)).

    For each point on the path the comparison angle (zero convention) toward
    later points is computed over increasing tau, up to pi/sqrt(kappa) when
    kappa > 0; nonincreasing sequences characterize quasigeodesics.  The path
    must be arc-length parametrized: consecutive gaps within
    ARC_LENGTH_TOLERANCE (20 %) of the declared step.
    """
    (p,) = space.check_ids([p])
    ids = path.points
    if ids.size < 3:
        raise Refusal("path too short for a monotonicity check")
    if np.any(ids == p):
        raise Refusal("viewpoint lies on the path")
    gaps = space.dist[ids[:-1], ids[1:]]
    step = path.step if path.step else float(np.median(gaps))
    if np.any(np.abs(gaps - step) > ARC_LENGTH_TOLERANCE * step):
        raise Refusal("path is not arc-length parametrized at its declared step")
    t = np.concatenate([[0.0], np.cumsum(gaps)])
    dp = space.dist[p, ids]
    tau_cap = math.pi / math.sqrt(space.kappa) if space.kappa > 0 else math.inf

    worst = 0.0
    worst_at = None
    for i in range(ids.size - 2):
        tau = t[i + 1:] - t[i]
        keep = tau < tau_cap
        if keep.sum() < 2:
            continue
        ang = comparison_angles_array(space.kappa, dp[i], tau[keep],
                                      dp[i + 1:][keep])
        inc = np.diff(ang)
        j = int(np.argmax(inc))
        if inc[j] > worst:
            worst = float(inc[j])
            worst_at = {"index": i, "tau": float(tau[keep][j + 1])}
    return {"max_violation": worst, "worst": worst_at, "points": int(ids.size)}


def intrinsic_shortest_path(subset: Subset, start: int, end: int) -> Curve:
    """Shortest path in the subset's link graph as a Curve.

    Routing uses weights d^1.01: among the many tied shortest chains through
    a collinear sample this prefers the maximally refined one (consecutive
    samples, near-uniform steps) while perturbing route selection by well
    under the sampling error.  The reported length is the true weight sum.

    The link radius is the smallest radius whose link graph joins start to
    end: the least, over paths of the subset's :func:`link_graph`, of the
    longest edge (:func:`shortest_paths` with ``np.maximum``), which is the
    longest edge on their path through a minimum spanning forest.  The path
    then never jumps further than it must, so it stays on the subset instead
    of cutting its corners by up to the subset's own link radius.  Points in
    different components of that graph, at d_E = inf, raise KitError.
    """
    space, ids = subset.space, subset.indices
    i0, i1 = subset.position([start, end]).tolist()
    graph = link_graph(space, ids, space.link_radius())
    bottleneck = shortest_paths(graph, [i0], targets=[i1], combine=np.maximum)[0, i1]
    if bottleneck == math.inf:
        raise KitError(f"{start} and {end} are in different link components")
    # the link graph at the bottleneck radius, weighted by d^1.01
    indptr, cols, data = graph
    near = data <= bottleneck
    graph = (np.r_[0, np.cumsum(near)][indptr], cols[near], data[near] ** 1.01)
    dist = shortest_paths(graph, [i0], targets=[i1])[0]
    ids = ids[graph_path(graph, dist, i0, i1)]
    gaps = space.dist[ids[:-1], ids[1:]]
    step = float(np.median(gaps)) if gaps.size else 0.0  # start == end
    return Curve(points=ids, step=step,
                 kind="intrinsic-geodesic",
                 meta={"length": float(gaps.sum())})
