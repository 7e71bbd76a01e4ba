"""Gluing local strainer charts into global maps, inside one space.

Two constructions:

* a projection from a collar neighborhood of a strained subset onto the
  subset, built by blending local distance-map charts over a maximal
  r/2-discrete net with a smoothstep partition of unity;
* a volume-convergence experiment harness comparing packing-based measure
  estimates along a family of spaces.

A chart (:class:`NetChart`) sits at each point of the net: its strainer
re-based along sampled shortest paths.  One inductive blend (``_blend``)
glues the charts in chart coordinates (R^m) and pulls back by nearest-value
inversion; chart order is net id order, fixed and recorded (the induction is
order-dependent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .charts import (DIRECTION_COUNT, direction_defects, direction_grid,
                     nearest_values)
from .errors import KitError, Refusal
from .space import (Space, Subset, ball, calibration_constant, distance_to,
                    effective_spacing, even_positions, graph_path,
                    hausdorff_measure_estimate, link_graph, packing_ids)
from .strainers import Strainer, classify, is_strainer

NET_MIN_PITCH_FACTOR = 4.0       # r >= 4h keeps the net resolvable
REBASE_MARGIN_SLACK = 0.05       # rebased strainers may lose this much margin
QUALITY_PAIR_FLOOR_FACTOR = 2.0  # ratio stats use pairs with d >= 2r
QUALITY_POINT_CAP = 2500


def discrete_net(subset: Subset, r: float) -> np.ndarray:
    """Maximal r/2-discrete set in the subset, greedy in id order.

    Pairwise distances are > r/2 and every subset point lies within r/2 of
    the net; both properties are verified exactly before returning.
    """
    space = subset.space
    space.require_scale(r, NET_MIN_PITCH_FACTOR, "r")
    half = r / 2.0
    net = packing_ids(space, subset.indices, half)
    iu, ju = np.triu_indices(net.size, k=1)
    if not np.all(space.dist[net[iu], net[ju]] > half):
        raise KitError("net lost r/2-discreteness")  # unreachable by construction
    if not np.all(distance_to(space, subset.indices, net) <= half):
        raise KitError("net is not maximal")
    return net


def bump(t):
    """Smoothstep cutoff: 1 on [0, 1], 0 on [2, inf), C^1, Lipschitz 1.5."""
    t = np.asarray(t, dtype=float)
    s = np.clip(t - 1.0, 0.0, 1.0)
    out = 1.0 - 3.0 * s**2 + 2.0 * s**3
    return out if out.ndim else float(out)


@dataclass
class NetChart:
    """The distance-map chart phi = d(a_i, .) at a net point, inverted by
    nearest value over the inversion pool."""

    base: int
    a_ids: np.ndarray            # rebased strainer a-points
    b_ids: np.ndarray
    margin: float                # margin of the rebased strainer
    inversion_pool: np.ndarray   # subset ids eligible for nearest-value lookup


@dataclass
class GlueMap:
    subset: Subset
    net: np.ndarray
    r: float
    rho: float
    charts: list[NetChart]
    domain: np.ndarray
    assignment: np.ndarray       # domain position -> subset point id
    identity_exact: bool
    flagged_points: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "net": self.net.tolist(), "r": self.r, "rho": self.rho,
            "domain": self.domain.tolist(),
            "assignment": self.assignment.tolist(),
            "identity_exact": self.identity_exact,
            "flagged_points": list(self.flagged_points),
            "warnings": list(self.warnings),
            "quality": self.quality,
            "charts": [{"base": int(c.base), "a_ids": c.a_ids.tolist(),
                        "b_ids": c.b_ids.tolist(), "margin": c.margin}
                       for c in self.charts],
        }


def _rebase_strainer(space: Space, witness: Strainer, pred_row,
                     target_distance: float) -> tuple[np.ndarray, np.ndarray]:
    """The witness's a- and b-points, each moved along its graph path from the
    base (``pred_row``) to the first node at distance >= ``target_distance``
    from the base, or left where it is when the path is shorter."""
    base, moved = witness.base, []
    for point in [q for pair in witness.pairs for q in pair]:  # a0, b0, a1, ...
        chain = graph_path(pred_row, base, point)
        if chain is None:
            raise KitError(f"no graph path from {base} to {point}")
        far = chain[space.dist[base, chain] >= target_distance]
        moved.append(far[0] if far.size else point)
    moved = np.asarray(moved, dtype=int)
    return moved[0::2], moved[1::2]


def _net_charts(mask, net: np.ndarray, r: float) -> list[NetChart]:
    """One chart per net point of the mask's subset.

    Each witness is re-based at distance max(ell * delta, 4r) along sampled
    shortest paths; its margin must stay below delta + REBASE_MARGIN_SLACK.
    The inversion pool is the subset within 3r of the base.
    """
    subset = mask.subset
    space = subset.space
    ell, delta = mask.ell, mask.delta
    rebase_distance = max(ell * delta, 4.0 * r)
    max_margin = delta + REBASE_MARGIN_SLACK
    graph = link_graph(space, np.arange(space.n_points), space.link_radius())
    _, pred_rows = dijkstra(graph, directed=False, indices=net, return_predecessors=True)
    charts = []
    for row, p in enumerate(net):
        a_ids, b_ids = _rebase_strainer(space, mask.witnesses[int(p)],
                                        pred_rows[row], rebase_distance)
        ok, margin = is_strainer(space, int(p),
                                 list(zip(a_ids.tolist(), b_ids.tolist())), max_margin)
        if not ok:
            raise Refusal(f"strainer gap at net point {int(p)}: rebased margin "
                          f"{margin:.4f} >= {max_margin:.4f}")
        pool = np.intersect1d(subset.indices, ball(space, int(p), 3.0 * r))
        charts.append(NetChart(base=int(p), a_ids=a_ids, b_ids=b_ids, margin=margin,
                               inversion_pool=pool))
    return charts


def _blend(space: Space, charts: list[NetChart], domain: np.ndarray, r: float):
    """Glue the chart inversions, in net order, into a map domain -> subset.

    On each chart's ball B(base, 2r) the value in chart coordinates is the
    convex combination (1 - chi) phi(f_prev) + chi phi where the map is
    already defined, and phi where chi = 1; it is pulled back by nearest
    value over the chart's inversion pool.  Returns the subset id of each
    domain position and the largest lookup residual it had at any chart.
    """
    assignment = np.full(domain.size, -1, dtype=int)
    resid = np.zeros(domain.size)
    for chart in charts:
        dpk = space.dist[chart.base, domain]
        in2u = np.flatnonzero(dpk < 2.0 * r)
        if in2u.size == 0:
            continue
        chi = bump(dpk[in2u] / r)
        use = (assignment[in2u] >= 0) | (chi >= 1.0)
        idx, chi = in2u[use], chi[use][:, None]
        prev = assignment[idx]
        phi = space.dist[np.ix_(chart.a_ids, domain[idx])].T
        phi_prev = space.dist[np.ix_(chart.a_ids, np.maximum(prev, 0))].T
        values = np.where((prev >= 0)[:, None],
                          (1.0 - chi) * phi_prev + chi * phi, phi)
        phi_pool = space.dist[np.ix_(chart.a_ids, chart.inversion_pool)].T
        nearest, gap = nearest_values(phi_pool, values)
        resid[idx] = np.maximum(resid[idx], np.sqrt(gap))
        assignment[idx] = chart.inversion_pool[nearest]
    if (assignment < 0).any():
        raise KitError("glue domain not fully covered by net charts")
    return assignment, resid


def build_projection(subset: Subset, m: int, delta: float, ell: float, r: float,
                     rho: float | None = None) -> GlueMap:
    """Blend local strainer charts into a projection U_rho(E) -> E.

    Every subset point must be (m, delta)-strained with length > ell, searched
    out to min(4 ell, diameter) (checked up front; violators are listed in the
    refusal).  A maximal r/2-discrete net is built, a strainer found at each
    net point with its points re-based at max(ell * delta, 4r) along sampled
    shortest paths, and the local chart inversions are blended inductively
    over net order: on each new chart ball the value in chart coordinates is
    the convex combination (1 - chi) phi(f_prev) + chi phi, pulled back by
    nearest-value lookup over the chart's own piece of the subset (radius 3r).

    That the restriction to the subset is the identity is checked and
    reported as ``identity_exact``, not guaranteed.  One-coordinate charts
    are inverted over pools wider than the stretch where d(a, .) is
    one-to-one, so a subset point can go to its mirror image across a: on the
    collar-32gon workload subset points 13, 43 and 87 move by 0.156, 0.156
    and 0.667, and ``identity_exact`` is False (FOUND 10 in CHANGES.md,
    ROADMAP item 7).
    """
    if m < 1:
        raise Refusal(f"a projection needs m >= 1, got m = {m}")
    space = subset.space
    h = space.require_resolution()
    if rho is None:
        rho = r / 10.0
    if (3.0 + 2.0 * math.sqrt(m)) * rho >= r:
        raise Refusal(f"(3 + 2*sqrt(m)) * rho = {(3 + 2 * math.sqrt(m)) * rho} "
                      f"must be < r = {r}")
    warnings = []
    if r > ell * delta:
        warnings.append(
            f"net scale r = {r} exceeds ell*delta = {ell * delta}; the "
            "asymptotic regime r < ell*delta^2 is out of reach at this "
            "resolution, chart validity is verified empirically instead")
    mask = classify(subset, m, delta, ell)
    violators = np.setdiff1d(subset.indices, mask.member_ids)
    if violators.size:
        raise Refusal(
            f"{violators.size} subset point(s) not (m={m}, delta={delta})-"
            f"strained with length > {ell}: first ids {violators[:10].tolist()}")

    net = discrete_net(subset, r)
    charts = _net_charts(mask, net, r)

    d_to_sub = distance_to(space, np.arange(space.n_points), subset.indices)
    domain = np.flatnonzero(d_to_sub < rho)
    domain = np.union1d(domain, subset.indices)
    assignment, resid = _blend(space, charts, domain, r)

    sub_positions = np.searchsorted(domain, subset.indices)
    identity_exact = bool(np.all(assignment[sub_positions] == subset.indices))
    flagged = domain[resid > max(delta * r, 4.0 * h)].tolist()
    return GlueMap(subset=subset, net=net, r=r, rho=rho, charts=charts,
                   domain=domain, assignment=assignment,
                   identity_exact=identity_exact,
                   flagged_points=flagged, warnings=warnings)


def projection_quality(gmap: GlueMap) -> dict:
    """Measured Lipschitz/co-Lipschitz constants and the blend-consistency
    statistics of a glue map.

    Ratio statistics use pairs at distance >= pair_floor =
    QUALITY_PAIR_FLOOR_FACTOR * r (2r): below that the nearest-value lookup
    granularity, not the map, dominates.  Co-Lipschitz is measured through
    the direction-realizability defect of psi_j o f per net chart.
    """
    space = gmap.subset.space
    h = space.require_resolution()
    pair_floor = QUALITY_PAIR_FLOOR_FACTOR * gmap.r
    domain = gmap.domain
    take = even_positions(domain.size, QUALITY_POINT_CAP)
    pts = domain[take]
    imgs = gmap.assignment[take]

    dd = space.dist[np.ix_(pts, pts)]
    fd = space.dist[np.ix_(imgs, imgs)]
    iu, ju = np.triu_indices(pts.size, k=1)
    sel = dd[iu, ju] >= pair_floor
    if not sel.any():
        raise Refusal(f"no usable pairs: no domain points are >= 2r = {pair_floor} apart")
    lip = float((fd[iu, ju][sel] / dd[iu, ju][sel]).max())

    # displacement against twice the distance to the subset
    d_to_sub = distance_to(space, domain, gmap.subset.indices)
    disp = space.dist[domain, gmap.assignment]
    off = d_to_sub > 0
    ratio_max = float((disp[off] / d_to_sub[off]).max()) if off.any() else 0.0
    excess_max = float((disp - 2.0 * d_to_sub).max())

    colip = math.inf
    clm1 = 0.0
    clm2 = 0.0
    for chart in gmap.charts:
        dpk = space.dist[chart.base, domain]
        near = np.flatnonzero(dpk < 3.0 * gmap.r)
        if near.size < 2:
            continue
        phi = space.dist[np.ix_(chart.a_ids, domain[near])].T
        psi_f = space.dist[np.ix_(chart.a_ids, gmap.assignment[near])].T
        # single-chart inversion vs the glued map
        psi_pool = space.dist[np.ix_(chart.a_ids, chart.inversion_pool)].T
        solo = chart.inversion_pool[nearest_values(psi_pool, phi)[0]]
        clm1 = max(clm1, float(
            space.dist[solo, gmap.assignment[near]].max() / gmap.r))
        # blend-difference quotient over pairs
        dloc = space.dist[np.ix_(domain[near], domain[near])]
        il, jl = np.triu_indices(near.size, k=1)
        sel = dloc[il, jl] >= pair_floor
        if sel.any():
            num = np.linalg.norm(
                (phi[il] - phi[jl]) - (psi_f[il] - psi_f[jl]), axis=1)
            clm2 = max(clm2, float((num[sel] / dloc[il, jl][sel]).max()))
        # openness of psi_j o f at inner chart points
        inner = np.flatnonzero(dpk[near] < 2.0 * gmap.r)
        eps_open = _composite_openness(dloc, psi_f, inner, probe=gmap.r)
        if eps_open is not None:
            colip = min(colip, 1.0 - eps_open)

    quality = {
        "lip": lip, "colip": colip if math.isfinite(colip) else None,
        "pair_floor": pair_floor,
        "displacement_ratio_max": ratio_max,
        "displacement_excess_max": excess_max,
        "displacement_budget_4h": 4.0 * h,
        "chart_consistency_over_r": clm1,
        "blend_difference_quotient": clm2,
        "identity_exact": gmap.identity_exact,
        "points_used": int(pts.size),
    }
    gmap.quality = quality
    return quality


def _composite_openness(d, values, inner, probe):
    dirs = direction_grid(values.shape[1], DIRECTION_COUNT)
    defects = (direction_defects(values, values[i], d[i], probe, dirs) for i in inner)
    return max((float(per_dir.max()) for per_dir in defects if per_dir is not None),
               default=None)


# ---------------------------------------------------------------------------
# volume convergence harness

def volume_convergence_experiment(members, m: int, eps: float,
                                  limit: float | None = None) -> dict:
    """Measure estimates along a family of subsets, with trend verdicts.

    ``members`` is an iterable of {"label", "subset", "exact"? } dicts, read
    once: each member is measured and let go before the next is read, so a
    generator of members holds one space at a time.  Emits one row per member
    with estimates in both metrics and deviations from the family limit.
    Deviations below one packing count (the estimator granularity
    c_m * s_eff^m) are not resolvable, so the monotonicity verdict allows that
    slack; collapsing families (estimates shrinking toward zero) are flagged
    instead of trend-tested.
    """
    rows = []
    for mem in members:
        subset = mem["subset"]
        est_e = hausdorff_measure_estimate(subset, m, eps, "extrinsic")
        est_i = hausdorff_measure_estimate(subset, m, eps, "intrinsic")
        rows.append({
            "label": mem.get("label", subset.name),
            "estimate_extrinsic": est_e,
            "estimate_intrinsic": est_i,
            "exact": mem.get("exact"),
        })
        h_last = subset.space.resolution
        del mem, subset  # else they hold this member while the next is built
    if not rows:
        raise Refusal("a convergence family needs at least one member")
    if limit is None:
        exacts = [r["exact"] for r in rows if r["exact"] is not None]
        limit = exacts[-1] if exacts else None

    gran = calibration_constant(m)["c"] * effective_spacing(eps, h_last) ** m

    collapse = rows[-1]["estimate_extrinsic"] < 0.5 * rows[0]["estimate_extrinsic"]
    verdict = {"collapse": bool(collapse), "granularity": gran, "limit": limit}
    if limit is not None:
        for r_ in rows:
            r_["deviation_extrinsic"] = abs(r_["estimate_extrinsic"] - limit)
            r_["deviation_intrinsic"] = abs(r_["estimate_intrinsic"] - limit)
        if not collapse:
            for key in ("deviation_extrinsic", "deviation_intrinsic"):
                devs = [r_[key] for r_ in rows]
                noninc = all(b <= a + gran + 1e-12 for a, b in zip(devs, devs[1:]))
                verdict[f"{key}_nonincreasing"] = noninc
                verdict[f"{key}_decreased"] = devs[-1] < devs[0]
    return {"table": rows, "verdict": verdict, "eps": eps, "m": m}
