"""Gluing local strainer charts into global maps.

Three constructions share the same machinery:

* a projection from a collar neighborhood of a strained subset onto the
  subset, built by blending local distance-map charts over a maximal
  r/2-discrete net with a smoothstep partition of unity;
* an almost isometry between strained parts of two subsets in different
  spaces related by a Hausdorff approximation;
* a volume-convergence experiment harness comparing packing-based measure
  estimates along a family of spaces.

The first two are one construction from a source to a target space; the
projection is the case where the two are the same space.  A chart
(:class:`NetChart`) sits at each point of the net: its strainer re-based
along sampled shortest paths and mapped into the target.  One inductive
blend (``_blend``) glues the charts in chart coordinates (R^m) and pulls
back by nearest-value inversion; chart order is net id order, fixed and
recorded (the induction is order-dependent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .charts import direction_defects, direction_grid, nearest_values
from .errors import KitError, Refusal
from .space import (Space, Subset, ball, calibration_constant,
                    effective_spacing, greedy_packing_ids,
                    hausdorff_measure_estimate)
from .strainers import Strainer, classify, is_strainer

NET_MIN_PITCH_FACTOR = 4.0       # r >= 4h keeps the net resolvable
REBASE_MARGIN_SLACK = 0.05       # rebased strainers may lose this much margin
LIFT_MARGIN_SLACK = 0.1          # ... and lifted ones, in the other space, this much
QUALITY_PAIR_FLOOR_FACTOR = 2.0  # ratio stats use pairs with d >= 2r
QUALITY_POINT_CAP = 2500


def discrete_net(subset: Subset, r: float) -> np.ndarray:
    """Maximal r/2-discrete set in the subset, greedy in id order.

    Pairwise distances are > r/2 and every subset point lies within r/2 of
    the net; both properties are verified exactly before returning.
    """
    h = subset.space.require_resolution()
    if r < NET_MIN_PITCH_FACTOR * h:
        raise Refusal(f"net scale r = {r} below 4h = {NET_MIN_PITCH_FACTOR * h}")
    amb = subset.ambient_matrix()
    half = r / 2.0
    kept = greedy_packing_ids(subset.size, amb.__getitem__, half)
    net_ids = subset.indices[kept]
    sub = amb[np.ix_(kept, kept)]
    iu, ju = np.triu_indices(kept.size, k=1)
    if kept.size > 1 and not np.all(sub[iu, ju] > half):
        raise KitError("net lost r/2-discreteness")  # unreachable by construction
    if not np.all(amb[kept].min(axis=0) <= half):
        raise KitError("net is not maximal")
    return net_ids


def bump(t):
    """Smoothstep cutoff: 1 on [0, 1], 0 on [2, inf), C^1, Lipschitz 1.5."""
    t = np.asarray(t, dtype=float)
    s = np.clip(t - 1.0, 0.0, 1.0)
    out = 1.0 - 3.0 * s**2 + 2.0 * s**3
    return out if out.ndim else float(out)


@dataclass
class NetChart:
    """The distance-map chart at a net point, from a source to a target space.

    phi = d(a_i, .) in the source space is inverted by nearest value of
    psi = d(target_a_i, .) over the inversion pool; for the collar projection
    the two spaces are one and ``target_a_ids`` is ``a_ids``.
    """

    base: int
    a_ids: np.ndarray            # rebased strainer a-points, source ids
    b_ids: np.ndarray
    margin: float                # margin of the rebased strainer in the target
    inversion_pool: np.ndarray   # target ids eligible for nearest-value lookup
    target_a_ids: np.ndarray     # images of the a-points, target ids


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

    def image_of(self, x: int) -> int:
        pos = np.searchsorted(self.domain, x)
        if pos >= self.domain.size or self.domain[pos] != x:
            raise KitError(f"{x} not in the glue-map domain")
        return int(self.assignment[pos])

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


def _ambient_paths(space: Space, sources: np.ndarray) -> np.ndarray:
    """Dijkstra predecessor rows over the ambient link graph from the sources."""
    link = space.link_radius()
    adj = np.where((space.dist > 0) & (space.dist <= link), space.dist, 0.0)
    _, pred = dijkstra(csr_matrix(adj), directed=False, indices=sources,
                       return_predecessors=True)
    return pred


def _walk_to_distance(space: Space, pred_row, source: int, target: int,
                      distance: float) -> int:
    """First node at metric distance >= ``distance`` along the graph path
    from source to target; falls back to target if the path is shorter."""
    chain = [target]
    while chain[-1] != source:
        nxt = int(pred_row[chain[-1]])
        if nxt < 0:
            raise KitError(f"no graph path from {source} to {target}")
        chain.append(nxt)
    chain.reverse()
    for node in chain:
        if space.dist[source, node] >= distance:
            return int(node)
    return int(target)


def _rebase_strainer(space: Space, witness: Strainer, pred_row,
                     target_distance: float) -> tuple[np.ndarray, np.ndarray]:
    a_out, b_out = [], []
    for a, b in witness.pairs:
        a_out.append(_walk_to_distance(space, pred_row, witness.base, a,
                                       target_distance))
        b_out.append(_walk_to_distance(space, pred_row, witness.base, b,
                                       target_distance))
    return np.asarray(a_out, dtype=int), np.asarray(b_out, dtype=int)


def _net_charts(mask, net: np.ndarray, target: Subset, g: np.ndarray, r: float,
                pool_radius: float, max_margin: float) -> list[NetChart]:
    """One chart per net point, from the mask's space to the target's.

    Each witness is re-based at distance max(ell * delta, 4r) along sampled
    shortest paths and mapped by ``g`` (source id -> target id); its margin in
    the target space must stay below ``max_margin``.  The inversion pool is
    the target subset within ``pool_radius`` of the base's image.
    """
    source, space_t = mask.subset.space, target.space
    ell, delta = mask.ell, mask.delta
    rebase_distance = max(ell * delta, 4.0 * r)
    pred_rows = _ambient_paths(source, net)
    charts = []
    for row, p in enumerate(net):
        a_ids, b_ids = _rebase_strainer(source, mask.witnesses[int(p)],
                                        pred_rows[row], rebase_distance)
        ga, gb = g[a_ids], g[b_ids]
        ok, margin = is_strainer(space_t, int(g[p]),
                                 list(zip(ga.tolist(), gb.tolist())), max_margin)
        if not ok:
            raise Refusal(f"strainer gap at net point {int(p)}: rebased margin "
                          f"{margin:.4f} >= {max_margin:.4f} in the target space")
        pool = np.intersect1d(target.indices, ball(space_t, int(g[p]), pool_radius))
        charts.append(NetChart(base=int(p), a_ids=a_ids, b_ids=b_ids, margin=margin,
                               inversion_pool=pool, target_a_ids=ga))
    return charts


def _blend(source: Space, target: Space, charts: list[NetChart],
           domain: np.ndarray, r: float):
    """Glue the chart inversions, in net order, into a map domain -> target.

    On each chart's ball B(base, 2r) the target value is the convex
    combination (1 - chi) psi(f_prev) + chi phi where the map is already
    defined, and phi where chi = 1; it is pulled back by nearest value over
    the chart's inversion pool.  Returns the target id of each domain
    position and the largest lookup residual it had at any chart.
    """
    assignment = np.full(domain.size, -1, dtype=int)
    resid = np.zeros(domain.size)
    for chart in charts:
        dpk = source.dist[chart.base, domain]
        in2u = np.flatnonzero(dpk < 2.0 * r)
        if in2u.size == 0:
            continue
        chi = bump(dpk[in2u] / r)
        use = (assignment[in2u] >= 0) | (chi >= 1.0)
        idx, chi = in2u[use], chi[use][:, None]
        prev = assignment[idx]
        phi = source.dist[np.ix_(chart.a_ids, domain[idx])].T
        psi_prev = target.dist[np.ix_(chart.target_a_ids, np.maximum(prev, 0))].T
        targets = np.where((prev >= 0)[:, None],
                           (1.0 - chi) * psi_prev + chi * phi, phi)
        psi_pool = target.dist[np.ix_(chart.target_a_ids, chart.inversion_pool)].T
        nearest, gap = nearest_values(psi_pool, targets)
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
    over net order: on each new chart ball the target value is the convex
    combination (1 - chi) psi(f_prev) + chi phi, pulled back by nearest-value
    lookup over the chart's own piece of the subset (radius 3r).  The
    restriction to the subset is the identity exactly.
    """
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
    charts = _net_charts(mask, net, subset, np.arange(space.n_points), r,
                         3.0 * r, delta + REBASE_MARGIN_SLACK)

    d_to_sub = space.dist[:, subset.indices].min(axis=1)
    domain = np.flatnonzero(d_to_sub < rho)
    domain = np.union1d(domain, subset.indices)
    assignment, resid = _blend(space, space, charts, domain, r)

    sub_positions = np.searchsorted(domain, subset.indices)
    identity_exact = bool(np.all(assignment[sub_positions] == subset.indices))
    flagged = domain[resid > max(delta * r, 4.0 * h)].tolist()
    return GlueMap(subset=subset, net=net, r=r, rho=rho, charts=charts,
                   domain=domain, assignment=assignment,
                   identity_exact=identity_exact,
                   flagged_points=flagged, warnings=warnings)


def _cap_positions(n: int, cap: int) -> np.ndarray:
    if n <= cap:
        return np.arange(n)
    stride = n / cap
    return np.unique((np.arange(cap) * stride).astype(int))


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
    take = _cap_positions(domain.size, QUALITY_POINT_CAP)
    pts = domain[take]
    imgs = gmap.assignment[take]

    dd = space.dist[np.ix_(pts, pts)]
    fd = space.dist[np.ix_(imgs, imgs)]
    iu, ju = np.triu_indices(pts.size, k=1)
    sel = dd[iu, ju] >= pair_floor
    lip = float((fd[iu, ju][sel] / dd[iu, ju][sel]).max())

    # displacement against twice the distance to the subset
    d_to_sub = space.dist[np.ix_(domain, gmap.subset.indices)].min(axis=1)
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
        eps_open = _composite_openness(space, domain[near], psi_f, inner,
                                       probe=gmap.r, k=chart.a_ids.size)
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


def _composite_openness(space, ids, values, inner, probe, k):
    dirs = direction_grid(k, 16)
    eps = None
    d = space.dist[np.ix_(ids, ids)]
    for i in inner:
        near = np.flatnonzero((d[i] > 0) & (d[i] <= probe))
        if near.size == 0:
            continue
        worst = float(direction_defects(values[near], values[i], d[i, near],
                                        dirs).max())
        eps = worst if eps is None else max(eps, worst)
    return eps


# ---------------------------------------------------------------------------
# cross-space almost isometry

def cross_space_almost_isometry(e_subset: Subset, f_subset: Subset,
                                correspondence, m: int, delta: float,
                                ell: float, r: float,
                                epsilon: float | None = None) -> dict:
    """Chart-glued map from the strained part of E to F along a Hausdorff
    approximation.

    ``correspondence`` maps ambient ids of E's space to ids of F's space and
    must cover E and the strainer points.  At each net point the distance map
    from the strainer is matched with the distance map from the images of the
    strainer points in F; local inverses are glued with the same smoothstep
    blend as the collar projection.  Strainers are searched out to
    min(4 ell, diameter), inverted over pools of radius 4r, and may lose
    LIFT_MARGIN_SLACK of margin in F.  Distortion is measured over pairs at
    distance >= r (extrinsic metrics); displacement is reported against
    ``epsilon``.
    """
    space_e = e_subset.space
    space_f = f_subset.space
    g = np.asarray(correspondence, dtype=int)
    if g.shape[0] != space_e.n_points:
        raise Refusal("correspondence must cover every ambient point of E's space")
    mask = classify(e_subset, m, delta, ell)
    if mask.is_empty():
        raise Refusal("no strained points to map")
    domain_sub = Subset(space_e, mask.member_ids,
                        name=f"{e_subset.name}(strained)",
                        link_radius=e_subset.link_radius)
    net = discrete_net(domain_sub, r)
    charts = _net_charts(mask, net, f_subset, g, r, 4.0 * r,
                         delta + LIFT_MARGIN_SLACK)
    domain = mask.member_ids
    assignment, _ = _blend(space_e, space_f, charts, domain, r)

    dd = space_e.dist[np.ix_(domain, domain)]
    fd = space_f.dist[np.ix_(assignment, assignment)]
    iu, ju = np.triu_indices(domain.size, k=1)
    sel = dd[iu, ju] >= r
    distortion = float(np.abs(fd[iu, ju][sel] / dd[iu, ju][sel] - 1.0).max())
    displacement = float(space_f.dist[assignment, g[domain]].max())
    out = {
        "domain": domain, "assignment": assignment, "net": net,
        "distortion": distortion, "displacement": displacement,
        "charts": [{"base": c.base, "margin": c.margin} for c in charts],
    }
    if epsilon is not None:
        out["epsilon"] = epsilon
        out["displacement_over_epsilon"] = displacement / epsilon
    return out


# ---------------------------------------------------------------------------
# volume convergence harness

def volume_convergence_experiment(members, m: int, eps: float,
                                  limit: float | None = None) -> dict:
    """Measure estimates along a family of subsets, with trend verdicts.

    ``members`` is a list of {"label", "subset", "exact"? } dicts.  Emits one
    row per member with estimates in both metrics and deviations from the
    family limit.  Deviations below one packing count (the estimator
    granularity c_m * s_eff^m) are not resolvable, so the monotonicity
    verdict allows that slack; collapsing families (estimates shrinking
    toward zero) are flagged instead of trend-tested.
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
    if limit is None:
        exacts = [r["exact"] for r in rows if r["exact"] is not None]
        limit = exacts[-1] if exacts else None

    h_last = members[-1]["subset"].space.resolution
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
