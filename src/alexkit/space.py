"""Finite metric spaces, marked subsets, and measure/dimension estimators.

A :class:`Space` is a point set 0..N-1 with a frozen symmetric distance
matrix, a lower curvature bound tag ``kappa``, optional generator coordinates
(provenance only, never consumed by algorithms) and an optional sampling
``resolution`` h (the intended Hausdorff distance between the sample and the
idealized space it approximates).

All matrices are immutable after construction and safe to share across
threads; the intrinsic metric of a Subset is memoized idempotently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from .errors import KitError, Refusal
from .kplane import comparison_angles_array

DEFAULT_LINK_FACTOR = 3.0  # link_radius = 3 * resolution keeps geodesic graphs connected


def euclidean_matrix(coords: np.ndarray, others: np.ndarray | None = None) -> np.ndarray:
    """Euclidean distances from each row of ``coords`` to each row of
    ``others`` (default: ``coords`` itself, with an exactly zero diagonal).

    Summed one axis at a time, so the only temporary is one matrix of the
    output's size.  scipy's ``cdist`` gives the same bits, but importing
    ``scipy.spatial`` costs 7.5 MiB of RSS and 0.09 s in every process.
    """
    others = coords if others is None else others
    d = np.zeros((len(coords), len(others)))
    for x, y in zip(coords.T, others.T):
        diff = np.subtract.outer(x, y)
        diff *= diff
        d += diff
    return np.sqrt(d, out=d)


class Space:
    def __init__(self, name, kappa, dist, coords=None, resolution=None):
        dist = np.ascontiguousarray(dist, dtype=float)
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise KitError("distance matrix must be square")
        self.name = str(name)
        self.kappa = float(kappa)
        self.dist = dist
        self.coords = None if coords is None else np.asarray(coords, dtype=float)
        self.resolution = None if resolution is None else float(resolution)
        self.subsets: dict[str, "Subset"] = {}
        self.annotations: dict = {}
        self.dist.setflags(write=False)

    @property
    def n_points(self) -> int:
        return self.dist.shape[0]

    @property
    def diameter(self) -> float:
        return float(self.dist.max()) if self.n_points else 0.0

    def require_resolution(self) -> float:
        if self.resolution is None:
            raise Refusal(f"space {self.name!r} has no declared resolution")
        return self.resolution

    def link_radius(self) -> float:
        return DEFAULT_LINK_FACTOR * self.require_resolution()

    def check_ids(self, ids) -> np.ndarray:
        """The ids as a 1-D integer array; refuses non-integer or out-of-range ids.

        Floats (even 2.0), strings and booleans are refused, not cast.
        """
        arr = np.atleast_1d(np.asarray(ids))
        if arr.size and (arr.dtype.kind not in "iu" or isinstance(ids, (list, tuple))
                         and any(isinstance(i, (bool, np.bool_)) for i in ids)):
            raise Refusal("point ids must be integers")
        if arr.size and (arr.min() < 0 or arr.max() >= self.n_points):
            raise Refusal(f"point id out of range 0..{self.n_points - 1}")
        return arr.astype(int, copy=False)

    def subset(self, indices, name="subset", extremal=False, link_radius=None) -> "Subset":
        sub = Subset(self, indices, name=name, extremal_claim=extremal,
                     link_radius=link_radius)
        self.subsets[name] = sub
        return sub

    def all_points_subset(self, name="all") -> "Subset":
        return self.subset(np.arange(self.n_points), name=name)

    def __repr__(self):
        return (f"Space({self.name!r}, kappa={self.kappa}, n={self.n_points}, "
                f"resolution={self.resolution})")


class Subset:
    """A marked subset of a Space with a lazily computed intrinsic metric.

    The intrinsic metric d_E is the shortest-path metric of the graph on the
    subset with edges between points at ambient distance <= link_radius,
    weighted by ambient distance.  Always d <= d_E; pairs in different graph
    components get +inf and are flagged.
    """

    def __init__(self, space, indices, name="subset", extremal_claim=False,
                 link_radius=None):
        self.space = space
        self.indices = np.unique(space.check_ids(indices))
        if self.indices.size == 0:
            raise KitError("empty subset")
        self.name = name
        self.extremal_claim = bool(extremal_claim)
        if link_radius is None:
            link_radius = space.link_radius() if space.resolution is not None else None
        self.link_radius = link_radius
        self._intrinsic = None

    @property
    def size(self) -> int:
        return self.indices.size

    def position(self, point_ids):
        """Position in ``indices`` of one id (an int) or of each id (an
        array); a non-member raises KitError."""
        ids = np.asarray(point_ids)
        pos = np.searchsorted(self.indices, ids)
        missing = self.indices[np.minimum(pos, self.size - 1)] != ids
        if missing.any():
            raise KitError(f"point {ids[missing].flat[0]} not in subset {self.name!r}")
        return int(pos) if pos.ndim == 0 else pos

    def ambient_matrix(self) -> np.ndarray:
        return self.space.dist[np.ix_(self.indices, self.indices)]

    def intrinsic_matrix(self) -> np.ndarray:
        return intrinsic_metric(self)

    def has_disconnected_pairs(self) -> bool:
        return bool(np.isinf(self.intrinsic_matrix()).any())

    def __repr__(self):
        return f"Subset({self.name!r}, size={self.size}, of {self.space.name!r})"


@dataclass
class Curve:
    """An ordered polyline of sample points with step metadata."""

    points: np.ndarray
    step: float
    kind: str = "generic"  # gradient | intrinsic-geodesic | generic
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=int)

    def gaps(self, space: Space) -> np.ndarray:
        p = self.points
        return space.dist[p[:-1], p[1:]]


# ---------------------------------------------------------------------------
# validation

@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    worst: tuple = ()


@dataclass
class ValidationReport:
    space: str
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "space": self.space,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail,
                 "worst": list(c.worst)}
                for c in self.checks
            ],
        }


TRIANGLE_SLACK = 1e-9
EXHAUSTIVE_TRIANGLE_LIMIT = 300
RANDOM_TRIPLES = 100_000
VALIDATE_BLOCK_ELEMENTS = 2**16  # most elements in one row block of validate


def validate(space: Space, seed: int = 0) -> ValidationReport:
    """Check the metric-space invariants; never mutates.

    Triangle inequality is checked exhaustively for N <= 300, else on 10^5
    seeded random triples.  Returns a report with the worst violating tuple
    per failed check.
    """
    d = space.dist
    n = space.n_points
    checks = []

    diag = np.abs(np.diag(d))
    i = int(np.argmax(diag))
    checks.append(CheckResult("zero_diagonal", bool(diag.max() == 0.0),
                              f"max |d(i,i)| = {diag.max()}", (i,)))

    # max |d - d^T| and min off-diagonal d, one block of rows at a time so
    # that no N x N temporary is made.  As with numpy's max and min, the first
    # extreme in row-major order wins and so does the first NaN: a NaN
    # distance fails positivity, while a NaN asymmetry is not > 0.
    asym, asym_at, m, m_at = 0.0, None, math.inf, (0, 0)
    step = max(1, VALIDATE_BLOCK_ELEMENTS // max(n, 1))
    for a in range(0, n, step):
        block = d[a:a + step] - d[:, a:a + step].T
        np.abs(block, out=block)
        j = int(np.argmax(block))
        if asym == asym and not block.flat[j] <= asym:
            asym, asym_at = float(block.flat[j]), divmod(a * n + j, n)
        block = d[a:a + step] + 0.0           # a copy, with -0.0 read as 0.0
        block.reshape(-1)[a::n + 1] += math.inf  # the diagonal entries (i, a + i)
        j = int(np.argmin(block))
        if m == m and not block.flat[j] >= m:
            m, m_at = float(block.flat[j]), divmod(a * n + j, n)
    if asym > 0:
        i, j = asym_at
        checks.append(CheckResult("symmetry", False, f"d({i},{j}) != d({j},{i})", (i, j)))
    else:
        checks.append(CheckResult("symmetry", True))
    if n > 1:
        checks.append(CheckResult("positivity", bool(m > 0.0),
                                  f"min off-diagonal distance = {m}", m_at))
    else:
        checks.append(CheckResult("positivity", True))

    checks.append(_triangle_check(d, n, seed))

    if space.kappa > 0:
        bound = math.pi / math.sqrt(space.kappa) + 1e-9
        worst = float(d.max())
        ij = np.unravel_index(int(np.argmax(d)), d.shape)
        checks.append(CheckResult("diameter_bound", bool(worst <= bound),
                                  f"max distance {worst} vs pi/sqrt(kappa) bound",
                                  (int(ij[0]), int(ij[1]))))

    return ValidationReport(space.name, checks)


def _triangle_check(d, n, seed):
    if n <= EXHAUSTIVE_TRIANGLE_LIMIT:
        # worst violation of d(i,j) <= d(i,k) + d(k,j) over all triples
        worst_v = -np.inf
        worst = (0, 0, 0)
        for k in range(n):
            v = d - (d[:, k][:, None] + d[k, :][None, :])
            m = float(v.max())
            if m > worst_v:
                ij = np.unravel_index(int(np.argmax(v)), v.shape)
                worst_v, worst = m, (int(ij[0]), int(ij[1]), k)
        return CheckResult("triangle_inequality", bool(worst_v <= TRIANGLE_SLACK),
                           f"worst d(i,j) - d(i,k) - d(k,j) = {worst_v}", worst)
    rng = np.random.default_rng(seed)
    ii = rng.integers(0, n, RANDOM_TRIPLES)
    jj = rng.integers(0, n, RANDOM_TRIPLES)
    kk = rng.integers(0, n, RANDOM_TRIPLES)
    v = d[ii, jj] - d[ii, kk] - d[kk, jj]
    a = int(np.argmax(v))
    return CheckResult("triangle_inequality", bool(v[a] <= TRIANGLE_SLACK),
                       f"worst sampled violation = {float(v[a])} "
                       f"({RANDOM_TRIPLES} random triples)",
                       (int(ii[a]), int(jj[a]), int(kk[a])))


# ---------------------------------------------------------------------------
# balls and the intrinsic metric

def ball(space: Space, p: int, r: float) -> np.ndarray:
    """Open ball {q : d(p, q) < r}; contains p itself iff r > 0."""
    if r < 0:
        raise KitError("ball radius must be nonnegative")
    (p,) = space.check_ids([p])
    return np.flatnonzero(space.dist[p] < r)


def intrinsic_metric(subset: Subset) -> np.ndarray:
    """Shortest-path distances of the link graph; memoized on the subset."""
    if subset._intrinsic is not None:
        return subset._intrinsic
    if subset.link_radius is None or subset.link_radius <= 0:
        raise Refusal("subset has no positive link_radius")
    amb = subset.ambient_matrix()
    adj = np.where((amb > 0) & (amb <= subset.link_radius), amb, 0.0)
    graph = csr_matrix(adj)
    d_e = shortest_path(graph, method="D", directed=False)
    subset._intrinsic = d_e
    subset._intrinsic.setflags(write=False)
    return d_e


# ---------------------------------------------------------------------------
# packing numbers

EXACT_PACKING_LIMIT = 25


def packing_number(space: Space, indices, eps: float, method: str = "greedy") -> int:
    """Size of a maximal set with pairwise distances > eps.

    The greedy method inserts candidates in ascending id order, keeping a
    point iff it is > eps from everything kept so far; the result is a
    maximal eps-discrete set, deterministic, and a lower bound for the true
    maximum.  ``method="exact"`` runs branch-and-bound (only for <= 25
    points) and returns the true maximum.
    """
    if eps <= 0:
        raise KitError("eps must be positive")
    ids = np.unique(space.check_ids(indices))
    sub = space.dist[np.ix_(ids, ids)]
    if method == "greedy":
        return len(greedy_packing_ids(ids.size, sub.__getitem__, eps))
    if method == "exact":
        if ids.size > EXACT_PACKING_LIMIT:
            raise Refusal(
                f"exact packing limited to {EXACT_PACKING_LIMIT} points, got {ids.size}")
        return _exact_packing(sub, eps)
    raise KitError(f"unknown packing method {method!r}")


def greedy_packing_ids(n: int, row, eps: float) -> np.ndarray:
    """Positions kept by the id-order greedy packing of positions 0..n-1.

    A position is kept iff it is > eps from every position kept before it;
    ``row(pos)`` gives the distances from pos to all n positions and is called
    only for kept positions, so a caller need not hold the whole matrix.
    """
    alive = np.ones(n, dtype=bool)
    kept = []
    for pos in range(n):
        if alive[pos]:
            kept.append(pos)
            alive &= row(pos) > eps
    return np.array(kept, dtype=int)


def _exact_packing(sub: np.ndarray, eps: float) -> int:
    n = sub.shape[0]
    conflict = [0] * n
    for i in range(n):
        mask = 0
        for j in range(n):
            if j != i and sub[i, j] <= eps:
                mask |= 1 << j
        conflict[i] = mask
    best = 0

    def rec(candidates: int, size: int):
        nonlocal best
        if size + candidates.bit_count() <= best:
            return
        if candidates == 0:
            best = max(best, size)
            return
        v = (candidates & -candidates).bit_length() - 1
        # branch: exclude v, then include v
        rec(candidates & ~(1 << v), size)
        rec(candidates & ~((1 << v) | conflict[v]), size + 1)

    rec((1 << n) - 1, 0)
    return best


# ---------------------------------------------------------------------------
# Hausdorff measure / dimension estimators

CALIBRATION_EPS = 0.05
# pitch ratio q = eps/h used when building calibration samples; the fractional
# part keeps floor(eps/h) robust against rounding of the realized pitch
CALIBRATION_PITCH_RATIO = 25.95

_calibration_cache: dict[int, dict] = {}


def effective_spacing(eps: float, resolution: float | None) -> float:
    """Smallest achievable packing spacing > eps on a pitch-h sample.

    The greedy packing of a pitch-h sample realizes pairwise spacing
    (floor(eps/h) + 1) * h rather than eps itself; using eps directly would
    bias the measure estimate by that ratio, which varies with eps/h.
    """
    if resolution is None:
        return eps
    h = resolution
    return (math.floor(eps / h + 1e-9) + 1.0) * h


def calibration_constant(m: int) -> dict:
    """Calibration data for the m-dimensional measure estimator.

    Computed once per process on a unit m-cube sample at eps = 0.05 so that
    the estimator returns 1.0 there; cached and reported by the CLI.
    """
    if m in _calibration_cache:
        return _calibration_cache[m]
    if m < 0:
        raise KitError("dimension m must be >= 0")
    if m == 0:
        data = {"m": 0, "c": 1.0, "eps": CALIBRATION_EPS, "pitch": None, "beta": 1}
        _calibration_cache[0] = data
        return data
    # unit m-cube sampled on an axis grid at pitch ~ eps / 25.95
    per_axis = int(round(CALIBRATION_PITCH_RATIO / CALIBRATION_EPS))
    axis = np.linspace(0.0, 1.0, per_axis + 1)
    if m == 1:
        pts = axis[:, None]
    elif m == 2:
        # coarser in 2-D: the constant only needs a few percent
        per_axis = 200
        axis = np.linspace(0.0, 1.0, per_axis + 1)
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
    else:
        raise Refusal(f"measure calibration implemented for m <= 2, got {m}")
    pitch = 1.0 / per_axis
    # rows on demand: the m = 2 grid's full matrix would take 13 GB
    beta = len(greedy_packing_ids(
        len(pts), lambda pos: euclidean_matrix(pts[pos:pos + 1], pts)[0],
        CALIBRATION_EPS))
    s_eff = effective_spacing(CALIBRATION_EPS, pitch)
    c = 1.0 / (s_eff**m * beta)
    data = {"m": m, "c": c, "eps": CALIBRATION_EPS, "pitch": pitch, "beta": beta}
    _calibration_cache[m] = data
    return data


def hausdorff_measure_estimate(subset: Subset, m: int, eps: float,
                               metric: str = "extrinsic") -> float:
    """Packing-based m-dimensional measure estimate of the subset.

    Returns c_m * s_eff^m * beta_eps where beta_eps is the greedy packing
    number of the subset in the chosen metric, s_eff the effective packing
    spacing for the sample's resolution, and c_m a constant calibrated once
    on the unit m-cube (see :func:`calibration_constant`).
    """
    h = subset.space.require_resolution()
    if eps < 2.0 * h:
        raise Refusal(f"eps = {eps} below 2 * resolution = {2 * h}; "
                      "estimator meaningless below sampling pitch")
    if metric == "extrinsic":
        matrix = subset.ambient_matrix()
    elif metric == "intrinsic":
        matrix = subset.intrinsic_matrix()
    else:
        raise KitError(f"metric must be extrinsic|intrinsic, got {metric!r}")
    beta = len(greedy_packing_ids(len(matrix), matrix.__getitem__, eps))
    cal = calibration_constant(m)
    s_eff = effective_spacing(eps, h)
    return cal["c"] * s_eff**m * beta


def packing_dimension_estimate(space: Space, indices, eps_grid) -> dict:
    """Scaling exponent of the packing numbers over the eps grid.

    Fits log beta = m * log(1/eps + a) + c by least squares, with the
    finite-diameter nuisance a >= 0 chosen to minimize the residual.  The
    plain log-log slope (a = 0) underestimates the exponent of any bounded
    sample over a decade reachable at desk scale: the packing count of a
    unit square along each axis is floor(L/s) + 1, and the wall term "+1"
    flattens the raw slope by ~0.3 whenever eps_max is a nonvanishing
    fraction of the diameter.  The corrected fit recovers exact dimensions
    on analytic packing counts and reduces to the raw slope as a -> 0 (the
    search picks a ~ 0 on closed loops, which have no wall term).  The raw
    slope is reported alongside.

    Requires >= 3 grid values spanning a decade, all >= 2 * resolution.
    """
    eps_grid = sorted(float(e) for e in eps_grid)
    if len(eps_grid) < 3:
        raise Refusal("eps_grid needs at least 3 values")
    if eps_grid[-1] / eps_grid[0] < 10.0 * (1 - 1e-9):
        raise Refusal("eps_grid must span a decade")
    h = space.require_resolution()
    if eps_grid[0] < 2.0 * h:
        raise Refusal(f"eps values must be >= 2 * resolution = {2 * h}")
    ids = np.unique(space.check_ids(indices))
    sub = space.dist[np.ix_(ids, ids)]
    betas = [len(greedy_packing_ids(ids.size, sub.__getitem__, e)) for e in eps_grid]
    inv = 1.0 / np.asarray(eps_grid)
    y = np.log(np.asarray(betas, dtype=float))

    def fit_for(a: float):
        x = np.log(inv + a)
        A = np.column_stack([x, np.ones_like(x)])
        coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
        return (float(res[0]) if res.size else 0.0), float(coef[0])

    raw_residual, raw_slope = fit_for(0.0)
    best = (raw_residual, raw_slope, 0.0)
    for a in np.linspace(0.0, 2.0 * inv.min(), 801)[1:]:
        r, m = fit_for(a)
        if r < best[0]:
            best = (r, m, float(a))
    residual, slope, a_best = best
    return {
        "dimension": slope,
        "residual": residual,
        "nuisance_a": a_best,
        "raw_slope": raw_slope,
        "table": [{"eps": e, "beta": b} for e, b in zip(eps_grid, betas)],
    }


# ---------------------------------------------------------------------------
# extremality checker

EXTERIOR_CAP = 200  # most exterior points extremality_check samples


@dataclass
class ExtremalityReport:
    subset: str
    passed: bool
    angle_tol: float
    worst_excess: float
    worst_triple: tuple  # (q, p, w)
    checked_exterior_points: int
    local_minima_checked: int

    def to_dict(self) -> dict:
        return {
            "subset": self.subset,
            "passed": self.passed,
            "angle_tol": self.angle_tol,
            "worst_excess": self.worst_excess,
            "worst_triple": list(self.worst_triple),
            "checked_exterior_points": self.checked_exterior_points,
            "local_minima_checked": self.local_minima_checked,
        }


def extremality_check(subset: Subset,
                      witness_radius: float | None = None) -> ExtremalityReport:
    """Test the defining property of an extremal subset on the sample.

    For sampled exterior points q, finds local minima p of dist_q restricted
    to the subset (local in the link graph) and checks criticality there: the
    comparison angle at p between q and every witness w with d(p, w) <=
    witness_radius (default 4 link radii) must be <= pi/2 + angle_tol, with
    angle_tol = 0.05 + 2h / witness_radius since the first-order witness
    error is O(h / witness_radius).  An angle beyond pi/2 means a direction
    in which dist_q still increases, i.e. p is not critical.

    At most EXTERIOR_CAP exterior points are sampled, evenly in id order.
    Those closer to the subset than 4h are skipped: the discrete foot point
    is laterally off by up to h/2, so their witness angles carry an
    O(h / d(q, E)) error that says nothing about criticality at sample
    resolution.
    """
    space = subset.space
    h = space.require_resolution()
    if witness_radius is None:
        witness_radius = 4.0 * subset.link_radius
    if witness_radius < 2.0 * h:
        raise Refusal(f"witness_radius {witness_radius} below 2 * resolution")
    angle_tol = 0.05 + 2.0 * h / witness_radius

    inside = np.zeros(space.n_points, dtype=bool)
    inside[subset.indices] = True
    exterior = np.flatnonzero(~inside)
    far_enough = space.dist[np.ix_(exterior, subset.indices)].min(axis=1) >= 4.0 * h
    exterior = exterior[far_enough]
    if exterior.size > EXTERIOR_CAP:
        stride = exterior.size / EXTERIOR_CAP
        exterior = exterior[(np.arange(EXTERIOR_CAP) * stride).astype(int)]

    amb = subset.ambient_matrix()
    link = (amb > 0) & (amb <= subset.link_radius)

    worst_excess = -np.inf
    worst_triple = (-1, -1, -1)
    minima_count = 0
    half_pi = math.pi / 2.0

    for q in exterior:
        dq = space.dist[q, subset.indices]
        neigh_min = np.where(link, dq[None, :], np.inf).min(axis=1)
        is_min = dq <= neigh_min + 1e-12
        for pos in np.flatnonzero(is_min):
            p = int(subset.indices[pos])
            minima_count += 1
            dp = space.dist[p]
            ws = np.flatnonzero((dp > 0) & (dp <= witness_radius))
            ws = ws[ws != q]
            if ws.size == 0:
                continue
            ang = comparison_angles_array(space.kappa, space.dist[q, p],
                                          dp[ws], space.dist[q, ws])
            k = int(np.nanargmax(ang))
            excess = float(ang[k]) - half_pi
            if excess > worst_excess:
                worst_excess = excess
                worst_triple = (int(q), p, int(ws[k]))

    return ExtremalityReport(
        subset=subset.name,
        passed=bool(worst_excess <= angle_tol),
        angle_tol=float(angle_tol),
        worst_excess=float(worst_excess),
        worst_triple=worst_triple,
        checked_exterior_points=int(exterior.size),
        local_minima_checked=minima_count,
    )
