"""Finite metric spaces, marked subsets, and measure/dimension estimators.

A :class:`Space` is a point set 0..N-1 with a frozen symmetric distance
matrix, a lower curvature bound tag ``kappa``, optional generator coordinates
and an optional sampling ``resolution`` h (the intended Hausdorff distance
between the sample and the idealized space it approximates).  Algorithms
read distances only, never coordinates.  A space given coordinates and no
matrix (the polygon and segment generators, and a space file of metric type
``euclidean``) has Euclidean distances: it builds its matrix with
:func:`euclidean_matrix` on the first read of ``space.dist``, and until then
:meth:`Space.block` computes each block asked for from the coordinates, with
the same bits as the matrix's.

The rules derived from h have one owner, the Space: the floor below which a
scale is refused (:meth:`Space.require_scale`) and the link radius 3h of
every intrinsic metric (:meth:`Space.link_radius`).

Every matrix is read-only once it exists, and safe to share across
threads.  Two threads that read ``space.dist`` of a coordinate space at once
may both build its matrix; they get the same bits, and the space keeps one.
A :class:`Subset` refers to its Space and never the reverse: the
Space keeps each named subset's ids and extremal flag, and ``space.subsets``
gives fresh Subset views of them.  So no reference cycle holds a distance
matrix, and a space is freed as soon as its last user lets it go.

Link graphs and shortest paths have one owner here: the link rule
(:func:`linked`), its csr graph on given ids (:func:`link_graph`, the only
code that applies the rule to a matrix, built from one row block of
:meth:`Space.block` at a time) and the walk along the predecessors that scipy's
``dijkstra`` returns (:func:`graph_path`).  The intrinsic metric, intrinsic
shortest paths, the extremality check and the glue's rebase paths all read
that graph, and none copies an S x S block.  So do packings: every packing
number, measure and dimension estimate and r/2-net is the id-order greedy
packing of :func:`packing_ids`, which reads the rows of the points it keeps
only.

The distance function of a subset, dist_E(x) = min over e in E of d(x, e),
has one owner too: :func:`distance_to`, which reads one row block at a time.
The extremality check, the gradient-flow tests and the glue all call it.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import KitError, Refusal
from .kplane import comparison_angles_array

DEFAULT_LINK_FACTOR = 3.0  # link_radius = 3 * resolution keeps geodesic graphs connected
ROW_BLOCK_ELEMENTS = 2**16  # most elements in one row block of any walk over a matrix


def euclidean_matrix(coords: np.ndarray, others: np.ndarray | None = None) -> np.ndarray:
    """Euclidean distances from each row of ``coords`` to each row of
    ``others`` (default: ``coords`` itself, with an exactly zero diagonal).

    Summed one axis at a time over one block of rows at a time, so the only
    temporary is one block: ROW_BLOCK_ELEMENTS entries or one row,
    whichever is larger.  scipy's ``cdist`` gives the same bits, but
    importing ``scipy.spatial`` costs 7.5 MiB of RSS and 0.09 s in every
    process.
    """
    others = coords if others is None else others
    n, m = len(coords), len(others)
    d = np.zeros((n, m))
    step = max(1, ROW_BLOCK_ELEMENTS // max(m, 1))
    diff = np.empty((min(step, n), m))
    for a in range(0, n, step):
        block = d[a:a + step]
        part = diff[:len(block)]
        for x, y in zip(coords[a:a + step].T, others.T):
            np.subtract(x[:, None], y, out=part)
            part *= part
            block += part
    return np.sqrt(d, out=d)


class Space:
    def __init__(self, name, kappa, dist=None, coords=None, resolution=None):
        if dist is not None:
            dist = np.ascontiguousarray(dist, dtype=float)
            if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
                raise KitError("distance matrix must be square")
            dist.setflags(write=False)
        elif coords is None:
            raise KitError("a space needs a distance matrix or coordinates")
        if coords is not None:
            try:
                coords = np.asarray(coords, dtype=float)
                rows = coords.ndim == 2 and (dist is None or len(coords) == len(dist))
            except (TypeError, ValueError):  # ragged, or a coordinate that is no number
                rows = False
            if not rows:
                raise KitError("coordinates must be one row of numbers per point")
        self.name = str(name)
        self.kappa = float(kappa)
        self._dist = dist
        self.coords = coords
        self.resolution = None if resolution is None else float(resolution)
        self._subsets: dict[str, tuple[np.ndarray, bool]] = {}  # name -> (ids, extremal)
        self.annotations: dict = {}

    @property
    def dist(self) -> np.ndarray:
        """The N x N distance matrix, read-only.  A space given coordinates
        and no matrix builds it with :func:`euclidean_matrix` on the first
        read, and keeps it."""
        if self._dist is None:
            dist = euclidean_matrix(self.coords)
            dist.setflags(write=False)
            self._dist = dist
        return self._dist

    def block(self, rows, cols) -> np.ndarray:
        """The distances from each of the ``rows`` to each of the ``cols``:
        gathered from the matrix once it is built, else computed from the
        coordinates with the matrix's own operations, so the bits are the
        same either way."""
        if self._dist is None:
            return euclidean_matrix(self.coords[rows], self.coords[cols])
        return self._dist[np.ix_(rows, cols)]

    @property
    def n_points(self) -> int:
        return len(self.coords if self._dist is None else self._dist)

    @property
    def diameter(self) -> float:
        return float(self.dist.max()) if self.n_points else 0.0

    def require_resolution(self) -> float:
        if self.resolution is None:
            raise Refusal(f"space {self.name!r} has no declared resolution")
        return self.resolution

    def require_scale(self, value: float, factor: float, name: str) -> float:
        """The resolution h; refuses a ``value`` below ``factor`` * h, where
        the sample cannot resolve it."""
        h = self.require_resolution()
        if not value >= factor * h:  # nor NaN
            raise Refusal(f"{name} = {value} below {factor:g}h = {factor * h}")
        return h

    def link_radius(self) -> float:
        return DEFAULT_LINK_FACTOR * self.require_resolution()

    def check_ids(self, ids) -> np.ndarray:
        """The ids as a 1-D integer array; refuses non-integer or out-of-range
        ids, and nested lists.

        Floats (even 2.0), strings and booleans are refused, not cast.
        """
        try:
            arr = np.atleast_1d(np.asarray(ids))
            flat = arr.ndim == 1
        except ValueError:  # a ragged nesting
            flat = False
        if not flat:
            raise Refusal("point ids must be a flat list")
        if arr.size and (arr.dtype.kind not in "iu" or isinstance(ids, (list, tuple))
                         and any(isinstance(i, (bool, np.bool_)) for i in ids)):
            raise Refusal("point ids must be integers")
        if arr.size and (arr.min() < 0 or arr.max() >= self.n_points):
            raise Refusal(f"point id out of range 0..{self.n_points - 1}")
        return arr.astype(int, copy=False)

    @property
    def subsets(self) -> Mapping[str, "Subset"]:
        """The named subsets, read-only; each lookup gives a fresh view."""
        return _SubsetViews(self)

    def subset(self, indices, name="subset", extremal=False) -> "Subset":
        """Register a named subset, replacing one of that name; returns a view."""
        sub = Subset(self, indices, name=name, extremal_claim=extremal)
        self._subsets[name] = (sub.indices, sub.extremal_claim)
        return sub

    def all_points_subset(self) -> "Subset":
        return self.subset(np.arange(self.n_points), name="all")

    def __repr__(self):
        return (f"Space({self.name!r}, kappa={self.kappa}, n={self.n_points}, "
                f"resolution={self.resolution})")


class Subset:
    """A marked subset of a Space.

    The intrinsic metric d_E is the shortest-path metric of the graph on the
    subset with edges between points at ambient distance <= link_radius,
    weighted by ambient distance (:func:`intrinsic_metric`).  Always d <= d_E;
    pairs in different graph components are at +inf.  The link radius is the
    space's (:meth:`Space.link_radius`), so a subset of a space with no
    declared resolution has no intrinsic metric.
    """

    def __init__(self, space, indices, name="subset", extremal_claim=False):
        self.space = space
        self.indices = np.unique(space.check_ids(indices))
        if self.indices.size == 0:
            raise KitError("empty subset")
        self.name = name
        self.extremal_claim = bool(extremal_claim)

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

    def __repr__(self):
        return f"Subset({self.name!r}, size={self.size}, of {self.space.name!r})"


class _SubsetViews(Mapping):
    """A space's named subsets as Subset views, built on lookup."""

    def __init__(self, space: Space):
        self._space = space

    def __getitem__(self, name) -> Subset:
        indices, extremal = self._space._subsets[name]
        return Subset(self._space, indices, name=name, extremal_claim=extremal)

    def __iter__(self):
        return iter(self._space._subsets)

    def __len__(self) -> int:
        return len(self._space._subsets)


@dataclass
class Curve:
    """An ordered polyline of sample points with step metadata."""

    points: np.ndarray
    step: float
    kind: str = "generic"  # gradient | intrinsic-geodesic | generic
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=int)


# ---------------------------------------------------------------------------
# validation

def _check(name: str, passed: bool, detail: str = "", worst=()) -> dict:
    return {"name": name, "passed": passed, "detail": detail, "worst": list(worst)}


TRIANGLE_SLACK = 1e-9
EXHAUSTIVE_TRIANGLE_LIMIT = 300
RANDOM_TRIPLES = 100_000
TRIPLE_CHUNK = 2**13  # sampled triples evaluated at once


def validate(space: Space, seed: int = 0) -> dict:
    """Check the metric-space invariants; never mutates.

    Triangle inequality is checked exhaustively for N <= 300, else on 10^5
    seeded random triples.  Returns ``{"space", "passed", "checks"}``, each
    check ``{"name", "passed", "detail", "worst"}`` with its worst tuple's ids.
    """
    d = space.dist
    n = space.n_points
    checks = []

    diag = np.abs(np.diag(d))
    i = int(np.argmax(diag))
    checks.append(_check("zero_diagonal", bool(diag.max() == 0.0),
                         f"max |d(i,i)| = {diag.max()}", (i,)))

    # max |d - d^T| and min off-diagonal d, one block of rows at a time so
    # that no N x N temporary is made.  As with numpy's max and min, the first
    # extreme in row-major order wins and so does the first NaN: a NaN
    # distance fails positivity, while a NaN asymmetry is not > 0.
    asym, asym_at, m, m_at = 0.0, None, math.inf, (0, 0)
    step = max(1, ROW_BLOCK_ELEMENTS // max(n, 1))
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
        checks.append(_check("symmetry", False, f"d({i},{j}) != d({j},{i})", (i, j)))
    else:
        checks.append(_check("symmetry", True))
    if n > 1:
        checks.append(_check("positivity", bool(m > 0.0),
                             f"min off-diagonal distance = {m}", m_at))
    else:
        checks.append(_check("positivity", True))

    checks.append(_triangle_check(d, n, seed))

    if space.kappa > 0:
        bound = math.pi / math.sqrt(space.kappa) + 1e-9
        worst = float(d.max())
        ij = np.unravel_index(int(np.argmax(d)), d.shape)
        checks.append(_check("diameter_bound", bool(worst <= bound),
                             f"max distance {worst} vs pi/sqrt(kappa) bound",
                             (int(ij[0]), int(ij[1]))))

    return {"space": space.name, "passed": all(c["passed"] for c in checks),
            "checks": checks}


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
        return _check("triangle_inequality", bool(worst_v <= TRIANGLE_SLACK),
                      f"worst d(i,j) - d(i,k) - d(k,j) = {worst_v}", worst)
    # int32 draws give the int64 draws' values and generator state (checked
    # in tests/test_memory.py) at half the memory; the triples are then
    # evaluated a chunk at a time, the first maximum and the first NaN
    # winning as in validate's row-block loop
    rng = np.random.default_rng(seed)
    ii, jj, kk = (rng.integers(0, n, RANDOM_TRIPLES, dtype=np.int32) for _ in range(3))
    worst, a = -math.inf, 0
    for c in range(0, RANDOM_TRIPLES, TRIPLE_CHUNK):
        i, j, k = ii[c:c + TRIPLE_CHUNK], jj[c:c + TRIPLE_CHUNK], kk[c:c + TRIPLE_CHUNK]
        v = d[i, j] - d[i, k] - d[k, j]
        b = int(np.argmax(v))
        if worst == worst and not v[b] <= worst:
            worst, a = float(v[b]), c + b
    return _check("triangle_inequality", bool(worst <= TRIANGLE_SLACK),
                  f"worst sampled violation = {worst} "
                  f"({RANDOM_TRIPLES} random triples)",
                  (int(ii[a]), int(jj[a]), int(kk[a])))


# ---------------------------------------------------------------------------
# balls, link graphs and the intrinsic metric

def distance_to(space: Space, rows, ids) -> np.ndarray:
    """dist_E for E = ``ids``: the least distance from each of the ``rows``
    to the ids, read one block of rows at a time (ROW_BLOCK_ELEMENTS
    entries or one row), so no len(rows) x len(ids) block is made."""
    out = np.empty(len(rows))
    step = max(1, ROW_BLOCK_ELEMENTS // max(len(ids), 1))
    for a in range(0, len(rows), step):
        out[a:a + step] = space.dist[np.ix_(rows[a:a + step], ids)].min(axis=1)
    return out


def ball(space: Space, p: int, r: float) -> np.ndarray:
    """Open ball {q : d(p, q) < r}; contains p itself iff r > 0."""
    if r < 0:
        raise KitError("ball radius must be nonnegative")
    (p,) = space.check_ids([p])
    return np.flatnonzero(space.dist[p] < r)


def linked(d: np.ndarray, radius: float) -> np.ndarray:
    """The link rule: 0 < d <= radius, elementwise."""
    return (d > 0) & (d <= radius)


def link_graph(space: Space, ids: np.ndarray, radius: float) -> csr_matrix:
    """The graph of the link rule on the positions of ``ids``, weighted by
    distance: node i is ``ids[i]``.

    Built one :meth:`Space.block` of rows of the ids x ids block at a time
    (ROW_BLOCK_ELEMENTS entries or one row), straight into csr arrays: from
    (row, col) lists, scipy would sum duplicates, which adds 64 KiB of its
    code to the peak RSS of a CLI run.
    """
    n = len(ids)
    step = max(1, ROW_BLOCK_ELEMENTS // max(n, 1))
    indptr, cols, data = [np.zeros(1, dtype=int)], [], []
    for a in range(0, n, step):
        block = space.block(ids[a:a + step], ids)
        mask = linked(block, radius)
        indptr.append(indptr[-1][-1] + np.cumsum(mask.sum(axis=1)))
        cols.append(np.nonzero(mask)[1])
        data.append(block[mask])  # row-major, as the columns
    return csr_matrix((np.concatenate(data), np.concatenate(cols), np.concatenate(indptr)),
                      shape=(n, n))


def graph_path(pred: np.ndarray, source: int, target: int) -> np.ndarray | None:
    """The nodes from source to target along a predecessor row; None if the
    row holds no path between them."""
    chain = [target]
    while chain[-1] != source:
        prev = int(pred[chain[-1]])
        if prev < 0:
            return None
        chain.append(prev)
    return np.array(chain[::-1], dtype=int)


def intrinsic_metric(subset: Subset, ids) -> np.ndarray:
    """Link-graph distances d_E from each of the ids (rows) to every subset
    point (columns, in ``subset.indices`` order).

    Dijkstra runs on the subset's :func:`link_graph` from the given ids only;
    pass ``subset.indices`` for all pairs.  No S x S block is made beyond the
    rows asked for.  A non-member id raises KitError.
    """
    graph = link_graph(subset.space, subset.indices, subset.space.link_radius())
    return dijkstra(graph, directed=False, indices=subset.position(ids))


# ---------------------------------------------------------------------------
# packing numbers

def packing_number(space: Space, indices, eps: float) -> int:
    """Size of a maximal set with pairwise distances > eps.

    The id-order greedy packing of :func:`packing_ids`: deterministic, and a
    lower bound for the true maximum.
    """
    if not eps > 0:
        raise KitError("eps must be positive")
    return len(packing_ids(space, indices, eps))


def packing_ids(space: Space, ids, eps: float, metric: str = "extrinsic") -> np.ndarray:
    """Ids kept by the id-order greedy packing of the ascending ``ids``.

    Extrinsic rows are :meth:`Space.block` rows of kept points only;
    intrinsic rows are the link-graph distances of the subset of ``ids``
    (:func:`intrinsic_metric`), from every point in one call.
    """
    ids = np.unique(space.check_ids(ids))
    if metric == "extrinsic":
        def row(pos):
            return space.block(ids[pos:pos + 1], ids)[0]
    elif metric == "intrinsic":
        row = intrinsic_metric(Subset(space, ids), ids).__getitem__
    else:
        raise KitError(f"metric must be extrinsic|intrinsic, got {metric!r}")
    return ids[greedy_packing_ids(ids.size, row, eps)]


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


# ---------------------------------------------------------------------------
# Hausdorff measure / dimension estimators

CALIBRATION_EPS = 0.05
# pitch ratio q = eps/h used when building calibration samples; the fractional
# part keeps floor(eps/h) robust against rounding of the realized pitch
CALIBRATION_PITCH_RATIO = 25.95


def effective_spacing(eps: float, h: float) -> float:
    """Smallest achievable packing spacing > eps on a pitch-h sample.

    The greedy packing of a pitch-h sample realizes pairwise spacing
    (floor(eps/h) + 1) * h rather than eps itself; using eps directly would
    bias the measure estimate by that ratio, which varies with eps/h.
    """
    return (math.floor(eps / h + 1e-9) + 1.0) * h


@functools.cache
def calibration_constant(m: int) -> dict:
    """Calibration data for the m-dimensional measure estimator.

    Computed once per process on a unit m-cube sample at eps = 0.05 so that
    the estimator returns 1.0 there; cached and reported by the CLI.
    """
    if m < 0:
        raise Refusal(f"dimension m must be >= 0, got {m}")
    if m == 0:
        return {"m": 0, "c": 1.0, "eps": CALIBRATION_EPS, "pitch": None, "beta": 1}
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
    return {"m": m, "c": c, "eps": CALIBRATION_EPS, "pitch": pitch, "beta": beta}


def hausdorff_measure_estimate(subset: Subset, m: int, eps: float,
                               metric: str = "extrinsic") -> float:
    """Packing-based m-dimensional measure estimate of the subset.

    Returns c_m * s_eff^m * beta_eps where beta_eps is the greedy packing
    number of the subset in the chosen metric, s_eff the effective packing
    spacing for the sample's resolution, and c_m a constant calibrated once
    on the unit m-cube (see :func:`calibration_constant`).
    """
    h = subset.space.require_scale(eps, 2.0, "eps")
    cal = calibration_constant(m)
    beta = len(packing_ids(subset.space, subset.indices, eps, metric))
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
    if not all(0 < e < math.inf for e in eps_grid):  # nor NaN
        raise Refusal(f"eps_grid values must be positive and finite, got {eps_grid}")
    if len(eps_grid) < 3:
        raise Refusal("eps_grid needs at least 3 values")
    if eps_grid[-1] / eps_grid[0] < 10.0 * (1 - 1e-9):
        raise Refusal("eps_grid must span a decade")
    space.require_scale(eps_grid[0], 2.0, "smallest eps")
    betas = [len(packing_ids(space, indices, e)) for e in eps_grid]
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


def even_positions(n: int, cap: int) -> np.ndarray:
    """At most ``cap`` positions of 0..n-1, evenly spaced in order."""
    if n <= cap:
        return np.arange(n)
    return (np.arange(cap) * (n / cap)).astype(int)


def extremality_check(subset: Subset, witness_radius: float | None = None) -> dict:
    """Test the defining property of an extremal subset on the sample.

    For sampled exterior points q, finds local minima p of dist_q restricted
    to the subset (local in its :func:`link_graph`: no edge (p, j) has
    dist_q(p) > dist_q(j) + 1e-12) and checks criticality there: the
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

    Returns a dict; its ``worst_excess`` over pi/2 is -inf, and its
    ``worst_triple`` [q, p, w] is [-1, -1, -1], when no witness was checked.
    """
    space = subset.space
    if witness_radius is None:
        witness_radius = 4.0 * space.link_radius()
    h = space.require_scale(witness_radius, 2.0, "witness_radius")
    angle_tol = 0.05 + 2.0 * h / witness_radius

    inside = np.zeros(space.n_points, dtype=bool)
    inside[subset.indices] = True
    exterior = np.flatnonzero(~inside)
    exterior = exterior[distance_to(space, exterior, subset.indices) >= 4.0 * h]
    exterior = exterior[even_positions(exterior.size, EXTERIOR_CAP)]

    graph = link_graph(space, subset.indices, space.link_radius())
    rows = np.repeat(np.arange(subset.size), np.diff(graph.indptr))  # each edge's source

    worst_excess = -np.inf
    worst_triple = [-1, -1, -1]
    minima_count = 0
    half_pi = math.pi / 2.0

    for q in exterior:
        dq = space.dist[q, subset.indices]
        lower = np.bincount(rows, dq[rows] > dq[graph.indices] + 1e-12, subset.size)
        for pos in np.flatnonzero(lower == 0):  # no link neighbour lower
            p = int(subset.indices[pos])
            minima_count += 1
            dp = space.dist[p]
            ws = np.flatnonzero(linked(dp, witness_radius))
            ws = ws[ws != q]
            if ws.size == 0:
                continue
            ang = comparison_angles_array(space.kappa, space.dist[q, p],
                                          dp[ws], space.dist[q, ws])
            k = int(np.nanargmax(ang))
            excess = float(ang[k]) - half_pi
            if excess > worst_excess:
                worst_excess = excess
                worst_triple = [int(q), p, int(ws[k])]

    return {"subset": subset.name, "passed": bool(worst_excess <= angle_tol),
            "angle_tol": float(angle_tol), "worst_excess": float(worst_excess),
            "worst_triple": worst_triple, "checked_exterior_points": int(exterior.size),
            "local_minima_checked": minima_count}
