"""Generators of sampled model spaces with ground-truth annotations.

Every generator returns (Space, ModelAnnotation).  Annotations carry exact
measures (perimeters, areas), marked extremal subsets, and regular/singular
point ids used as oracles by the tests.  Doubles freeze graph-computed
geodesic distances into the matrix; the O(h) graph error is absorbed into the
declared resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from .errors import KitError, Refusal
from .space import Space, euclidean_matrix, validate

CORNER_EXCLUSION_FACTOR = 2.0  # regular ids stay 2h clear of corners


@dataclass
class SubsetInfo:
    ids: np.ndarray
    extremal: bool
    exact_measure: float | None = None
    regular_ids: np.ndarray | None = None
    singular_ids: np.ndarray | None = None

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=int)
        if self.regular_ids is not None:
            self.regular_ids = np.asarray(self.regular_ids, dtype=int)
        if self.singular_ids is not None:
            self.singular_ids = np.asarray(self.singular_ids, dtype=int)
        own = set(self.ids.tolist())
        for part in (self.regular_ids, self.singular_ids):
            if part is not None and not set(part.tolist()) <= own:
                raise KitError("regular/singular ids must lie in the subset")
        if self.regular_ids is not None and self.singular_ids is not None:
            if set(self.regular_ids.tolist()) & set(self.singular_ids.tolist()):
                raise KitError("regular and singular ids must be disjoint")


@dataclass
class ModelAnnotation:
    subsets: dict[str, SubsetInfo] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {"subsets": {}, "extra": dict(self.extra)}
        for name, info in self.subsets.items():
            d = {"ids": info.ids.tolist(), "extremal": info.extremal}
            if info.exact_measure is not None:
                d["exact_measure"] = info.exact_measure
            if info.regular_ids is not None:
                d["regular_ids"] = info.regular_ids.tolist()
            if info.singular_ids is not None:
                d["singular_ids"] = info.singular_ids.tolist()
            out["subsets"][name] = d
        return out


def _register_annotation(space: Space, ann: ModelAnnotation):
    space.annotations = ann.to_dict()
    for name, info in ann.subsets.items():
        space.subset(info.ids, name=name, extremal=info.extremal)


# ---------------------------------------------------------------------------
# convex polygons

def _convexity_check(vertices: np.ndarray):
    n = len(vertices)
    if n < 3:
        raise Refusal("need at least 3 vertices")
    cross = []
    for i in range(n):
        a = vertices[(i + 1) % n] - vertices[i]
        b = vertices[(i + 2) % n] - vertices[(i + 1) % n]
        cross.append(a[0] * b[1] - a[1] * b[0])
    cross = np.asarray(cross)
    if np.any(cross == 0) or not (np.all(cross > 0) or np.all(cross < 0)):
        raise Refusal("vertices must be strictly convex")
    if np.all(cross < 0):
        raise Refusal("vertices must be in counterclockwise order")


def _polygon_boundary_per_edge(vertices: np.ndarray, h: float):
    """Arc-length boundary sample with exact per-edge pitch, corners included."""
    pts = []
    corner_positions = []
    for i in range(len(vertices)):
        a, b = vertices[i], vertices[(i + 1) % len(vertices)]
        edge_len = float(np.linalg.norm(b - a))
        m = max(1, round(edge_len / h))
        corner_positions.append(len(pts))
        for j in range(m):
            pts.append(a + (b - a) * (j / m))
    return np.asarray(pts), np.asarray(corner_positions, dtype=int)


def _polygon_boundary_loop_uniform(vertices: np.ndarray, h: float):
    """Single exact pitch around the whole loop; corners need not be samples."""
    edges = np.linalg.norm(np.roll(vertices, -1, axis=0) - vertices, axis=1)
    perimeter = float(edges.sum())
    m_total = max(3, round(perimeter / h))
    pitch = perimeter / m_total
    cum = np.concatenate([[0.0], np.cumsum(edges)])
    arcs = np.arange(m_total) * pitch
    edge_idx = np.clip(np.searchsorted(cum, arcs, side="right") - 1,
                       0, len(vertices) - 1)
    local = (arcs - cum[edge_idx]) / edges[edge_idx]
    a = vertices[edge_idx]
    b = vertices[(edge_idx + 1) % len(vertices)]
    pts = a + (b - a) * local[:, None]
    corner_positions = np.array(
        [int(np.argmin(np.linalg.norm(pts - v, axis=1))) for v in vertices])
    return pts, corner_positions, pitch


def _lattice_in_polygon(vertices: np.ndarray, pitch: float, margin: float,
                        lattice: str = "triangular") -> np.ndarray:
    """Row-major lattice sample of the polygon interior, ``margin`` inside.

    "triangular" staggers alternate rows (isotropic sampling, the default);
    "square" uses an axis grid (gives packing counts an exact product
    structure, useful for dimension oracles).
    """
    lo = vertices.min(axis=0)
    hi = vertices.max(axis=0)
    row_h = pitch * math.sqrt(3.0) / 2.0 if lattice == "triangular" else pitch
    rows = int(math.floor((hi[1] - lo[1]) / row_h)) + 1
    pts = []
    edge_a = vertices
    edge_b = np.roll(vertices, -1, axis=0)
    edge_v = edge_b - edge_a
    for r in range(rows + 1):
        y = lo[1] + r * row_h
        x0 = lo[0]
        if lattice == "triangular" and r % 2:
            x0 = x0 + pitch / 2.0
        cols = int(math.floor((hi[0] - x0) / pitch)) + 1
        if cols <= 0:
            continue
        xs = x0 + np.arange(cols) * pitch
        cand = np.column_stack([xs, np.full(cols, y)])
        rel = cand[:, None, :] - edge_a[None, :, :]
        cross = edge_v[None, :, 0] * rel[:, :, 1] - edge_v[None, :, 1] * rel[:, :, 0]
        lengths = np.linalg.norm(edge_v, axis=1)
        signed = cross / lengths[None, :]
        keep = (signed >= margin).all(axis=1)
        pts.extend(cand[keep])
    return np.asarray(pts) if pts else np.empty((0, 2))


def gen_convex_polygon(vertices, h: float, name: str | None = None,
                       interior: bool = True, boundary_mode: str = "per-edge",
                       lattice: str = "triangular"):
    """Sampled filled convex polygon with its boundary marked extremal.

    Lattice interior and arc-length boundary sample, both at pitch h.  The
    boundary subset is annotated with the exact perimeter; corner samples are
    singular, boundary points more than 2h from every corner are regular.

    ``boundary_mode="loop-uniform"`` uses one exact pitch around the whole
    loop (corners approximated by nearest samples); the per-edge default puts
    corners exactly on the sample.
    """
    if h <= 0:
        raise Refusal("pitch h must be positive")
    vertices = np.asarray(vertices, dtype=float)
    _convexity_check(vertices)
    edges = np.linalg.norm(np.roll(vertices, -1, axis=0) - vertices, axis=1)
    perimeter = float(edges.sum())

    if boundary_mode == "per-edge":
        bpts, corner_pos = _polygon_boundary_per_edge(vertices, h)
        pitch = perimeter / len(bpts)
    elif boundary_mode == "loop-uniform":
        bpts, corner_pos, pitch = _polygon_boundary_loop_uniform(vertices, h)
    else:
        raise KitError(f"unknown boundary_mode {boundary_mode!r}")

    coords = bpts
    if interior:
        inner = _lattice_in_polygon(vertices, h, margin=0.35 * h, lattice=lattice)
        if inner.size:
            coords = np.vstack([bpts, inner])

    dist = euclidean_matrix(coords)
    space = Space(name or f"polygon{len(vertices)}", kappa=0.0, dist=dist,
                  coords=coords, resolution=pitch)

    boundary_ids = np.arange(len(bpts))
    corner_ids = boundary_ids[corner_pos]
    dist_to_corners = np.min(
        np.linalg.norm(bpts[:, None, :] - vertices[None, :, :], axis=-1), axis=1)
    regular = boundary_ids[dist_to_corners > CORNER_EXCLUSION_FACTOR * h]
    regular = np.setdiff1d(regular, corner_ids)

    subsets = {
        "boundary": SubsetInfo(
            ids=boundary_ids, extremal=True, exact_measure=perimeter,
            regular_ids=regular, singular_ids=corner_ids),
    }
    if len(coords) > len(bpts):
        subsets["interior"] = SubsetInfo(
            ids=np.arange(len(bpts), len(coords)), extremal=False)
    ann = ModelAnnotation(
        subsets=subsets,
        extra={"perimeter": perimeter, "n_vertices": len(vertices),
               "boundary_pitch": pitch},
    )
    _register_annotation(space, ann)
    return space, ann


def regular_polygon_vertices(n: int, circumradius: float = 1.0) -> np.ndarray:
    ang = 2.0 * math.pi * np.arange(n) / n
    return circumradius * np.column_stack([np.cos(ang), np.sin(ang)])


def gen_regular_polygon(n: int, h: float, circumradius: float = 1.0, **kwargs):
    """Regular n-gon inscribed in a circle; perimeter 2 n R sin(pi/n)."""
    return gen_convex_polygon(regular_polygon_vertices(n, circumradius), h,
                              name=kwargs.pop("name", f"regular{n}gon"), **kwargs)


def gen_segment(length: float, h: float, name: str | None = None):
    """Straight segment sample; the whole sample marked as a 1-d subset."""
    if length <= 0 or h <= 0:
        raise Refusal("length and pitch must be positive")
    m = max(1, round(length / h))
    pitch = length / m
    xs = np.arange(m + 1) * pitch
    coords = np.column_stack([xs, np.zeros_like(xs)])
    dist = euclidean_matrix(coords)
    space = Space(name or "segment", kappa=0.0, dist=dist, coords=coords,
                  resolution=pitch)
    ids = np.arange(m + 1)
    ann = ModelAnnotation(
        subsets={"all": SubsetInfo(ids=ids, extremal=True, exact_measure=length,
                                   singular_ids=np.array([0, m]),
                                   regular_ids=ids[1:-1])},
        extra={"length": length})
    _register_annotation(space, ann)
    return space, ann


# ---------------------------------------------------------------------------
# cones

def cone_distance(s, phi, t, psi, total_angle):
    """Intrinsic distance on the cone of total angle theta (unrolled metric)."""
    dphi = np.abs(phi - psi)
    dphi = np.minimum(dphi, total_angle - dphi)
    dphi = np.minimum(dphi, math.pi)
    sq = s * s + t * t - 2.0 * s * t * np.cos(dphi)
    return np.sqrt(np.maximum(sq, 0.0))


def gen_cone(total_angle: float, radius: float, h: float, name: str | None = None):
    """Metric cone of cone angle theta sampled up to the given radius.

    The vertex is marked as a 0-dimensional extremal subset iff theta <= pi
    (its space of directions is a circle of length theta, so has diameter
    theta/2, and one-point extremal subsets need diameter <= pi/2).
    """
    if not 0.0 < total_angle <= 2.0 * math.pi:
        raise Refusal(f"total_angle must be in (0, 2*pi], got {total_angle}")
    if radius <= 0 or h <= 0:
        raise Refusal("radius and pitch must be positive")
    rings = max(1, round(radius / h))
    ss, phis = [0.0], [0.0]
    for i in range(1, rings + 1):
        r = i * radius / rings
        m = max(1, round(total_angle * r / h))
        ss.extend([r] * m)
        phis.extend((total_angle * np.arange(m) / m).tolist())
    ss = np.asarray(ss)
    phis = np.asarray(phis)
    dist = cone_distance(ss[:, None], phis[:, None], ss[None, :], phis[None, :],
                         total_angle)
    np.fill_diagonal(dist, 0.0)
    coords = np.column_stack([ss * np.cos(phis), ss * np.sin(phis)])
    space = Space(name or f"cone{total_angle:.3f}", kappa=0.0, dist=dist,
                  coords=coords, resolution=h)
    vertex_extremal = total_angle <= math.pi
    ann = ModelAnnotation(
        subsets={"vertex": SubsetInfo(ids=np.array([0]), extremal=vertex_extremal)},
        extra={"cone_angle": total_angle,
               "direction_diameter": min(total_angle / 2.0, math.pi),
               "vertex_extremal": vertex_extremal})
    _register_annotation(space, ann)
    return space, ann


# ---------------------------------------------------------------------------
# the doubled square ("pillow")

# neighbor offsets within radius sqrt(5): angular gaps <= ~13 degrees keep the
# graph-metric stretch below 1 %
_PILLOW_OFFSETS = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (2, -1), (1, -2)]


def gen_pillow(side: float, h: float, name: str | None = None):
    """Double of a square glued along its boundary, distances via geodesic graph.

    The four corners have cone angle pi (two right angles glued) and are
    marked as one-point extremal subsets; total area is 2 * side^2.
    """
    if side <= 0 or h <= 0:
        raise Refusal("side and pitch must be positive")
    m = max(2, round(side / h))
    pitch = side / m
    axis = np.arange(m + 1) * pitch

    # sheet A: full (m+1)^2 grid; sheet B: interior grid, boundary shared
    coords_a = np.array([(x, y) for y in axis for x in axis])
    interior_mask = np.array([(0 < i < m and 0 < j < m)
                              for j in range(m + 1) for i in range(m + 1)])
    n_a = coords_a.shape[0]
    idx_a = np.arange(n_a).reshape(m + 1, m + 1)  # [j, i]
    interior_ids_b = {}
    next_id = n_a
    for j in range(1, m):
        for i in range(1, m):
            interior_ids_b[(i, j)] = next_id
            next_id += 1
    n = next_id

    def node_b(i, j):
        if 0 < i < m and 0 < j < m:
            return interior_ids_b[(i, j)]
        return int(idx_a[j, i])  # boundary shared with sheet A

    rows, cols, vals = [], [], []

    def add_edges(node_of):
        for di, dj in _PILLOW_OFFSETS:
            w = math.hypot(di, dj) * pitch
            for j in range(m + 1):
                jj = j + dj
                if not 0 <= jj <= m:
                    continue
                for i in range(m + 1):
                    ii = i + di
                    if not 0 <= ii <= m:
                        continue
                    a, b = node_of(i, j), node_of(ii, jj)
                    if a != b:
                        rows.append(a)
                        cols.append(b)
                        vals.append(w)

    add_edges(lambda i, j: int(idx_a[j, i]))
    add_edges(node_b)

    graph = csr_matrix((vals, (rows, cols)), shape=(n, n))
    dist = shortest_path(graph, method="D", directed=False)
    np.fill_diagonal(dist, 0.0)
    dist = np.minimum(dist, dist.T)

    space = Space(name or "pillow", kappa=0.0, dist=dist, coords=None,
                  resolution=pitch)
    corners = [int(idx_a[0, 0]), int(idx_a[0, m]), int(idx_a[m, 0]), int(idx_a[m, m])]
    subsets = {f"corner_{k}": SubsetInfo(ids=np.array([c]), extremal=True)
               for k, c in enumerate(corners)}
    ann = ModelAnnotation(
        subsets=subsets,
        extra={"area": 2.0 * side * side, "corner_cone_angle": math.pi,
               "corner_ids": corners, "side": side,
               "sheet_a_size": int(n_a), "antipodal_pair": [corners[0], corners[3]]})
    _register_annotation(space, ann)
    return space, ann


# ---------------------------------------------------------------------------
# spherical suspensions

def gen_spherical_suspension(base: Space, h: float, name: str | None = None):
    """Spherical suspension of a curvature >= 1 space, poles included.

    cos d((s,x),(t,y)) = cos s cos t + sin s sin t cos d_base(x, y) with
    s, t in [0, pi]; the result carries kappa = 1.
    """
    if base.kappa < 1.0:
        raise Refusal("suspension base must have kappa >= 1")
    if base.diameter > math.pi + 1e-9:
        raise Refusal(f"suspension base diameter {base.diameter} exceeds pi")
    rep = validate(base)
    if not rep.passed:
        raise Refusal(f"suspension base fails validation: "
                      f"{[c.name for c in rep.failures()]}")
    if h <= 0:
        raise Refusal("pitch must be positive")
    levels = max(2, round(math.pi / h))
    s_vals = np.arange(levels + 1) * (math.pi / levels)
    nb = base.n_points

    # node table: north pole, levels 1..levels-1 (each x nb), south pole
    ss = [0.0]
    base_idx = [0]
    for li in range(1, levels):
        ss.extend([s_vals[li]] * nb)
        base_idx.extend(range(nb))
    ss.append(math.pi)
    base_idx.append(0)
    ss = np.asarray(ss)
    base_idx = np.asarray(base_idx, dtype=int)

    dbase = np.minimum(base.dist[np.ix_(base_idx, base_idx)], math.pi)
    cosd = (np.cos(ss[:, None]) * np.cos(ss[None, :])
            + np.sin(ss[:, None]) * np.sin(ss[None, :]) * np.cos(dbase))
    dist = np.arccos(np.clip(cosd, -1.0, 1.0))
    np.fill_diagonal(dist, 0.0)

    res = max(h, base.resolution or 0.0)
    space = Space(name or f"susp({base.name})", kappa=1.0, dist=dist,
                  coords=None, resolution=res)
    ann = ModelAnnotation(
        subsets={},
        extra={"poles": [0, int(len(ss) - 1)], "levels": levels,
               "base_size": nb})
    _register_annotation(space, ann)
    return space, ann


def gen_circle(length: float, h: float, name: str | None = None) -> Space:
    """Circle of the given length with its arc metric, tagged kappa = 1.

    A circle of length <= 2*pi is a curvature >= 1 space; used as a
    suspension base.
    """
    if length > 2 * math.pi + 1e-9:
        raise Refusal("circle longer than 2*pi is not a curvature >= 1 space")
    m = max(3, round(length / h))
    arc = np.arange(m) * (length / m)
    gap = np.abs(arc[:, None] - arc[None, :])
    dist = np.minimum(gap, length - gap)
    np.fill_diagonal(dist, 0.0)
    return Space(name or "circle", kappa=1.0, dist=dist, coords=None,
                 resolution=length / m)


def gen_two_point_base(separation: float = math.pi) -> Space:
    """Two points at distance pi: the 0-sphere as a suspension base."""
    dist = np.array([[0.0, separation], [separation, 0.0]])
    return Space("two-points", kappa=1.0, dist=dist, coords=None,
                 resolution=separation / 2)
