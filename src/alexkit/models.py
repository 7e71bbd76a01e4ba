"""Generators of sampled model spaces with ground-truth annotations.

Every generator returns a Space.  A model's ground truth lives only in
``space.annotations``, the dict its space file stores: ``{"subsets": {name:
{"ids", "extremal", "exact_measure"?, "regular_ids"?, "singular_ids"?}},
"extra": {...}}``, ids as lists.  It carries exact measures (perimeters,
areas), marked extremal subsets, and regular/singular point ids used as
oracles by the tests.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import Refusal
from .space import ROW_BLOCK_ELEMENTS, Space, euclidean_matrix, validate

CORNER_EXCLUSION_FACTOR = 2.0  # regular ids stay 2h clear of corners


def _require_positive(**scales):
    """Refuses each scale that is not positive and finite (NaN included)."""
    for name, value in scales.items():
        if not 0 < value < math.inf:
            raise Refusal(f"{name} must be positive and finite, got {value}")


def _annotate(space: Space, subsets: dict, extra: dict) -> Space:
    """Store ``subsets`` and ``extra`` as ``space.annotations``, in the form
    the module docstring gives, and register each subset; returns the space."""
    space.annotations = {"subsets": subsets, "extra": extra}
    for name, info in subsets.items():
        space.subset(info["ids"], name=name, extremal=info["extremal"])
    return space


# ---------------------------------------------------------------------------
# convex polygons

def _vertex_array(vertices) -> np.ndarray:
    """The vertices as an (n, 2) float array; anything but pairs of finite
    numbers (a bool or a string is not one) is a refusal."""
    try:
        pairs = [(x, y) for x, y in vertices]
    except (TypeError, ValueError):  # not a sequence of pairs
        pairs = [(None, None)]
    if not all(isinstance(c, numbers.Real) and not isinstance(c, bool) and math.isfinite(c)
               for pair in pairs for c in pair):
        raise Refusal("vertices must be [x, y] pairs of finite numbers")
    return np.array(pairs, dtype=float)


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
                       lattice: str = "triangular") -> Space:
    """Sampled filled convex polygon with its boundary marked extremal.

    Lattice interior and arc-length boundary sample, both at pitch h.  The
    boundary subset is annotated with the exact perimeter; corner samples are
    singular, boundary points more than 2h from every corner are regular.

    ``boundary_mode="loop-uniform"`` uses one exact pitch around the whole
    loop (corners approximated by nearest samples); the per-edge default puts
    corners exactly on the sample.
    """
    _require_positive(h=h)
    if lattice not in ("triangular", "square"):
        raise Refusal(f"lattice must be 'triangular' or 'square', got {lattice!r}")
    vertices = _vertex_array(vertices)
    _convexity_check(vertices)
    edges = np.linalg.norm(np.roll(vertices, -1, axis=0) - vertices, axis=1)
    perimeter = float(edges.sum())

    if boundary_mode == "per-edge":
        bpts, corner_pos = _polygon_boundary_per_edge(vertices, h)
        pitch = perimeter / len(bpts)
    elif boundary_mode == "loop-uniform":
        bpts, corner_pos, pitch = _polygon_boundary_loop_uniform(vertices, h)
    else:
        raise Refusal(f"boundary_mode must be 'per-edge' or 'loop-uniform', "
                      f"got {boundary_mode!r}")

    coords = bpts
    if interior:
        inner = _lattice_in_polygon(vertices, h, margin=0.35 * h, lattice=lattice)
        if inner.size:
            coords = np.vstack([bpts, inner])

    space = Space(name or f"polygon{len(vertices)}", kappa=0.0, coords=coords,
                  resolution=pitch)

    boundary_ids = np.arange(len(bpts))
    corner_ids = boundary_ids[corner_pos]
    dist_to_corners = np.min(
        np.linalg.norm(bpts[:, None, :] - vertices[None, :, :], axis=-1), axis=1)
    regular = boundary_ids[dist_to_corners > CORNER_EXCLUSION_FACTOR * h]
    regular = np.setdiff1d(regular, corner_ids)

    subsets = {
        "boundary": {"ids": boundary_ids.tolist(), "extremal": True,
                     "exact_measure": perimeter, "regular_ids": regular.tolist(),
                     "singular_ids": corner_ids.tolist()},
    }
    if len(coords) > len(bpts):
        subsets["interior"] = {"ids": list(range(len(bpts), len(coords))),
                               "extremal": False}
    return _annotate(space, subsets,
                     {"perimeter": perimeter, "n_vertices": len(vertices),
                      "boundary_pitch": pitch})


def regular_polygon_vertices(n: int, circumradius: float = 1.0) -> np.ndarray:
    ang = 2.0 * math.pi * np.arange(n) / n
    return circumradius * np.column_stack([np.cos(ang), np.sin(ang)])


def gen_regular_polygon(n: int, h: float, circumradius: float = 1.0, **kwargs) -> Space:
    """Regular n-gon inscribed in a circle; perimeter 2 n R sin(pi/n)."""
    return gen_convex_polygon(regular_polygon_vertices(n, circumradius), h,
                              name=kwargs.pop("name", None) or f"regular{n}gon",
                              **kwargs)


def gen_segment(length: float, h: float, name: str | None = None) -> Space:
    """Straight segment sample; the whole sample marked as a 1-d subset."""
    _require_positive(length=length, h=h)
    m = max(1, round(length / h))
    pitch = length / m
    xs = np.arange(m + 1) * pitch
    coords = np.column_stack([xs, np.zeros_like(xs)])
    space = Space(name or "segment", kappa=0.0, coords=coords, resolution=pitch)
    ids = list(range(m + 1))
    return _annotate(space,
                     {"all": {"ids": ids, "extremal": True, "exact_measure": length,
                              "regular_ids": ids[1:-1], "singular_ids": [0, m]}},
                     {"length": length})


# ---------------------------------------------------------------------------
# cones

def cone_distance(s, phi, t, psi, total_angle):
    """Intrinsic distance on the cone of total angle theta (unrolled metric)."""
    dphi = np.abs(phi - psi)
    dphi = np.minimum(dphi, total_angle - dphi)
    dphi = np.minimum(dphi, math.pi)
    sq = s * s + t * t - 2.0 * s * t * np.cos(dphi)
    return np.sqrt(np.maximum(sq, 0.0))


def gen_cone(total_angle: float, radius: float, h: float, name: str | None = None) -> Space:
    """Metric cone of cone angle theta sampled up to the given radius.

    The vertex is marked as a 0-dimensional extremal subset iff theta <= pi
    (its space of directions is a circle of length theta, so has diameter
    theta/2, and one-point extremal subsets need diameter <= pi/2).
    """
    if not 0.0 < total_angle <= 2.0 * math.pi:
        raise Refusal(f"total_angle must be in (0, 2*pi], got {total_angle}")
    _require_positive(radius=radius, h=h)
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
    return _annotate(space, {"vertex": {"ids": [0], "extremal": vertex_extremal}},
                     {"cone_angle": total_angle,
                      "direction_diameter": min(total_angle / 2.0, math.pi),
                      "vertex_extremal": vertex_extremal})


# ---------------------------------------------------------------------------
# the doubled square ("pillow")

def gen_pillow(side: float, h: float, name: str | None = None) -> Space:
    """Double of a square glued along its boundary, with its exact metric.

    Within a sheet, and from a boundary point (on both sheets) to any point,
    the distance is Euclidean: folding the pillow onto the square is
    1-Lipschitz, and the segment in one sheet attains the bound.  A path
    from an interior point p of sheet A to one q of sheet B first meets the
    boundary at some z, so d(p, q) is the least |p - z| + |z - q| over z on
    the four edges.  On an edge the sum is convex in z; with u the
    coordinate along the edge and h_p, h_q the distances to its line, it is
    least where the segment from p to q's mirror image crosses the line, at
    u_p + (u_q - u_p) h_p / (h_p + h_q), clamped to the edge.

    The four corners have cone angle pi (two right angles glued) and are
    marked as one-point extremal subsets; total area is 2 * side^2.
    """
    _require_positive(side=side, h=h)
    m = max(2, round(side / h))
    pitch = side / m

    # sheet A numbers the (m+1)^2 grid [j, i] at (i, j) * pitch, and sheet B
    # its interior after A's n_a points, sharing A's boundary
    axis = np.arange(m + 1) * pitch
    grid = np.column_stack([np.tile(axis, m + 1), np.repeat(axis, m + 1)])
    sheet_a = np.arange(len(grid)).reshape(m + 1, m + 1)
    n_a, a_inner = sheet_a.size, sheet_a[1:m, 1:m].ravel()
    dist = euclidean_matrix(np.vstack([grid, grid[a_inner]]))

    # A's interior x B's interior, one row block and its transpose at a time:
    # (coordinate along the edge, distance to its line) for each edge
    x, y = grid[a_inner].T
    step = max(1, ROW_BLOCK_ELEMENTS // len(a_inner))
    for a in range(0, len(a_inner), step):
        rows = a_inner[a:a + step]
        best = np.full((len(rows), len(a_inner)), np.inf)
        for u, hgt in ((x, y), (x, side - y), (y, x), (y, side - x)):
            up, hp = u[a:a + step, None], hgt[a:a + step, None]
            z = np.clip(up + (u - up) * (hp / (hp + hgt)), 0.0, side)
            np.minimum(best, np.hypot(up - z, hp) + np.hypot(u - z, hgt), out=best)
        dist[rows, n_a:] = best
        dist[n_a:, rows] = best.T

    space = Space(name or "pillow", kappa=0.0, dist=dist, coords=None,
                  resolution=pitch)
    corners = sheet_a[[0, 0, m, m], [0, m, 0, m]].tolist()
    return _annotate(space,
                     {f"corner_{k}": {"ids": [c], "extremal": True}
                      for k, c in enumerate(corners)},
                     {"area": 2.0 * side * side, "corner_cone_angle": math.pi,
                      "corner_ids": corners, "side": side, "sheet_a_size": int(n_a),
                      "antipodal_pair": [corners[0], corners[3]]})


# ---------------------------------------------------------------------------
# spherical suspensions

def gen_spherical_suspension(base: Space, h: float, name: str | None = None) -> Space:
    """Spherical suspension of a curvature >= 1 space, poles included.

    cos d((s,x),(t,y)) = cos s cos t + sin s sin t cos d_base(x, y) with
    s, t in [0, pi]; the result carries kappa = 1.
    """
    if base.kappa < 1.0:
        raise Refusal("suspension base must have kappa >= 1")
    if base.diameter > math.pi + 1e-9:
        raise Refusal(f"suspension base diameter {base.diameter} exceeds pi")
    rep = validate(base)
    if not rep["passed"]:
        raise Refusal(f"suspension base fails validation: "
                      f"{[c['name'] for c in rep['checks'] if not c['passed']]}")
    _require_positive(h=h)
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
    return _annotate(space, {}, {"poles": [0, int(len(ss) - 1)], "levels": levels,
                                 "base_size": nb})


def gen_circle(length: float, h: float) -> Space:
    """Circle of the given length with its arc metric, tagged kappa = 1.

    A circle of length <= 2*pi is a curvature >= 1 space; used as a
    suspension base.
    """
    _require_positive(length=length, h=h)
    if length > 2 * math.pi + 1e-9:
        raise Refusal("circle longer than 2*pi is not a curvature >= 1 space")
    m = max(3, round(length / h))
    arc = np.arange(m) * (length / m)
    gap = np.abs(arc[:, None] - arc[None, :])
    dist = np.minimum(gap, length - gap)
    np.fill_diagonal(dist, 0.0)
    return Space("circle", kappa=1.0, dist=dist, coords=None, resolution=length / m)


def gen_two_point_base(separation: float = math.pi) -> Space:
    """Two points at distance pi: the 0-sphere as a suspension base."""
    _require_positive(separation=separation)
    dist = np.array([[0.0, separation], [separation, 0.0]])
    return Space("two-points", kappa=1.0, dist=dist, coords=None,
                 resolution=separation / 2)
