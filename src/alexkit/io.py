"""Space file serialization and report writing.

Space files are JSON with schema_version 1:

    {
      "schema_version": 1,
      "name": ..., "kappa": ..., "resolution": ...,
      "points": [{"id": 0, "coords": [x, y]}, ...],
      "metric": {"type": "matrix", "data": [...]} | {"type": "euclidean"},
      "subsets": [{"name": ..., "indices": [...], "extremal": bool}],
      "annotations": {...}
    }

Matrix data is the strict lower triangle, row-major, 64-bit floats.  The
"euclidean" metric type recomputes distances from coords on load.  Report
JSON is written with sorted keys and no timestamps so identical runs are
byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import KitError, Refusal
from .space import Space, euclidean_matrix

SCHEMA_VERSION = 1


def lower_triangle(dist: np.ndarray) -> list[float]:
    # a boolean mask selects in row-major order, with n^2 bytes of index
    return dist[np.tri(dist.shape[0], k=-1, dtype=bool)].tolist()


def from_lower_triangle(data, n: int) -> np.ndarray:
    need = n * (n - 1) // 2
    if len(data) != need:
        raise KitError(f"lower triangle for {n} points needs {need} entries, "
                       f"got {len(data)}")
    d = np.zeros((n, n))
    pos = 0
    for i in range(1, n):
        row = np.asarray(data[pos:pos + i], dtype=float)
        d[i, :i] = row
        d[:i, i] = row
        pos += i
    return d


def space_to_dict(space: Space, metric_type: str = "matrix") -> dict:
    points = []
    for i in range(space.n_points):
        entry: dict = {"id": i}
        if space.coords is not None:
            entry["coords"] = [float(c) for c in space.coords[i]]
        points.append(entry)
    if metric_type == "euclidean":
        if space.coords is None:
            raise Refusal("euclidean metric type needs coordinates")
        metric = {"type": "euclidean"}
    elif metric_type == "matrix":
        metric = {"type": "matrix", "data": lower_triangle(space.dist)}
    else:
        raise KitError(f"unknown metric type {metric_type!r}")
    subsets = [{"name": name, "indices": sub.indices.tolist(),
                "extremal": sub.extremal_claim}
               for name, sub in space.subsets.items()]
    return {
        "schema_version": SCHEMA_VERSION,
        "name": space.name,
        "kappa": space.kappa,
        "resolution": space.resolution,
        "points": points,
        "metric": metric,
        "subsets": subsets,
        "annotations": space.annotations,
    }


def space_from_dict(data: dict) -> Space:
    if data.get("schema_version") != SCHEMA_VERSION:
        raise Refusal(f"unsupported schema_version {data.get('schema_version')!r}")
    points = data["points"]
    n = len(points)
    ids = [p["id"] for p in points]
    if ids != list(range(n)):
        raise KitError("point ids must be 0..N-1 in order")
    coords = None
    if points and "coords" in points[0]:
        coords = np.asarray([p["coords"] for p in points], dtype=float)
    metric = data["metric"]
    if metric["type"] == "matrix":
        dist = from_lower_triangle(metric["data"], n)
    elif metric["type"] == "euclidean":
        if coords is None:
            raise KitError("euclidean metric type needs coords on every point")
        dist = euclidean_matrix(coords)
    else:
        raise KitError(f"unknown metric type {metric['type']!r}")
    space = Space(data["name"], data["kappa"], dist, coords=coords,
                  resolution=data.get("resolution"))
    space.annotations = data.get("annotations", {})
    for sub in data.get("subsets", []):
        space.subset(sub["indices"], name=sub["name"],
                     extremal=sub.get("extremal", False))
    return space


def save_space(space: Space, path, metric_type: str = "matrix"):
    Path(path).write_text(dumps_stable(space_to_dict(space, metric_type)))


def load_space(path) -> Space:
    return space_from_dict(json.loads(Path(path).read_text()))


def dumps_stable(obj) -> str:
    """Deterministic JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(_plain(obj), sort_keys=True, indent=1,
                      separators=(",", ": ")) + "\n"


def write_report(path, obj):
    Path(path).write_text(dumps_stable(obj))


def _plain(obj):
    import math

    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        obj = float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)  # "inf" / "-inf" / "nan"; valid JSON strings
    return obj
