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
"euclidean" metric type stores no distances: a loaded file gives its
coordinates to the Space, which computes distances from them when they are
read (see ``alexkit.space``), as the generated Space did.  ``gen`` writes
"euclidean" for polygon, regular-polygon and segment models, whose
generators make coordinate spaces; cone, pillow and suspension files hold
the matrix.  Each coordinate is written as its ``repr`` and parses back to
the same float, so the loaded space's distances are bit-identical to the
generator's.

One JSON walker writes space files and CLI reports alike: sorted keys,
one-space indent, ``repr`` floats, no timestamps, so identical runs are
byte-identical.  It walks the object once and hands each piece of text to a
sink.  ``save_space``'s sink is the file, so a space file never exists as
one string; ``dumps_stable``'s joins the pieces WRITE_BATCH at a time and
the batches once at the end.  A run of floats is a 1-D float64 array and
nothing else: it is joined and written FLOAT_CHUNK values at a time, and the
matrix's lower triangle stays a float64 array throughout.  Within a chunk
the values are grouped by bit pattern with ``np.unique``, so each distinct
float is formatted once: sampled lattices repeat distances, and a chunk of a
space file's matrix holds a quarter or less as many distinct values as
entries.  A list is written item by item, whatever its items.
"""

from __future__ import annotations

import json
import math
import os
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .errors import KitError, Refusal
from .space import Space

SCHEMA_VERSION = 1
FLOAT_CHUNK = 2**15  # most floats of one run joined into one string by the writer
WRITE_BATCH = 256  # pieces of text dumps_stable holds before joining them


def lower_triangle(dist: np.ndarray) -> np.ndarray:
    # a boolean mask selects in row-major order, with n^2 bytes of index
    return dist[np.tri(dist.shape[0], k=-1, dtype=bool)]


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
    if space.coords is None:
        points = [{"id": i} for i in range(space.n_points)]
    else:
        points = [{"id": i, "coords": row} for i, row in enumerate(space.coords.tolist())]
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
        coords = [p["coords"] for p in points]
    metric = data["metric"]
    if metric["type"] == "matrix":
        dist = from_lower_triangle(metric["data"], n)
    elif metric["type"] == "euclidean":
        if coords is None:
            raise KitError("euclidean metric type needs coords on every point")
        dist = None  # the Space builds it from the coordinates when it is read
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
    """Write the space file at ``path`` through ``{path}.tmp`` in the same
    directory, which replaces ``path`` only once whole: a failed save (say,
    of an annotation the writer cannot encode) leaves any old file as it was
    and no temporary file."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as f:
            _encode(space_to_dict(space, metric_type), "\n", f.write)
            f.write("\n")
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def load_space(path) -> Space:
    return space_from_dict(json.loads(Path(path).read_text()))


def dumps_stable(obj) -> str:
    """Deterministic JSON: sorted keys, one-space indent, trailing newline.

    Keys are written as ``str(key)``; tuples and numpy arrays as lists; numpy
    scalars as Python numbers; non-finite floats as the JSON strings "inf",
    "-inf" and "nan".  Any other type raises ``TypeError``.
    """
    chunks, pieces = [], []

    def write(text):
        # a short str costs about 60 bytes, so pieces are joined a batch at a time
        pieces.append(text)
        if len(pieces) == WRITE_BATCH:
            chunks.append("".join(pieces))
            pieces.clear()

    _encode(obj, "\n", write)
    pieces.append("\n")
    chunks.append("".join(pieces))
    return "".join(chunks)


def _encode(obj, newline: str, write) -> None:
    # newline: a line break plus the indent of the line obj starts on;
    # write: the sink that takes each piece of text in order
    if isinstance(obj, dict):
        obj = {str(k): v for k, v in obj.items()}
        if not obj:
            write("{}")
            return
        inner = newline + " "
        lead = "{" + inner
        for k in sorted(obj):
            write(lead + encode_basestring_ascii(k) + ": ")
            _encode(obj[k], inner, write)
            lead = "," + inner
        write(newline + "}")
        return
    if isinstance(obj, np.ndarray) and not (obj.ndim == 1 and obj.dtype == np.float64):
        obj = list(obj.tolist())  # a 0-d array of numbers raises TypeError
    if isinstance(obj, (list, tuple, np.ndarray)):
        if not len(obj):
            write("[]")
            return
        inner = newline + " "
        sep = "," + inner
        write("[" + inner)
        if isinstance(obj, np.ndarray):
            _floats(obj, sep, write)
        else:
            for i, v in enumerate(obj):
                if i:
                    write(sep)
                _encode(v, inner, write)
        write(newline + "]")
    else:
        write(_scalar(obj))


def _floats(values: np.ndarray, sep: str, write) -> None:
    # one chunk at a time, each distinct float of the chunk formatted once;
    # grouped by bit pattern, not by value, because -0.0 == 0.0 but the two
    # print differently
    for a in range(0, values.size, FLOAT_CHUNK):
        if a:
            write(sep)
        chunk = values[a:a + FLOAT_CHUNK].view(np.int64)
        bits, inverse = np.unique(chunk, return_inverse=True)
        text = np.array([_float(x) for x in bits.view(np.float64).tolist()], dtype=object)
        write(sep.join(text[inverse].tolist()))


def _scalar(obj) -> str:
    if isinstance(obj, np.integer):
        obj = int(obj)
    elif isinstance(obj, np.floating):
        obj = float(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _float(x: float) -> str:
    return float.__repr__(x) if math.isfinite(x) else encode_basestring_ascii(repr(x))
