import hashlib
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from alexkit import models
from alexkit import space as space_module
from alexkit.cli import main
from alexkit.errors import KitError, Refusal
from alexkit.io import (FLOAT_CHUNK, dumps_stable, from_lower_triangle, load_space,
                        lower_triangle, save_space, space_to_dict)
from alexkit.space import Space

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


@pytest.fixture(scope="module")
def polygon():
    space = models.gen_convex_polygon([(0, 0), (1, 0), (0.4, 0.8)], 0.1)
    return space


@pytest.mark.parametrize("metric_type", ["matrix", "euclidean"])
def test_round_trip_is_bit_identical(polygon, metric_type, tmp_path):
    path = tmp_path / "space.json"
    save_space(polygon, path, metric_type)
    back = load_space(path)
    assert back.dist.tobytes() == polygon.dist.tobytes()
    assert back.coords.tobytes() == polygon.coords.tobytes()
    assert (back.name, back.kappa, back.resolution) == (
        polygon.name, polygon.kappa, polygon.resolution)
    assert back.annotations == polygon.annotations
    assert list(back.subsets) == list(polygon.subsets)
    for name, sub in polygon.subsets.items():
        assert np.array_equal(back.subsets[name].indices, sub.indices)
        assert back.subsets[name].extremal_claim == sub.extremal_claim
    save_space(back, tmp_path / "again.json", metric_type)
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_failed_save_leaves_the_old_file(polygon, tmp_path):
    path = tmp_path / "space.json"
    save_space(polygon, path)
    before = path.read_bytes()
    space = Space("bad", 0.0, polygon.dist)
    space.annotations = {"bad": object()}  # the writer cannot encode it
    with pytest.raises(TypeError):
        save_space(space, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["space.json"]


def test_lower_triangle_is_row_major():
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    assert lower_triangle(d).tolist() == [1.0, 2.0, 3.0]
    assert np.array_equal(from_lower_triangle([1.0, 2.0, 3.0], 3), d)


def test_a_euclidean_file_loads_its_matrix_when_it_is_read(polygon, tmp_path, monkeypatch):
    path = tmp_path / "space.json"
    save_space(polygon, path, "euclidean")
    build = space_module.euclidean_matrix
    builds = []
    monkeypatch.setattr(space_module, "euclidean_matrix",
                        lambda coords: builds.append(len(coords)) or build(coords))
    space = load_space(path)
    assert builds == []
    assert space.dist.tobytes() == build(space.coords).tobytes()
    assert builds == [space.n_points]


def test_wrong_triangle_length_refused():
    with pytest.raises(KitError, match="needs 3 entries, got 2"):
        from_lower_triangle([1.0, 2.0], 3)


@pytest.mark.parametrize("change, error, reason", [
    (lambda d: d.update(schema_version=2), Refusal, "unsupported schema_version 2"),
    (lambda d: d["points"].reverse(), KitError, "point ids must be 0..N-1 in order"),
    (lambda d: [p.pop("coords") for p in d["points"]], KitError,
     "euclidean metric type needs coords on every point"),
    (lambda d: d["metric"].update(type="taxicab"), KitError, "unknown metric type 'taxicab'"),
    (lambda d: [p.update(coords=0.0) for p in d["points"]], KitError,
     "coordinates must be one row of numbers per point"),
    (lambda d: d["points"][0]["coords"].append(0.0), KitError,
     "coordinates must be one row of numbers per point"),
], ids=["schema-version", "ids-out-of-order", "euclidean-without-coords",
        "unknown-metric-type", "scalar-coords", "ragged-coords"])
def test_malformed_space_file_is_refused_on_load(polygon, change, error, reason, tmp_path):
    data = space_to_dict(polygon, "euclidean")
    change(data)
    path = tmp_path / "space.json"
    path.write_text(json.dumps(data))
    with pytest.raises(error, match=f"^{re.escape(reason)}$"):
        load_space(path)


@pytest.mark.parametrize("metric_type, error, reason", [
    ("euclidean", Refusal, "euclidean metric type needs coordinates"),
    ("taxicab", KitError, "unknown metric type 'taxicab'"),
])
def test_save_refuses_a_metric_type_it_cannot_write(metric_type, error, reason, tmp_path):
    path = tmp_path / "space.json"
    with pytest.raises(error, match=f"^{re.escape(reason)}$"):
        save_space(models.gen_circle(2 * math.pi, 0.5), path, metric_type)  # no coordinates
    assert list(tmp_path.iterdir()) == []


GEN_H = 0.25
TRIANGLE = [[0.0, 0.0], [1.0, 0.0], [0.4, 0.8]]


def gen_file(argv, h, path) -> dict:
    """Run ``gen`` and return the file's parsed JSON."""
    assert main(["gen", *argv, "--h", repr(h), "--out", str(path)]) == 0
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def circle_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("base") / "circle.json"
    save_space(models.gen_circle(2 * math.pi, 0.5), path)
    return path


# each gen kind: its options, the in-memory generator, and the file's metric
# type, which is "euclidean" exactly where the distances are the Euclidean
# distances of the coordinates
GEN_KINDS = [
    (["polygon", "--vertices", json.dumps(TRIANGLE)],
     lambda base: models.gen_convex_polygon(TRIANGLE, GEN_H), "euclidean"),
    (["regular-polygon", "--n", "7"],
     lambda base: models.gen_regular_polygon(7, GEN_H), "euclidean"),
    (["segment"], lambda base: models.gen_segment(1.0, GEN_H), "euclidean"),
    (["cone"], lambda base: models.gen_cone(math.pi / 2, 1.0, GEN_H), "matrix"),
    (["pillow"], lambda base: models.gen_pillow(1.0, GEN_H), "matrix"),
    (["suspension"],
     lambda base: models.gen_spherical_suspension(load_space(base), GEN_H), "matrix"),
]


@pytest.mark.parametrize("argv, generate, metric_type", GEN_KINDS,
                         ids=[argv[0] for argv, _, _ in GEN_KINDS])
def test_gen_file_loads_to_the_generators_bits(argv, generate, metric_type, circle_file,
                                               tmp_path):
    if argv[0] == "suspension":
        argv = [*argv, "--base", str(circle_file)]
    path = tmp_path / "space.json"
    assert gen_file(argv, GEN_H, path)["metric"]["type"] == metric_type
    assert load_space(path).dist.tobytes() == generate(circle_file).dist.tobytes()


@pytest.mark.parametrize("workload", ["strain-square", "collar-32gon"])
def test_gen_polygon_file_is_exact_at_every_benchmark_rotation(workload, tmp_path):
    # the benchmark's vertex lists, rotated by workloads.turn(seed, n)
    path = tmp_path / "space.json"
    for seed in range(20):
        vertices = workloads.make(workload, seed).vertices
        data = gen_file(["polygon", "--vertices", json.dumps(vertices)], 0.1, path)
        assert data["metric"] == {"type": "euclidean"}
        expected = models.gen_convex_polygon(vertices, 0.1)
        assert load_space(path).dist.tobytes() == expected.dist.tobytes(), seed


# SHA-256 of save_space's bytes for the triangle, recorded before the writer
# became a one-pass encoder
SAVED_DIGESTS = {
    "matrix": "0ee2aa57dd022f4c2221a138deea3dca0dd0b5c28e790a2d6422818edace4344",
    "euclidean": "8cce600c7b3e456f5c72b129a7f3180c47834e7890dc89aa06b801fd240b4afc",
}


@pytest.mark.parametrize("metric_type", sorted(SAVED_DIGESTS))
def test_saved_bytes_digest(polygon, metric_type, tmp_path):
    path = tmp_path / "space.json"
    save_space(polygon, path, metric_type)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SAVED_DIGESTS[metric_type]


def _plain(obj):
    """The reference writer's conversion to plain JSON values."""
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


def reference_dumps(obj) -> str:
    return json.dumps(_plain(obj), sort_keys=True, indent=1,
                      separators=(",", ": ")) + "\n"


def outcome(write, obj):
    try:
        return write(obj)
    except Exception as e:  # the exception type is part of the contract
        return type(e)


SPECIAL_FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 0.1,
                  1e16, 1e-7, 5e-324]
floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
float_runs = st.lists(st.sampled_from(SPECIAL_FLOATS) | floats, max_size=30).map(
    lambda xs: xs + xs[: len(xs) // 2])  # repeated values
numpy_values = (
    hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=4), elements=floats)
    | hnp.arrays(np.int64, hnp.array_shapes(max_dims=2, max_side=4))
    | hnp.from_dtype(np.dtype(np.float64)) | hnp.from_dtype(np.dtype(np.float32))
    | hnp.from_dtype(np.dtype(np.int32)) | hnp.from_dtype(np.dtype(np.uint64)))
scalars = (st.none() | st.booleans() | st.integers() | floats | st.text(max_size=5)
           | numpy_values | float_runs)
keys = st.text(max_size=4) | st.integers(-3, 3) | st.booleans() | st.none() | floats
# values the reference rejects: a set, complex numbers, numpy bools and a
# 0-d array, which is not iterable
unwritable = st.sampled_from([set(), 1j, np.complex128(1j), np.bool_(True),
                              np.array(2.5), object()])


def nested(leaves):
    return st.recursive(leaves, lambda inner: (
        st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(keys, inner, max_size=4)), max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(nested(scalars))
def test_writer_matches_reference(obj):
    assert dumps_stable(obj) == reference_dumps(obj)


@settings(max_examples=100, deadline=None)
@given(nested(scalars | unwritable))
def test_writer_rejects_what_the_reference_rejects(obj):
    assert outcome(dumps_stable, obj) == outcome(reference_dumps, obj)


def test_streamed_file_matches_the_joined_text_across_chunks(tmp_path):
    # a triangle of a little over two chunks, repeated values, and the floats
    # that print specially on either side of each chunk edge
    n = 2
    while n * (n - 1) // 2 <= 2 * FLOAT_CHUNK + 1:
        n += 1
    tri = np.random.default_rng(0).integers(1, 500, n * (n - 1) // 2) / 64.0
    for edge in (FLOAT_CHUNK, 2 * FLOAT_CHUNK):
        tri[edge - 2:edge + 2] = [-0.0, math.nan, math.inf, -math.inf]
    tri[[0, -1]] = [-math.nan, -0.0]
    space = Space("edges", 0.0, from_lower_triangle(tri, n))
    path = tmp_path / "edges.json"
    save_space(space, path)
    text = dumps_stable(space_to_dict(space))
    assert path.read_bytes() == text.encode()
    assert text == reference_dumps(space_to_dict(space))


@pytest.mark.parametrize("array", [
    np.array([0.1, -0.0, math.nan, math.inf], dtype=np.float32),
    np.array([[0.1, -0.0], [math.nan, 0.1]]),
    np.array([0.1, 0.2], dtype=np.float64).astype(">f8"),
])
def test_other_float_arrays_are_written_as_lists(array):
    # only a native 1-D float64 array is read by bit pattern as it is; a
    # float32 array read that way would be misread, so it goes through tolist
    assert dumps_stable({"a": array}) == reference_dumps({"a": array})
