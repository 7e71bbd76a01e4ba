"""Memory: what frees a space, and tracemalloc budgets for the space lifecycle.

The dense N x N distance matrix is the memory ceiling, so a space must be
freed by reference counting as soon as its last user lets it go, and no step
may hold more than the design needs.  Each budget below is derived from the
design (the output plus one block of work, or one family member), not from
a measured peak plus a margin; its derivation is stated next to it.
tracemalloc counts numpy's array data, so the budgets are deterministic.
"""

import gc
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from alexkit import cli, models
from alexkit.charts import intrinsic_shortest_path
from alexkit.flow import FlowConfig, dist_gradient_lower_bound
from alexkit.io import FLOAT_CHUNK, WRITE_BATCH, dumps_stable, load_space, save_space
from alexkit.space import (RANDOM_TRIPLES, ROW_BLOCK_ELEMENTS, TRIPLE_CHUNK,
                           calibration_constant, euclidean_matrix, extremality_check,
                           hausdorff_measure_estimate, intrinsic_metric, link_graph,
                           validate)
from alexkit.strainers import _BLOCK_ELEMENTS, classify

F64 = 8  # bytes of one float64 or int64 entry
H = 0.08  # pitch of the budget runs: the 12-gon has N = 584, a 2.6 MiB matrix
FAMILY_SIDES = (8, 16, 32)
FAMILY_EPS = "0.24"


@pytest.fixture
def no_gc():
    """Reference counting alone: a space kept alive by a cycle stays alive."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def twelve_gon():
    return models.gen_regular_polygon(12, H)


def traced_peak(fn) -> int:
    """The most bytes allocated at once while fn() runs, above the start."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# lifetimes

def test_a_generated_space_dies_on_del(no_gc):
    space = models.gen_regular_polygon(12, 0.2)
    assert [space.subsets[name].size for name in space.subsets]
    ref = weakref.ref(space)
    del space
    assert ref() is None


def test_a_loaded_space_dies_on_del_after_its_subsets_are_read(no_gc, tmp_path):
    path = tmp_path / "space.json"
    save_space(models.gen_regular_polygon(12, 0.2), path)
    space = load_space(path)
    assert [space.subsets[name].size for name in space.subsets]
    ref = weakref.ref(space)
    del space
    assert ref() is None


def test_a_subset_keeps_its_space(no_gc):
    space = models.gen_regular_polygon(12, 0.2)
    boundary = space.subsets["boundary"]
    ref = weakref.ref(space)
    del space
    assert ref() is boundary.space


def write_family(path, sides=FAMILY_SIDES):
    path.write_text(json.dumps({"limit": 2 * np.pi, "members": [
        {"generator": "regular-polygon", "label": f"{n}-gon", "params": {"n": n, "h": H}}
        for n in sides]}))
    return str(path)


def converge(family, out):
    return cli.main(["converge", "--family", family, "--m", "1", "--eps", FAMILY_EPS,
                     "--out", str(out)])


def test_converge_holds_one_family_space_at_a_time(no_gc, tmp_path, monkeypatch):
    refs, alive_at_gen = [], []
    gen = models.gen_regular_polygon

    def counted_gen(*args, **kwargs):
        alive_at_gen.append(sum(r() is not None for r in refs))
        space = gen(*args, **kwargs)
        refs.append(weakref.ref(space))
        return space

    monkeypatch.setattr(models, "gen_regular_polygon", counted_gen)
    assert converge(write_family(tmp_path / "family.json"), tmp_path / "out.json") == 0
    assert alive_at_gen == [0, 0, 0]
    assert all(r() is None for r in refs)


# ---------------------------------------------------------------------------
# tracemalloc budgets

def test_euclidean_matrix_budget(twelve_gon):
    # the output, one block of differences, and numpy's ufunc buffers (at
    # most one of getbufsize() entries for each of three operands)
    n = twelve_gon.n_points
    budget = (F64 * n * n + F64 * max(ROW_BLOCK_ELEMENTS, n)
              + 3 * F64 * np.getbufsize())
    coords = twelve_gon.coords
    assert traced_peak(lambda: euclidean_matrix(coords)) <= budget


def test_gen_pillow_budget():
    # h = 0.05: N = 802 points, 361 in each sheet's interior.  The output;
    # euclidean_matrix's row block; then, for A's interior x B's interior,
    # five seam row blocks: the least sum so far and at most four
    # temporaries of one edge at once (the clamped crossing, the first leg,
    # and the second leg with the difference it is taken of); and numpy's
    # ufunc buffers as above.  The two phases run one after the other, so
    # their sum bounds both
    n, inner = 802, 19**2
    budget = (F64 * n * n + F64 * max(ROW_BLOCK_ELEMENTS, n)
              + 5 * F64 * max(ROW_BLOCK_ELEMENTS, inner) + 3 * F64 * np.getbufsize())
    space = []
    assert traced_peak(lambda: space.append(models.gen_pillow(1.0, 0.05))) <= budget
    assert space[0].n_points == n


def test_save_space_budget(twelve_gon, tmp_path):
    # the lower triangle (T float64 entries) and the N^2-byte mask that
    # selects it, plus one chunk of work.  Per value of the chunk, at most:
    # - np.unique's arrays (a copy, the sort permutation, the sorted copy,
    #   the inverse and the two scans that build it, and the unique bits):
    #   7 x 8 bytes, and a 1-byte flag;
    # - the text table, the gathered array and its list: 3 pointers, 24 bytes;
    # - one str object of a formatted float: at most 80 bytes;
    # - 32 characters of joined text, twice while the file encodes it: 64.
    # That is 56 + 1 + 24 + 80 + 64 = 225 < 256 bytes.
    n = twelve_gon.n_points
    t = n * (n - 1) // 2
    budget = F64 * t + n * n + 256 * FLOAT_CHUNK
    path = tmp_path / "space.json"
    assert traced_peak(lambda: save_space(twelve_gon, path)) <= budget


def test_dumps_stable_budget():
    # a report of many small containers, like a strainer mask's witnesses:
    # the text twice (its joined batches and their join), one batch of short
    # strs (at most 128 bytes each, with its pointer), and the walker's
    # str-keyed copy of the widest dict (at most 128 bytes an entry)
    report = {"witnesses": {p: {"base": p, "pairs": [[p, p + 1], [p + 2, p + 3]],
                                "delta_achieved": 0.1 * p, "length": 0.05}
                            for p in range(1000)}}
    size = len(dumps_stable(report))
    budget = 2 * size + 128 * WRITE_BATCH + 128 * len(report["witnesses"])
    assert traced_peak(lambda: dumps_stable(report)) <= budget


def matrix_file_load_budget(path, n) -> int:
    # the file's text, the parsed triangle (a 24-byte float and an 8-byte
    # list slot per value, the list over-allocated by at most 1/8), the
    # parsed points (under 1 KiB each) and the matrix
    t = n * (n - 1) // 2
    return path.stat().st_size + (24 + 9 * F64 // 8) * t + 1024 * n + F64 * n * n


def test_load_space_budget(twelve_gon, tmp_path):
    path = tmp_path / "space.json"
    save_space(twelve_gon, path)
    budget = matrix_file_load_budget(path, twelve_gon.n_points)
    assert traced_peak(lambda: load_space(path)) <= budget


def test_load_euclidean_space_budget(twelve_gon, tmp_path):
    # the file's text, the parsed points (under 1 KiB each), the matrix and
    # one row block of euclidean_matrix's work: no parsed triangle
    path = tmp_path / "space.json"
    save_space(twelve_gon, path, "euclidean")
    n = twelve_gon.n_points
    budget = path.stat().st_size + 1024 * n + F64 * n * n + F64 * max(ROW_BLOCK_ELEMENTS, n)
    save_space(twelve_gon, tmp_path / "matrix.json")
    assert budget < matrix_file_load_budget(tmp_path / "matrix.json", n)
    assert traced_peak(lambda: load_space(path)) <= budget


def test_converge_peak_is_its_largest_members(tmp_path):
    # converge holds one member at a time, so its peak is that of its
    # largest member run alone, plus the finished report rows of the others
    # (a few hundred bytes each; 16 KiB bounds them)
    calibration_constant(1)  # cached for the process; computed outside the budgets
    family = write_family(tmp_path / "family.json")
    alone = max(traced_peak(lambda: converge(write_family(tmp_path / f"{n}.json", [n]),
                                             tmp_path / "alone.json"))
                for n in FAMILY_SIDES)
    assert traced_peak(lambda: converge(family, tmp_path / "out.json")) <= alone + 2**14


def test_gen_polygon_builds_no_matrix(tmp_path):
    # gen writes a polygon's coordinates, so it never needs its N x N matrix:
    # the 12-gon at h = 0.05 has N = 1,456, whose matrix would take 16.2 MiB
    vertices = models.regular_polygon_vertices(12).tolist()
    path = tmp_path / "space.json"
    argv = ["gen", "polygon", "--vertices", json.dumps(vertices), "--h", "0.05",
            "--out", str(path)]
    peak = traced_peak(lambda: cli.main(argv))
    n = load_space(path).n_points
    assert n == 1456
    assert peak < F64 * n * n


def test_measuring_a_generated_boundary_builds_no_matrix():
    # converge's work on one member: generate the filled 32-gon at h = 0.05
    # (N = 1,518, a 17.6 MiB matrix) and pack its boundary in both metrics,
    # which reads the boundary's own distances only
    calibration_constant(1)  # cached for the process; computed outside the budget
    spaces, estimates = [], []

    def member():
        boundary = models.gen_regular_polygon(32, 0.05).subsets["boundary"]
        spaces.append(boundary.space)
        estimates.extend(hausdorff_measure_estimate(boundary, 1, 0.12, metric)
                         for metric in ("extrinsic", "intrinsic"))

    peak = traced_peak(member)
    n = spaces[0].n_points
    assert n == 1518
    assert peak < F64 * n * n
    assert len(estimates) == 2


def test_validate_budget(twelve_gon):
    # N = 584 > 300, so triangles are sampled: the three int32 draws of
    # RANDOM_TRIPLES ids, then one chunk of TRIPLE_CHUNK triples at a time
    # (its gathered distances, their differences and numpy's int64 copies of
    # the index slices: under 8 x 8 bytes a triple); before them, the
    # symmetry and positivity loop holds one row block
    budget = (3 * 4 * RANDOM_TRIPLES + 8 * F64 * TRIPLE_CHUNK
              + F64 * max(ROW_BLOCK_ELEMENTS, twelve_gon.n_points))
    assert twelve_gon.n_points > 300
    assert traced_peak(lambda: validate(twelve_gon)) <= budget


@pytest.mark.parametrize("n", [509, 879, 1028, 3022, 2**20])
def test_int32_triple_draws_match_int64(n):
    # validate draws its triples as int32; on this numpy that gives the same
    # ids and leaves the generator in the same state as the default int64
    wide, narrow = np.random.default_rng(0), np.random.default_rng(0)
    for _ in range(3):
        assert np.array_equal(wide.integers(0, n, RANDOM_TRIPLES),
                              narrow.integers(0, n, RANDOM_TRIPLES, dtype=np.int32))
    assert wide.bit_generator.state == narrow.bit_generator.state


def test_k1_classify_budget():
    # the boundary of the collar-32gon workload's 32-gon (radius 0.6,
    # h = 0.04, N = 879; pools of up to P = 158 points at ell = 0.1 < d < 0.4):
    # the k = 1 search holds no angle array, only a block's gathered pool x
    # pool sides and their bounds (each within _BLOCK_ELEMENTS float64), the
    # boolean masks and the witnesses
    vertices = [[0.6 * np.cos(2 * np.pi * k / 32), 0.6 * np.sin(2 * np.pi * k / 32)]
                for k in range(32)]
    boundary = models.gen_convex_polygon(vertices, 0.04).subsets["boundary"]
    dist = boundary.space.dist[boundary.indices]
    p_max = int(((dist > 0.1) & (dist < 0.4)).sum(axis=1).max())
    assert p_max == 158
    mask = []
    assert traced_peak(lambda: mask.append(classify(boundary, 1, 0.25, 0.1))) \
        < 3 * F64 * _BLOCK_ELEMENTS
    assert mask[0].member_ids.size == boundary.size


# ---------------------------------------------------------------------------
# link-graph budgets: no caller copies an S x S block

@pytest.fixture(scope="module")
def long_boundary():
    """The boundary of a boundary-only 25-gon at h = 0.004: S = 1,575 points,
    whose S x S block would take 19 MiB."""
    return models.gen_regular_polygon(25, 0.004, interior=False).subsets["boundary"]


def link_budget(subset) -> int:
    """The design's peak for building the subset's link graph and running
    scipy on it, output left out.  One row block of B entries (the rows that
    fit ROW_BLOCK_ELEMENTS, or one row) costs at most 35 bytes an entry: the
    block held from the step before, the next one with numpy's gather
    buffers (two blocks more), and the link rule's three boolean masks.  The
    graph costs at most 64 bytes an edge and a point: its csr arrays (12
    bytes an edge), their pieces before they are joined, and scipy's
    validated, transposed or spanning-tree copies and per-point work."""
    s = subset.size
    block = max(1, ROW_BLOCK_ELEMENTS // s) * s
    edges = link_graph(subset.space, subset.indices, subset.space.link_radius()).nnz
    return 35 * block + 64 * (edges + s)


def test_intrinsic_metric_budget(long_boundary):
    # the link graph and two rows of d_E, S floats each
    sub = long_boundary
    budget = link_budget(sub) + 2 * F64 * sub.size
    assert budget < F64 * sub.size**2  # less than one S x S block
    assert traced_peak(lambda: intrinsic_metric(sub, sub.indices[:2])) <= budget


def test_intrinsic_shortest_path_budget(long_boundary):
    # one graph build within the link budget: the 3h graph, cut down in place
    # to the bottleneck radius; its spanning forest (S - 1 edges: data, index
    # and pointer, under two entries a point); and per point the
    # breadth-first order and predecessors, then one Dijkstra row with its
    # predecessors (four entries)
    sub = long_boundary
    ids = sub.indices
    sub.space.dist  # built before the trace: the budget is the path's own work
    budget = link_budget(sub) + 2 * F64 * sub.size + 4 * F64 * sub.size
    assert budget < F64 * sub.size**2  # less than one S x S block
    path = []
    assert traced_peak(lambda: path.append(
        intrinsic_shortest_path(sub, int(ids[0]), int(ids[sub.size // 2])))) <= budget
    assert path[0].points.size > sub.size // 2


def test_extremality_check_budget_on_a_filled_polygon():
    # the boundary of the filled unit square at h = 0.02: N = 3,022 points,
    # S = 200 on the boundary, so the exterior x boundary block would take
    # 4.3 MiB.  The 4h test holds one row block of it (ROW_BLOCK_ELEMENTS
    # entries or one row) and, per exterior point, an id, a gap and a flag
    # (under 3 x 8 bytes); then the link graph and the per-point work as above
    space = models.gen_convex_polygon([[0, 0], [1, 0], [1, 1], [0, 1]], 0.02)
    space.dist  # built before the trace: the budget is the check's own work
    boundary = space.subsets["boundary"]
    n, s = space.n_points, boundary.size
    budget = F64 * max(ROW_BLOCK_ELEMENTS, s) + 3 * F64 * n + link_budget(boundary)
    assert budget < F64 * (n - s) * s  # less than one exterior x boundary block
    report = []
    assert traced_peak(lambda: report.append(extremality_check(boundary))) <= budget
    assert report[0]["checked_exterior_points"] == 200


def test_dist_gradient_lower_bound_budget_on_a_filled_polygon():
    # the same square: dist_E of every ambient point is read one row block
    # of the N x S block at a time (ROW_BLOCK_ELEMENTS entries or one row),
    # with numpy's gather buffers (one block more); per ambient point a
    # distance, an id and the band and annulus masks (under 4 x 8 bytes);
    # the angle work at one band point, a few nearest points by the
    # annulus's witnesses, is smaller than that
    h = 0.02
    space = models.gen_convex_polygon([[0, 0], [1, 0], [1, 1], [0, 1]], h)
    space.dist  # built before the trace: the budget is the flow test's own work
    boundary = space.subsets["boundary"]
    n, s = space.n_points, boundary.size
    budget = 2 * F64 * max(ROW_BLOCK_ELEMENTS, s) + 4 * F64 * n
    assert budget < F64 * n * s  # less than one N x S block
    report = []
    assert traced_peak(lambda: report.append(dist_gradient_lower_bound(
        boundary, {"inner": 2 * h, "outer": 4 * h},
        FlowConfig(step=3 * h, witness_radius=6 * h)))) <= budget
    assert report[0]["band_points"] == 382


def test_extremality_check_budget(long_boundary):
    # an arc of the boundary, its last 100 points the exterior: the exterior
    # x arc block of the 4h test, the link graph, and per exterior point the
    # distances to the arc and the edge-wise comparison (within the link
    # budget's 64 bytes an edge and a point)
    space = long_boundary.space
    arc = space.subset(long_boundary.indices[:-100], name="arc")
    budget = F64 * 100 * arc.size + link_budget(arc)
    assert budget < F64 * arc.size**2  # less than one S x S block
    report = []
    assert traced_peak(lambda: report.append(extremality_check(arc))) <= budget
    assert report[0]["checked_exterior_points"] > 80
    assert report[0]["local_minima_checked"] > 0
