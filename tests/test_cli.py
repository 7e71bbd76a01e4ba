import argparse
import csv
import json
from pathlib import Path

import numpy as np
import pytest

from alexkit.charts import quasigeodesic_check
from alexkit.cli import DEFAULT_SEED, build_parser, main
from alexkit.glue import build_projection, projection_quality
from alexkit.io import dumps_stable, load_space, save_space
from alexkit.space import Curve, Space, packing_dimension_estimate, validate


@pytest.fixture(scope="module")
def segment_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "segment.json"
    assert main(["gen", "segment", "--h", "0.25", "--out", str(path)]) == 0
    return str(path)


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as e:  # argparse usage errors
        return e.code


@pytest.mark.parametrize("argv, option", [
    (["gen", "regular-polygon", "--h", "0.1"], "--n"),
    (["gen", "polygon", "--h", "0.1"], "--vertices"),
    (["gen", "suspension", "--h", "0.1"], "--base"),
    (["flow", "--toward-dist", "0"], "--from"),
    (["flow"], "--toward-dist"),
])
def test_missing_option_exits_2_naming_it(argv, option, segment_file, tmp_path,
                                          capsys):
    if argv[0] == "gen":
        argv = argv + ["--out", str(tmp_path / "out.json")]
    else:
        argv = argv + ["--space", segment_file]
    assert exit_code(argv) == 2
    err = capsys.readouterr().err
    last = err.strip().splitlines()[-1]
    assert "error:" in last and option in last
    assert "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


def test_flow_with_from_runs(segment_file, capsys):
    assert exit_code(["flow", "--space", segment_file, "--toward-dist", "0",
                      "--from", "4"]) == 0
    assert '"command": "flow"' in capsys.readouterr().out


def test_nan_delta_refused(segment_file, capsys):
    argv = ["strain", "--space", segment_file, "--subset", "all", "--k", "1",
            "--delta", "nan", "--ell", "0.3"]
    assert exit_code(argv) == 2
    assert "delta must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gen", "regular-polygon", "--n", "8", "--h", "nan"],
    ["gen", "segment", "--h", "inf"],
    ["gen", "segment", "--h", "0.1", "--length", "inf"],
])
def test_non_finite_parameter_refused(argv, tmp_path, capsys):
    out = tmp_path / "out.json"
    code, line = refused_cleanly(argv + ["--out", str(out)], capsys)
    assert code == 2 and "must be positive and finite" in line
    assert not out.exists()


@pytest.mark.parametrize("extra, name", [([], "regular8gon"),
                                         (["--name", "octagon"], "octagon")])
def test_gen_regular_polygon_name(extra, name, tmp_path):
    out = tmp_path / "space.json"
    assert main(["gen", "regular-polygon", "--n", "8", "--h", "0.25", *extra,
                 "--out", str(out)]) == 0
    assert load_space(str(out)).name == name


def refused_cleanly(argv, capsys):
    """Exit code and one-line message of a refused command; never a traceback."""
    code = exit_code(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    return code, lines[0]


def _filler(action):
    """A value the parser takes for an option, inside every range check
    (a file name, a subset name or an eps grid alike)."""
    if action.choices:
        return str(next(iter(action.choices)))
    return "1" if action.type is int else "0.1"


def _float_options():
    """(argv with value slot, option dest) for every float option of every
    subcommand; the other options get in-range fillers, so only the one
    under test can be refused."""
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    for command, parser in commands.choices.items():
        actions = [a for a in parser._actions if a.nargs != 0]  # not --help, flags
        for target in (a for a in actions if a.type is float):
            argv = [command]
            for a in actions:
                value = None if a is target else _filler(a)
                argv += [value] if not a.option_strings else [a.option_strings[0], value]
            yield pytest.param(argv, target.dest, id=f"{command}-{target.dest}")


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("argv, dest", _float_options())
def test_every_float_option_must_be_positive_and_finite(argv, dest, value, tmp_path,
                                                       monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a command that ran would write here
    argv = [value if a is None else a for a in argv]
    code, line = refused_cleanly(argv, capsys)
    assert (code, line) == (2, f"refusal: parameter {dest} must be positive and "
                               f"finite, got {float(value)}")


@pytest.mark.parametrize("grid, reason", [
    ("nan,0.5,5", "parameter eps_grid must be positive and finite, got nan"),
    ("0.5,5,inf", "parameter eps_grid must be positive and finite, got inf"),
    ("0,0.5,5", "parameter eps_grid must be positive and finite, got 0.0"),
    ("x,0.5,5", "eps_grid must be comma-separated numbers, got 'x,0.5,5'"),
])
def test_eps_grid_values_refused(grid, reason, segment_file, capsys):
    code, line = refused_cleanly(["dim", "--space", segment_file, "--subset", "all",
                                  "--delta", "0.2", "--eps-grid", grid], capsys)
    assert (code, line) == (2, f"refusal: {reason}")


@pytest.mark.parametrize("args, reason", [
    (["validate", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["flow", "--from", "2", "--toward-dist", "0", "--max-steps", "0"],
     "max_steps must be >= 1, got 0"),
    (["flow", "--from", "2", "--toward-dist", "2"],
     "start coincides with the distance-function center"),
    (["qcheck", "--path", "PATH", "--viewpoint", "1"], "viewpoint lies on the path"),
    (["vol", "--subset", "all", "--m", "-1", "--eps", "0.5"],
     "dimension m must be >= 0, got -1"),
    (["chart", "--subset", "all", "--base", "2", "--k", "0", "--delta", "0.2"],
     "a chart needs k >= 1, got k = 0"),
    (["glue", "--subset", "all", "--m", "0", "--delta", "0.2", "--ell", "0.3",
      "--r", "1.0"], "a projection needs m >= 1, got m = 0"),
    (["strain", "--subset", "all", "--k", "1", "--delta", "0.5", "--ell", "0.3"],
     "delta must be <= 0.3, got 0.5"),
    (["strain", "--subset", "all", "--k", "1", "--delta", "0.2", "--ell", "2"],
     "ell must be <= 1.0, got 2.0"),
    # the segment's end point 0 has one point, 1, in its pool (0.1 < d < 0.4)
    (["chart", "--subset", "all", "--base", "0", "--k", "1", "--delta", "0.2"],
     "no (1, 0.2)-strainer found at point 0 (exhaustive over the pool, ell < d < R)"),
    # the middle point 2 has one pool pair, (1, 3), where k = 2 needs two
    (["chart", "--subset", "all", "--base", "2", "--k", "2", "--delta", "0.2"],
     "no (2, 0.2)-strainer found at point 2 (heuristic search)"),
])
def test_meaningless_parameter_is_a_refusal(args, reason, segment_file, tmp_path,
                                            capsys):
    path_file = tmp_path / "path.json"
    path_file.write_text("[0, 1, 2, 3]")
    argv = [str(path_file) if a == "PATH" else a for a in args]
    code, line = refused_cleanly(argv + ["--space", segment_file], capsys)
    assert (code, line) == (2, f"refusal: {reason}")


@pytest.mark.parametrize("members, m, reason", [
    ([{"generator": "segment", "label": "seg", "subset": "all",
       "params": {"length": 1.0, "h": 0.1}}], "-1", "dimension m must be >= 0, got -1"),
    ([], "1", "a convergence family needs at least one member"),
])
def test_converge_meaningless_family_is_a_refusal(members, m, reason, tmp_path, capsys):
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"members": members}))
    code, line = refused_cleanly(["converge", "--family", str(family), "--m", m,
                                  "--eps", "0.5"], capsys)
    assert (code, line) == (2, f"refusal: {reason}")


@pytest.mark.parametrize("path", [[0, 1, 2, 99], [-1, 0, 1, 2]])
def test_qcheck_path_id_out_of_range(path, segment_file, tmp_path, capsys):
    path_file = tmp_path / "path.json"
    path_file.write_text(json.dumps(path))
    code, line = refused_cleanly(["qcheck", "--space", segment_file, "--path",
                                  str(path_file), "--viewpoint", "3"], capsys)
    assert code == 2 and "point id out of range 0..4" in line


@pytest.mark.parametrize("path", [[0, 1.7, 2.2], [0, 1, 2.0], ["0", "x"], ["1", "2"],
                                  [True, False, True], [0, True, 2], [0, None, 2]])
def test_qcheck_path_non_integer_id_refused(path, segment_file, tmp_path, capsys):
    path_file = tmp_path / "path.json"
    path_file.write_text(json.dumps(path))
    code, line = refused_cleanly(["qcheck", "--space", segment_file, "--path",
                                  str(path_file), "--viewpoint", "3"], capsys)
    assert (code, line) == (2, "refusal: point ids must be integers")


@pytest.mark.parametrize("argv, name, text, reason", [
    *[pytest.param(["converge", "--m", "1", "--eps", "0.5", "--family"], "family.json",
                   family, "family must be an object whose members are a list of objects",
                   id=f"converge-{family}")
      for family in ["[1]", '{"members": 5}', '{"members": ["x"]}', "{}"]],
    pytest.param(["qcheck", "--space", "SEGMENT", "--viewpoint", "4", "--path"],
                 "path.json", "[[1, 2], [3, 4]]", "point ids must be a flat list",
                 id="qcheck-nested"),
    pytest.param(["qcheck", "--space", "SEGMENT", "--viewpoint", "4", "--path"],
                 "path.json", "[[1], [2, 3]]", "point ids must be a flat list",
                 id="qcheck-ragged"),
    pytest.param(["qcheck", "--space", "SEGMENT", "--viewpoint", "4", "--path"],
                 "path.json", '{"x": 1}', "a path object must hold a 'points' list",
                 id="qcheck-no-points"),
    *[pytest.param(["converge", "--m", "1", "--eps", "0.5", "--family"], "family.json",
                   json.dumps(family), reason, id=f"converge-{name}")
      for name, family, reason in [
          ("generator-int", {"members": [{"generator": 5}]},
           "unknown generator 5 in family"),
          ("generator-missing", {"members": [{}]}, "unknown generator None in family"),
          ("generator-circle", {"members": [{"generator": "circle",
                                              "params": {"length": 1.0, "h": 0.25}}]},
           "unknown generator 'circle' in family"),
          ("generator-suspension", {"members": [{"generator": "spherical-suspension",
                                                  "params": {"base": 1, "h": 0.5}}]},
           "unknown generator 'spherical-suspension' in family"),
          ("limit-string", {"members": [{"generator": "segment", "subset": "all",
                                         "params": {"length": 1.0, "h": 0.25}}],
                            "limit": "x"},
           "family limit must be null or a finite number, got 'x'"),
          ("exact-string", {"members": [{"generator": "segment", "subset": "all",
                                         "params": {"length": 1.0, "h": 0.25},
                                         "exact": "x"}]},
           "exact measure of 'all' must be null or a finite number, got 'x'"),
          ("subset-list", {"members": [{"generator": "segment", "subset": ["all"],
                                        "params": {"length": 1.0, "h": 0.25}}]},
           "space has no subset named ['all']; available: ['all']"),
          ("lattice", {"members": [{"generator": "regular-polygon",
                                    "params": {"n": 4, "h": 0.25, "lattice": "hexagonal"}}]},
           "lattice must be 'triangular' or 'square', got 'hexagonal'"),
          ("boundary-mode", {"members": [{"generator": "regular-polygon",
                                          "params": {"n": 4, "h": 0.25,
                                                     "boundary_mode": "spiral"}}]},
           "boundary_mode must be 'per-edge' or 'loop-uniform', got 'spiral'")]],
])
def test_json_input_of_the_wrong_shape_is_a_refusal(argv, name, text, reason,
                                                    segment_file, tmp_path, capsys):
    path = tmp_path / name
    path.write_text(text)
    argv = [segment_file if a == "SEGMENT" else a for a in argv] + [str(path)]
    code, line = refused_cleanly(argv, capsys)
    assert (code, line) == (2, f"refusal: {reason}")


@pytest.mark.parametrize("args", [
    ["chart", "--subset", "all", "--base", "9999", "--k", "1", "--delta", "0.2"],
    ["chart", "--subset", "all", "--base", "-1", "--k", "1", "--delta", "0.2"],
    ["flow", "--toward-dist", "0", "--from", "9999"],
    ["flow", "--toward-dist", "-5", "--from", "2"],
    ["qcheck", "--path", "PATH", "--viewpoint", "99"],
])
def test_point_id_out_of_range_is_a_refusal(args, segment_file, tmp_path, capsys):
    path_file = tmp_path / "path.json"
    path_file.write_text("[0, 1, 2]")
    argv = [str(path_file) if a == "PATH" else a for a in args]
    code, line = refused_cleanly(argv + ["--space", segment_file], capsys)
    assert code == 2 and line == "refusal: point id out of range 0..4"


def test_converge_bad_member_parameter(tmp_path, capsys):
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"members": [
        {"generator": "segment", "label": "seg", "subset": "all",
         "params": {"length": 1.0, "h": 0.25, "pitch": 3}}]}))
    code, line = refused_cleanly(["converge", "--family", str(family), "--m", "1",
                                  "--eps", "0.5"], capsys)
    assert code == 2 and "'seg'" in line and "pitch" in line


@pytest.mark.parametrize("vertices", [
    "x", "[[0, 0], [1, 0]", '{"x": 0}', "[1, 2, 3]", '[[0, 0], [1, 0], [1, "a"]]',
    "[[0, 0], [1, 0], [true, 1]]", "[[0, 0], [1, 0], [1, 1, 1]]",
    "[[0, 0], [1, 0], [NaN, 1]]",
    pytest.param("[[0, 0], [1, 0], [1" + "0" * 400 + ", 1]]", id="huge-integer")])
def test_gen_malformed_vertices_is_a_refusal(vertices, tmp_path, capsys):
    out = tmp_path / "out.json"
    code, line = refused_cleanly(["gen", "polygon", "--vertices", vertices,
                                  "--h", "0.1", "--out", str(out)], capsys)
    assert code == 2 and line.startswith("refusal: vertices must be ")
    assert not out.exists()


def test_a_sample_too_large_to_allocate_is_one_error_line(segment_file, tmp_path, capsys,
                                                         monkeypatch):
    # validate reads the whole matrix, which a coordinate file builds on that read
    def out_of_memory(coords):  # what numpy raises for a matrix it cannot allocate
        raise MemoryError(f"Unable to allocate the {len(coords)}-point distance matrix")

    monkeypatch.setattr("alexkit.space.euclidean_matrix", out_of_memory)
    out = tmp_path / "out.json"
    code, line = refused_cleanly(["validate", "--space", segment_file, "--out", str(out)],
                                 capsys)
    assert (code, line) == (1, "error: MemoryError: Unable to allocate the 5-point "
                               "distance matrix")
    assert not out.exists()


@pytest.mark.parametrize("command", [["dim"], ["strain", "--k", "2"]])
def test_reports_are_byte_identical_across_runs(command, tmp_path):
    space = str(tmp_path / "square.json")
    assert main(["gen", "polygon", "--vertices", "[[0, 0], [1, 0], [1, 1], [0, 1]]",
                 "--h", "0.1", "--out", space]) == 0
    out = tmp_path / "report.json"
    argv = [*command, "--space", space, "--subset", "all", "--delta", "0.1",
            "--ell", "0.12", "--search-radius", "0.45", "--out", str(out)]
    reports = []
    for _ in range(2):
        assert main(argv) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    report = json.loads(reports[0])
    assert report.get("strainer_number", report.get("member_count")) >= 2


@pytest.fixture(scope="module")
def polygon_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "32gon.json"
    assert main(["gen", "regular-polygon", "--n", "32", "--h", "0.1",
                 "--out", str(path)]) == 0
    return str(path)


def test_glue_with_no_pair_2r_apart_is_refused(polygon_file, capsys):
    # the 32-gon has diameter 2, so no domain pair is 2r = 2.1 apart
    code, line = refused_cleanly(["glue", "--space", polygon_file, "--subset",
                                  "boundary", "--m", "1", "--delta", "0.25",
                                  "--ell", "0.1", "--r", "1.05"], capsys)
    assert code == 2 and line.startswith("refusal: no usable pairs")


def twice(argv, *paths):
    """Runs argv twice; the bytes of each written file, checked equal across runs."""
    runs = []
    for _ in range(2):
        assert main(argv) == 0
        runs.append([path.read_bytes() for path in paths])
    assert runs[0] == runs[1]
    return runs[0]


def test_dim_eps_grid_writes_the_packing_fit(tmp_path):
    space = tmp_path / "square.json"
    assert main(["gen", "polygon", "--vertices", "[[0, 0], [1, 0], [1, 1], [0, 1]]",
                 "--h", "0.1", "--out", str(space)]) == 0
    out = tmp_path / "dim.json"
    (text,) = twice(["dim", "--space", str(space), "--subset", "all", "--delta", "0.1",
                     "--ell", "0.12", "--search-radius", "0.45",
                     "--eps-grid", "0.2,0.5,2.0", "--out", str(out)], out)
    loaded = load_space(str(space))
    want = packing_dimension_estimate(loaded, np.arange(loaded.n_points),
                                      [0.2, 0.5, 2.0])
    assert json.loads(text)["packing_dimension"] == json.loads(dumps_stable(want))


def test_internal_error_is_one_error_line_and_exit_1(segment_file, tmp_path, capsys):
    data = json.loads(Path(segment_file).read_text())
    data["points"].reverse()  # ids out of order: a KitError, not bad input
    space_file = tmp_path / "reversed.json"
    space_file.write_text(json.dumps(data))
    code, line = refused_cleanly(["strain", "--space", str(space_file), "--subset", "all",
                                  "--k", "1", "--delta", "0.2", "--ell", "0.3"], capsys)
    assert (code, line) == (1, "error: point ids must be 0..N-1 in order")


def test_glue_full_embeds_the_map(polygon_file, tmp_path):
    out = tmp_path / "glue.json"
    (text,) = twice(["glue", "--space", polygon_file, "--subset", "boundary",
                     "--m", "1", "--delta", "0.25", "--ell", "0.12", "--r", "0.4",
                     "--rho", "0.07", "--full", "--out", str(out)], out)
    report = json.loads(text)
    gmap = build_projection(load_space(polygon_file).subsets["boundary"], 1, 0.25,
                            0.12, 0.4, rho=0.07)
    projection_quality(gmap)
    assert report["map"] == json.loads(dumps_stable(gmap.to_dict()))
    assert report["map"]["quality"] == report["quality"]
    assert len(report["map"]["net"]) == report["net_size"]


def test_converge_csv_holds_the_report_table(tmp_path):
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"members": [
        {"generator": "segment", "label": f"h={h}", "subset": "all",
         "params": {"length": 1.0, "h": h}} for h in (0.1, 0.05)]}))
    out, csv_path = tmp_path / "converge.json", tmp_path / "converge.csv"
    text, csv_text = twice(["converge", "--family", str(family), "--m", "1",
                            "--eps", "0.25", "--csv", str(csv_path),
                            "--out", str(out)], out, csv_path)
    table = json.loads(text)["result"]["table"]
    lines = csv_text.decode().splitlines()
    assert lines[0] == ("label,estimate_extrinsic,estimate_intrinsic,exact,"
                        "deviation_extrinsic,deviation_intrinsic")
    rows = list(csv.DictReader(lines))
    assert [row["label"] for row in rows] == ["h=0.1", "h=0.05"]
    for row, want in zip(rows, table):
        for col in ("estimate_extrinsic", "estimate_intrinsic", "exact",
                    "deviation_extrinsic", "deviation_intrinsic"):
            assert float(row[col]) == want[col]


def test_strain_report_ignores_alexkit_threads(segment_file, tmp_path, monkeypatch):
    out = tmp_path / "strain.json"
    argv = ["strain", "--space", segment_file, "--subset", "all", "--k", "1",
            "--delta", "0.2", "--ell", "0.3", "--out", str(out)]
    monkeypatch.delenv("ALEXKIT_THREADS", raising=False)
    assert main(argv) == 0
    unset = out.read_bytes()
    monkeypatch.setenv("ALEXKIT_THREADS", "4")
    assert main(argv) == 0
    assert out.read_bytes() == unset


def test_qcheck_checks_the_path_at_its_median_gap(segment_file, tmp_path):
    path, out = tmp_path / "path.json", tmp_path / "qcheck.json"
    path.write_text("[0, 1, 2, 3]")
    (text,) = twice(["qcheck", "--space", segment_file, "--path", str(path),
                     "--viewpoint", "4", "--out", str(out)], out)
    space = load_space(segment_file)
    ids = np.array([0, 1, 2, 3])
    want = quasigeodesic_check(space, Curve(points=ids, step=float(np.median(
        space.dist[ids[:-1], ids[1:]]))), 4)
    assert json.loads(text)["result"] == json.loads(dumps_stable(want))


def test_validate_reports_the_library_report(segment_file, tmp_path):
    out = tmp_path / "validate.json"
    assert main(["validate", "--space", segment_file, "--out", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    assert report == validate(load_space(segment_file), seed=DEFAULT_SEED)
    assert report["passed"]


def test_failed_validation_exits_2_and_writes_its_report(tmp_path, capsys):
    # a space file holds the lower triangle only, so it breaks the triangle
    # inequality rather than symmetry
    space_file, out = tmp_path / "bad.json", tmp_path / "validate.json"
    save_space(Space("bad", 0.0, [[0, 1, 5.0], [1, 0, 1], [5.0, 1, 0]]), space_file)
    assert main(["validate", "--space", str(space_file), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ""
    report = json.loads(out.read_text())["report"]
    assert report == validate(load_space(space_file), seed=DEFAULT_SEED)
    assert [c["name"] for c in report["checks"] if not c["passed"]] == [
        "triangle_inequality"]
    code, line = refused_cleanly(["strain", "--space", str(space_file), "--subset", "all",
                                  "--k", "1", "--delta", "0.2", "--ell", "0.5"], capsys)
    assert (code, line) == (2, "refusal: space file fails validation: "
                               "['triangle_inequality']")
