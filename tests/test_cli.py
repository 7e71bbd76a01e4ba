import json

import pytest

from alexkit.cli import main
from alexkit.io import load_space


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


@pytest.mark.parametrize("config, subset, size", [
    ({"kind": "regular-polygon", "n": 8, "h": 0.25}, "boundary", 8 * 3),
    ({"kind": "segment", "length": 0.5, "h": 0.25}, "all", 3),
])
def test_run_passes_generator_parameters_as_options(config, subset, size, tmp_path):
    out = tmp_path / "space.json"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"command": "gen", "out": str(out), **config}))
    assert exit_code(["run", "--config", str(cfg)]) == 0
    assert load_space(str(out)).subsets[subset].size == size


def refused_cleanly(argv, capsys):
    """Exit code and one-line message of a refused command; never a traceback."""
    code = exit_code(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    return code, lines[0]


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
