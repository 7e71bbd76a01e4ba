import json

import pytest

from alexkit.cli import main


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
