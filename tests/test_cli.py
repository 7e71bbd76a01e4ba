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
