"""Tests of the benchmark itself, at the tiny problem size."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench_cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           "--size", "tiny", "--seconds", "0", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_end_to_end_metrics_emitted_and_oracles_pass(name):
    result = last_json(bench_cli("--workload", name, "--seed", "0", "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_emits_every_per_layer_metric():
    result = last_json(bench_cli("--workload", "collar-32gon", "--seed", "0", "--trace", "1"))
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["error_rate"] == 0
    assert values["strainers.find_strainer.calls"] > 0
    assert values["glue.build_projection.self_s"] > 0
    assert values["io.load_space.calls"] == 3


def test_workloads_in_spec_match_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_corrupted_report_raises_error_rate(tmp_path):
    wl = workloads.make("strain-square", 0, "tiny")
    s = run.Session(wl, tmp_path, {})
    s.setup()
    commands = s.pipeline()
    s.run(commands)
    assert s.error_rate == 0
    argv = next(c for c in commands if c[0] == "dim")
    # a report that claims the wrong dimension fails the dim oracle
    dim = json.loads((tmp_path / "dim.json").read_text())
    dim["strainer_number"] = 3
    (tmp_path / "dim.json").write_text(json.dumps(dim))
    s.tally([{"rc": 0}], [argv])
    assert s.error_rate > 0 and "strainer_number" in s.failures[-1]
    # so do a report that is not JSON and a non-zero exit code
    (tmp_path / "dim.json").write_text("{")
    s.tally([{"rc": 0}, {"rc": 2}], [argv, argv], "refusal")
    assert len(s.failures) == 3 and "malformed" in s.failures[-2]
    # an argument the CLI refuses fails that command, and the next still runs
    attempted = s.attempted
    s.run([argv + ["--no-such-flag"], commands[0]])
    assert s.attempted == attempted + 2
    assert len(s.failures) == 4 and "exit code 2" in s.failures[-1]


def test_traced_metrics_leave_out_the_set_up(tmp_path):
    wl = workloads.make("measure-polygons", 0, "tiny")
    s = run.Session(wl, tmp_path, {})
    s.setup()
    # the set-up runs the pipeline's gen too; each must be traced on its own side
    s.run(wl.setup + s.pipeline(), files=wl.setup_files, trace=True,
          timed_from=len(wl.setup))
    spans = json.loads((tmp_path / "spans.json").read_text())
    commands = {part: [sp[0] for sp in spans[part] if sp[0].startswith("cli.")]
                for part in spans}
    assert commands["setup"] == [f"cli.{argv[0]}" for argv in wl.setup]
    assert commands["pipeline"] == [f"cli.{argv[0]}" for argv in s.pipeline()]
    assert all(sp[3] is None or sp[3] < i for i, sp in enumerate(spans["pipeline"]))


def test_golden_drift_is_counted_not_failed(tmp_path):
    wl = workloads.make("measure-polygons", 0, "tiny")
    s = run.Session(wl, tmp_path, {"vol.json": "0" * 64})
    s.setup()
    s.run(s.pipeline())
    assert s.failures == []
    assert s.drifted == {"vol.json"} and s.compared == {"vol.json"}


def test_seed_rotates_polygons_only():
    a, b = workloads.make("collar-32gon", 0), workloads.make("collar-32gon", 1)
    assert a.vertices != b.vertices
    assert workloads.make("strain-square", 0).vertices == workloads.SQUARE
    # a rotation keeps the centre and every circumradius
    for v0, v1 in zip(a.vertices, b.vertices):
        assert abs((v0[0] ** 2 + v0[1] ** 2) - (v1[0] ** 2 + v1[1] ** 2)) < 1e-12


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench_cli("--workload", "strain-square", "--seed", "0", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
