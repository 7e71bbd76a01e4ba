"""Every benchmark workload at seed 0 reproduces its golden output digests.

Runs each workload's set-up and pipeline once, through the benchmark's own
``run.Session`` in a temporary directory, and compares every file the
commands write with ``perfbench/golden/digests.json``.  Reads ``perfbench/``
and writes nothing there.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_matches_golden_digests(name, tmp_path):
    golden = json.loads(run.DIGESTS.read_text())[name][str(SEED)]
    s = run.Session(workloads.make(name, SEED), tmp_path, golden)
    s.setup()
    s.run(s.pipeline())
    assert s.failures == []
    assert s.drifted == set()
    assert s.compared == set(golden)
