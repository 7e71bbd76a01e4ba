"""Every benchmark workload at seed 0 reproduces its golden output digests.

Runs each workload's set-up and pipeline once, through the benchmark's own
``run.Session`` in a temporary directory, and compares every file the
commands write with ``perfbench/golden/digests.json``.  Reads ``perfbench/``
and writes nothing there.

The goldens were recorded when ``gen`` wrote every space file with its
distance matrix.  A polygon file now holds coordinates only (metric type
``euclidean``), so its own digest moves; re-saved with the matrix, it must
reproduce the golden digest byte for byte: the same name, kappa,
resolution, coordinates, subsets, annotations and every distance bit.
"""

import json
import sys
from pathlib import Path

import pytest

from alexkit.io import load_space, save_space

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_matches_golden_digests(name, tmp_path):
    golden = json.loads(run.DIGESTS.read_text())[name][str(SEED)]
    wl = workloads.make(name, SEED)
    s = run.Session(wl, tmp_path, golden)
    s.setup()
    s.run(s.pipeline())
    assert s.failures == []
    assert s.drifted <= {wl.space_file}  # every report byte for byte
    assert s.compared == set(golden)
    space = tmp_path / wl.space_file
    assert json.loads(space.read_text())["metric"] == {"type": "euclidean"}
    save_space(load_space(space), tmp_path / "matrix.json", "matrix")
    assert run.digest(tmp_path / "matrix.json") == golden[wl.space_file]
