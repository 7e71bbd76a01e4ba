"""Benchmark of ``alexkit`` CLI pipelines, with oracle-checked outputs.

Usage::

    python3 perfbench/run.py --workload strain-square --seed 0 --seconds 35 --trace 0

Run from anywhere inside a source checkout; ``--workload all`` runs every
workload.  Each workload (see ``workloads.py``) is set up several times, each
time in a fresh process (interpreter start, ``import alexkit`` and writing the
input files), then its timed pipeline runs over and over, each time in a fresh
process, until ``--seconds`` have passed.  Every command's exit code and
report is checked against the workload's oracles, and every output file is
compared with the golden digests in ``golden/digests.json``; a difference is
counted as drift, not as a failure.

With ``--trace 0`` the result holds the end-to-end metrics: ``wall_s``
(median pipeline wall time), ``setup_s`` (median set-up time) and
``peak_rss_mb`` (median peak RSS of the pipeline process).  Both times are
normalised for the host's speed drift: each is multiplied by ``REF_S`` over
a speed probe timed in the same process before and after the measured work
(``worker.probe_seconds``), so they read as seconds on an idle host.  The
raw times are on the summary line, in the metadata line and among the
per-layer metrics.  With ``--trace 1`` half the time goes to untraced runs
and half to runs with spans around every layer function (``tracing.py``),
and the result holds the per-layer metrics, taken from the spans of the
timed pipeline only; ``setup.*`` metrics come from the set-up commands run
before it in the same traced process.  The last line of standard
output is the result as JSON; the line before it holds the run's metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPS = 3
RUN_TIMEOUT_S = 170  # a whole run, set-up included, must end within 180 s
REF_S = 0.125  # about worker.probe_seconds() on an idle host; sets the scale only
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
DIGESTS = HERE / "golden" / "digests.json"


class BenchError(Exception):
    pass


def out_file(argv):
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Session:
    """One workload at one seed in its own work directory, with its tallies."""

    def __init__(self, wl, workdir: Path, golden: dict):
        self.wl = wl
        self.workdir = workdir
        self.golden = golden
        self.attempted = 0
        self.failures = []
        self.drifted = set()
        self.compared = set()
        self.digests = {}
        self.facts = None
        self.space_n = None
        self.deadline = time.monotonic() + RUN_TIMEOUT_S

    def read(self, name):
        return json.loads((self.workdir / name).read_text())

    def run(self, commands, files=None, trace=False, timed_from=0) -> dict:
        """Run the commands in a fresh worker process and check what they wrote.

        Adds to the worker's summary the wall time of the whole process
        without its two speed probes (``process_s``), their mean
        (``probe_s``), and the second over the first (``probe_ratio``), which
        shows whether what the commands leave behind slows the probe.
        """
        job = self.workdir / "job.json"
        job.write_text(json.dumps({"workdir": str(self.workdir), "commands": commands,
                                   "files": files or {}, "trace": trace,
                                   "timed_from": timed_from}))
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"run took longer than {RUN_TIMEOUT_S} s")
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job)],
                              capture_output=True, text=True, timeout=left)
        elapsed = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        res = json.loads(lines[-1])
        res["process_s"] = elapsed - sum(res["probes_s"])
        res["probe_s"] = statistics.mean(res["probes_s"])
        res["probe_ratio"] = res["probes_s"][1] / res["probes_s"][0]
        self.tally(res["commands"], commands, proc.stderr)
        return res

    def tally(self, entries, commands, stderr=""):
        """Count each command as attempted, and as failed if a check fails."""
        for entry, argv in zip(entries, commands):
            self.attempted += 1
            problem = self.check(entry, argv, stderr)
            if problem is not None:
                self.failures.append(f"{argv[0]}: {problem}")

    @property
    def error_rate(self) -> float:
        return len(self.failures) / self.attempted

    def check(self, entry, argv, stderr):
        """Exit code, golden digest and oracle of one command; None when right."""
        if entry["rc"] != 0:
            return entry.get("error") or f"exit code {entry['rc']}: {stderr[-500:]}"
        out = out_file(argv)
        if out is None:
            return None
        self.digests[out] = digest(self.workdir / out)
        if out in self.golden:
            self.compared.add(out)
            if self.golden[out] != self.digests[out]:
                self.drifted.add(out)
        if out == self.wl.space_file:
            return None
        try:
            return self.wl.check(argv[0], self.read(out), self.load_facts())
        except (KeyError, TypeError, ValueError) as e:
            return f"malformed {out}: {e!r}"

    def setup(self) -> dict:
        before = len(self.failures)
        res = self.run(self.wl.setup, files=self.wl.setup_files)
        if len(self.failures) > before:
            raise BenchError(f"set-up failed: {self.failures[before:]}")
        return res

    def load_facts(self):
        """The workload's facts, read once from the generated space file."""
        if self.facts is None:
            space = self.read(self.wl.space_file)
            self.facts = self.wl.facts(space)
            self.space_n = len(space["points"])
        return self.facts

    def pipeline(self):
        return self.wl.pipeline(self.load_facts() if self.wl.setup else None)

    def space_sizes(self):
        """N, file size and computed dense-matrix size of the space file."""
        self.load_facts()
        n = self.space_n
        return {"file": self.wl.space_file, "n": n,
                "file_mb": (self.workdir / self.wl.space_file).stat().st_size / 2**20,
                "matrix_mb_computed": n * n * 8 / 2**20}


@contextmanager
def work_directory(name):
    """A scratch directory inside the checkout, removed afterwards."""
    path = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            path.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def versions() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            sha = proc.stdout.strip() or None
        except OSError:
            pass  # no git on this host
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "alexkit").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    out = {"git_sha": sha, "src_sha256": src.hexdigest(), "nproc": os.cpu_count(),
           "python": sys.version.split()[0]}
    for pkg in ("numpy", "scipy"):
        out[pkg] = metadata.version(pkg)
    return out


def normalised(res, key):
    """A time from ``res`` in seconds at the probe's idle-host speed."""
    return res[key] * REF_S / res["probe_s"]


def bench(name, seed, seconds, trace, size="bench"):
    """Run one workload; returns (result, metadata, error_rate)."""
    wl = workloads.make(name, seed, size)
    golden = {}
    if size == "bench" and DIGESTS.exists():
        golden = json.loads(DIGESTS.read_text()).get(name, {}).get(str(seed), {})
    with work_directory(name) as workdir:
        s = Session(wl, workdir, golden)
        setups = [s.setup()]
        commands = s.pipeline()

        # the other set-ups are spread over the run, so that their median
        # and the pipeline's see the same host load
        t0 = time.perf_counter()
        budget = seconds / 2 if trace else seconds
        setup_reps = 1 if trace else SETUP_REPS
        reps = []
        while not reps or time.perf_counter() - t0 < budget:
            if len(setups) * budget < setup_reps * (time.perf_counter() - t0):
                setups.append(s.setup())
            reps.append(s.run(commands))
        while len(setups) < setup_reps:
            setups.append(s.setup())
        traced = []
        while trace and (not traced or time.perf_counter() - t0 < seconds):
            res = s.run(wl.setup + commands, files=wl.setup_files, trace=True,
                        timed_from=len(wl.setup))
            res["spans"] = json.loads((workdir / "spans.json").read_text())
            traced.append(res)

        median = lambda key, rs: statistics.median(r[key] for r in rs)  # noqa: E731
        meta = {"workload": name, "seed": seed, "size": size, "pipeline_runs": len(reps),
                "setup_runs": len(setups), "traced_runs": len(traced),
                "wall_s_raw": [r["wall_s"] for r in reps],
                "setup_s_raw": [r["process_s"] for r in setups],
                "probe_s": [r["probe_s"] for r in reps + setups],
                "probe_ratio": [r["probe_ratio"] for r in reps + setups],
                "spaces": [s.space_sizes()], **versions()}
        if trace:
            pick = sorted(traced, key=lambda r: r["wall_s"])[len(traced) // 2]
            values = tracing.layer_metrics(pick["spans"]["pipeline"])
            in_setup = tracing.layer_metrics(pick["spans"]["setup"])
            matrix_mb = values["models.dist_matrix_mb"]
            values.update({
                "proc.wall_raw_s": median("wall_s", reps),
                "proc.setup_raw_s": median("process_s", setups),
                "host.probe_s": median("probe_s", reps),
                "host.probe_ratio": median("probe_ratio", reps),
                "setup.models.gen.s": in_setup["models.gen.s"],
                "setup.io.save_space.s": in_setup["io.save_space.s"],
                "proc.cpu_s": median("cpu_s", reps),
                "proc.rss_over_matrix":
                    median("peak_rss_mb", reps) / matrix_mb if matrix_mb else 0.0,
                "trace.overhead_s": median("wall_s", traced) - median("wall_s", reps),
                "outputs.drifted": len(s.drifted),
                "outputs.compared": len(s.compared),
                "error_rate": s.error_rate,
            })
            units = tracing.PER_LAYER
            meta["untraced_layers"] = pick["untraced_layers"]
            meta["generated_n"] = [sp[4]["n"] for part in ("setup", "pipeline")
                                   for sp in pick["spans"][part]
                                   if sp[0] == "models.gen" and sp[4]]
        else:
            values = {
                "wall_s": statistics.median(normalised(r, "wall_s") for r in reps),
                "setup_s": statistics.median(normalised(r, "process_s") for r in setups),
                "peak_rss_mb": median("peak_rss_mb", reps),
            }
            units = END_TO_END
        meta["drifted_files"] = sorted(s.drifted)
        meta["failures"] = s.failures[:10]
        result = {"correct": not s.failures, "attempted": s.attempted,
                  "failed": len(s.failures),
                  "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}
        return result, meta, s.error_rate


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=sorted(workloads.PARAMS), default="bench",
                    help="problem size; 'tiny' is for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "alexkit" / "cli.py").is_file():
        print(f"error: no alexkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result, meta, error_rate = bench(name, args.seed, args.seconds, args.trace,
                                             args.size)
        except (BenchError, subprocess.TimeoutExpired) as e:
            print(f"error: {name}: {e}", file=sys.stderr)
            return 1
        for failure in meta["failures"]:
            print(f"FAILED {name}: {failure}", file=sys.stderr)
        shown = "  ".join(f"{k}={v['value']:.4g} {v['unit']}"
                          for k, v in result["metrics"].items() if k in END_TO_END)
        raw = "  ".join(f"{k}={statistics.median(meta[k]):.4g} s"
                        for k in ("wall_s_raw", "setup_s_raw", "probe_s"))
        raw += f"  probe_ratio={statistics.median(meta['probe_ratio']):.4g}"
        print(f"# {name} seed={args.seed}: {shown}  error_rate={error_rate:.4g} fraction "
              f"({result['attempted']} commands; {raw})")
        print(json.dumps({"meta": meta}))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
