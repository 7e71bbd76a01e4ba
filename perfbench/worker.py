"""One fresh process that runs a list of ``alexkit`` CLI commands in process.

Usage: ``python3 perfbench/worker.py JOB.json``.  The job names a work
directory, the files to write there, the commands, and whether to trace.
Commands run through ``alexkit.cli.main(argv)`` with the work directory as
the current directory, so reports hold only relative paths and repeat byte
for byte.  The last line of standard output is a JSON summary: wall time of
the commands, CPU time, peak RSS of this process, the speed probes timed
before and after the commands, and per command its exit code or exception.
A traced job also writes its spans to ``spans.json``, those of the commands
before ``timed_from`` (the set-up) apart from those of the timed ones.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def probe_seconds() -> float:
    """Wall time of a fixed computation, a probe of the host's current speed.

    On a shared host the speed of a core drifts by tens of percent over
    minutes.  The benchmark divides each time by this probe, taken in the
    same process right before and right after the measured work, which
    cancels most of that drift.  Its mix (an interpreted loop, JSON of
    floats, numpy passes over a few MB) is that of the pipelines, and it uses
    nothing from alexkit, so no change to the program moves it.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    json.loads(json.dumps([i * 1.1 for i in range(150_000)]))
    a = np.arange(300_000, dtype=float)
    for _ in range(10):
        b = np.sqrt(a * a + 1.0)
        a = np.maximum(a, b) - b
    return time.perf_counter() - t0


def run_job(job: dict) -> dict:
    os.chdir(job["workdir"])
    # the report config embeds the --threads default, which reads this variable
    os.environ.pop("ALEXKIT_THREADS", None)
    # before the import, so that its few MB never set the peak RSS
    probes = [probe_seconds()]
    from alexkit import cli

    tracer = None
    missing = []
    if job.get("trace"):
        import tracing

        tracer = tracing.Tracer()
        missing = tracing.install(tracer)

    for name, text in job.get("files", {}).items():
        Path(name).write_text(text)
    results = []
    setup_spans = []
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    for i, argv in enumerate(job["commands"]):
        if i == job.get("timed_from", 0):
            cpu0, t0 = cpu_seconds(), time.perf_counter()
            if tracer is not None:  # no span is open between commands
                setup_spans, tracer.spans = tracer.spans, []
        entry = {"command": argv[0]}
        try:
            if tracer is None:
                entry["rc"] = cli.main(argv)
            else:
                with tracer.span(f"cli.{argv[0]}"):
                    entry["rc"] = cli.main(argv)
        except SystemExit as e:  # argparse refusing an argument, or an explicit exit
            entry["rc"] = 0 if e.code is None else e.code
        except Exception:  # a crash is a failed command, reported with its traceback
            entry["rc"] = None
            entry["error"] = traceback.format_exc(limit=-3)
        results.append(entry)
    wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        Path("spans.json").write_text(json.dumps({"setup": setup_spans,
                                                  "pipeline": tracer.spans}))
    probes.append(probe_seconds())
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_rss_mb, "probes_s": probes,
            "commands": results, "untraced_layers": missing}


if __name__ == "__main__":
    print(json.dumps(run_job(json.loads(Path(sys.argv[1]).read_text()))))
