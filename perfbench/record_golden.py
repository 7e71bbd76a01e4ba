"""Record the golden outputs of every workload at the current sources.

Usage::

    python3 perfbench/record_golden.py

Runs each workload's set-up and pipeline once per seed 0..GOLDEN_SEEDS-1 and
writes ``golden/digests.json``: the SHA-256 of every file a command wrote,
per workload and seed.  The reports of the default seed are also copied to
``golden/<workload>/`` so a drift can be read as a diff; space files are
kept only as digests, being tens of MB.  Run it only at a commit whose
outputs are known to be right: ``run.py`` counts every later difference in
``outputs.drifted``.
"""

from __future__ import annotations

import json
import shutil

import run
import workloads

GOLDEN_SEEDS = 20


def main() -> int:
    digests = {}
    for name in workloads.WORKLOADS:
        digests[name] = {}
        for seed in range(GOLDEN_SEEDS):
            wl = workloads.make(name, seed)
            with run.work_directory(name) as workdir:
                s = run.Session(wl, workdir, {})
                s.setup()
                s.run(s.pipeline())
                if s.failures:
                    print(f"error: {name} seed {seed}: {s.failures}")
                    return 1
                digests[name][str(seed)] = dict(sorted(s.digests.items()))
                if seed == run.DEFAULT_SEED:
                    dest = run.DIGESTS.parent / name
                    shutil.rmtree(dest, ignore_errors=True)
                    dest.mkdir(parents=True)
                    for out in s.digests:
                        if out != wl.space_file:
                            shutil.copy(workdir / out, dest / out)
            print(f"{name} seed {seed}: {len(s.digests)} outputs", flush=True)
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
