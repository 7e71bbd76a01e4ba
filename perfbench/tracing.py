"""Spans around the public functions of each ``alexkit`` layer.

The program is not changed: :func:`install` replaces each layer function at
every module name that binds it (``cli.load_space``, ``strainers.find_strainer``
...) with a wrapper that records a span ``[name, start, end, parent, attrs]``.
Spans stay in memory until the run ends.  ``attrs`` carries the counts taken
at the same boundary (strainer pool size, comparison triples, file sizes);
they are computed after the span closes, so their cost lands in the caller's
self time and in the measured tracing overhead, not in the layer's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, name, fn, count=None):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if count is not None:
                rec[4] = count(sig.bind(*args, **kwargs).arguments, out)
            return out

        return traced


# --- counts taken at layer boundaries ---------------------------------------

def _pool(a, out):
    dp = a["space"].dist[int(a["p"])]
    pool = int(((dp > a["ell"]) & (dp < a["search_radius"])).sum())
    return {"pool": pool, "found": out is not None}


def _triples(a, out):
    return {"triples": int(out.size) if hasattr(out, "size") else 1}


def _file_mb(a, out):
    attrs = {"mb": os.path.getsize(a["path"]) / 2**20}
    space = out if out is not None else a["space"]
    attrs["n"] = int(space.n_points)
    return attrs


def _gen_n(a, out):
    space = out[0] if isinstance(out, tuple) else out  # (Space, annotation) or Space
    return {"n": int(space.n_points)}


# metric name -> (module, function, modules that bind it by that name, count)
LAYERS = {
    "strainers.find_strainer": ("strainers", "find_strainer", ("strainers", "cli"), _pool),
    "strainers.classify": ("strainers", "classify", ("strainers", "glue", "cli"), None),
    "strainers.strainer_number": ("strainers", "strainer_number", ("cli",), None),
    "kplane.comparison_angles_array": ("kplane", "comparison_angles_array",
                                       ("strainers", "charts", "flow", "space"), _triples),
    "io.load_space": ("io", "load_space", ("cli",), _file_mb),
    "io.save_space": ("io", "save_space", ("cli",), _file_mb),
    "space.validate": ("space", "validate", ("cli", "models"), None),
    "space.intrinsic_metric": ("space", "intrinsic_metric", ("space",), None),
    "space.hausdorff_measure_estimate": ("space", "hausdorff_measure_estimate",
                                         ("cli", "glue"), None),
    "space.calibration_constant": ("space", "calibration_constant",
                                   ("cli", "glue", "space"), None),
    "glue.volume_convergence_experiment": ("glue", "volume_convergence_experiment",
                                           ("cli",), None),
    "glue.build_projection": ("glue", "build_projection", ("cli",), None),
    "glue.discrete_net": ("glue", "discrete_net", ("glue",), None),
    "glue.projection_quality": ("glue", "projection_quality", ("cli",), None),
    "charts.build_chart": ("charts", "build_chart", ("cli",), None),
    "charts.openness_measure": ("charts", "openness_measure", ("cli",), None),
    "flow.extremal_invariance_test": ("flow", "extremal_invariance_test", ("cli",), None),
    "flow.gradient_curve": ("flow", "gradient_curve", ("cli", "flow"), None),
}


def _module(name):
    return importlib.import_module(f"alexkit.{name}")


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer function; returns the names that could not be found."""
    missing = []
    for metric, (home, fname, binders, count) in LAYERS.items():
        fn = getattr(_module(home), fname, None)
        if fn is None:
            missing.append(metric)
            continue
        wrapped = tracer.wrap(metric, fn, count)
        for binder in binders:
            if getattr(_module(binder), fname, None) is fn:
                setattr(_module(binder), fname, wrapped)
    models = _module("models")
    for fname in dir(models):
        if fname.startswith("gen_") and callable(getattr(models, fname)):
            setattr(models, fname, tracer.wrap("models.gen", getattr(models, fname), _gen_n))
    return missing


# --- per-layer metrics from spans --------------------------------------------

COMMANDS = ("gen", "validate", "dim", "strain", "glue", "chart", "flow", "vol", "converge")

# name -> unit, in the order they are reported
PER_LAYER = {
    "strainers.find_strainer.calls": "count",
    "strainers.find_strainer.self_s": "s",
    "strainers.find_strainer.found": "count",
    "strainers.find_strainer.found_ratio": "ratio",
    "strainers.find_strainer.pool_mean": "count",
    "strainers.find_strainer.pool_max": "count",
    "strainers.classify.calls": "count",
    "strainers.classify.s": "s",
    "strainers.strainer_number.s": "s",
    "kplane.comparison_angles_array.calls": "count",
    "kplane.comparison_angles_array.s": "s",
    "kplane.comparison_angles_array.triples": "count",
    "io.load_space.calls": "count",
    "io.load_space.s": "s",
    "io.load_space.mb": "MiB",
    "io.save_space.s": "s",
    "io.save_space.mb": "MiB",
    "models.gen.s": "s",
    "setup.models.gen.s": "s",
    "setup.io.save_space.s": "s",
    "models.dist_matrix_mb": "MiB",
    "proc.rss_over_matrix": "ratio",
    "space.validate.s": "s",
    "space.intrinsic_metric.s": "s",
    "space.hausdorff_measure_estimate.s": "s",
    "space.calibration_constant.s": "s",
    "glue.volume_convergence_experiment.self_s": "s",
    "glue.build_projection.self_s": "s",
    "glue.discrete_net.s": "s",
    "glue.projection_quality.s": "s",
    "charts.build_chart.s": "s",
    "charts.openness_measure.s": "s",
    "flow.extremal_invariance_test.s": "s",
    "flow.gradient_curve.calls": "count",
    **{f"cli.{c}.s": "s" for c in COMMANDS},
    "proc.wall_raw_s": "s",
    "proc.setup_raw_s": "s",
    "host.probe_s": "s",
    "host.probe_ratio": "ratio",
    "proc.cpu_s": "s",
    "trace.overhead_s": "s",
    "outputs.drifted": "count",
    "outputs.compared": "count",
    "error_rate": "fraction",
}


def span_metrics(spans) -> dict:
    """Calls, inclusive and self time, and summed counts per span name.

    Inclusive time counts only spans not nested in a span of the same name,
    so recursion and wrappers calling wrappers are not counted twice.  Self
    time is a span's duration minus that of its direct children.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        m = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "attrs": []})
        m["calls"] += 1
        m["self_s"] += (end - start) - child[i]
        up = parent
        while up is not None and spans[up][0] != name:
            up = spans[up][3]
        if up is None:
            m["s"] += end - start
        if attrs:
            m["attrs"].append(attrs)
    return out


def layer_metrics(spans) -> dict:
    """The per-layer values (without units) computable from the spans alone."""
    agg = span_metrics(spans)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "attrs": []}

    def get(name):
        return agg.get(name, empty)

    def total(name, key):
        return sum(a.get(key, 0) for a in get(name)["attrs"])

    fs = get("strainers.find_strainer")
    pools = [a["pool"] for a in fs["attrs"]]
    found = sum(a["found"] for a in fs["attrs"])
    sizes = [a["n"] for name in ("models.gen", "io.load_space", "io.save_space")
             for a in get(name)["attrs"]]
    values = {
        "strainers.find_strainer.calls": fs["calls"],
        "strainers.find_strainer.self_s": fs["self_s"],
        "strainers.find_strainer.found": found,
        "strainers.find_strainer.found_ratio": found / fs["calls"] if fs["calls"] else 0.0,
        "strainers.find_strainer.pool_mean": sum(pools) / len(pools) if pools else 0.0,
        "strainers.find_strainer.pool_max": max(pools, default=0),
        "strainers.classify.calls": get("strainers.classify")["calls"],
        "strainers.classify.s": get("strainers.classify")["s"],
        "strainers.strainer_number.s": get("strainers.strainer_number")["s"],
        "kplane.comparison_angles_array.calls": get("kplane.comparison_angles_array")["calls"],
        "kplane.comparison_angles_array.s": get("kplane.comparison_angles_array")["s"],
        "kplane.comparison_angles_array.triples": total("kplane.comparison_angles_array",
                                                        "triples"),
        "io.load_space.calls": get("io.load_space")["calls"],
        "io.load_space.s": get("io.load_space")["s"],
        "io.load_space.mb": total("io.load_space", "mb"),
        "io.save_space.s": get("io.save_space")["s"],
        "io.save_space.mb": total("io.save_space", "mb"),
        "models.gen.s": get("models.gen")["s"],
        # computed, not measured: one dense float64 N x N matrix of the largest space
        "models.dist_matrix_mb": max(sizes, default=0) ** 2 * 8 / 2**20,
        "glue.volume_convergence_experiment.self_s":
            get("glue.volume_convergence_experiment")["self_s"],
        "glue.build_projection.self_s": get("glue.build_projection")["self_s"],
        "flow.gradient_curve.calls": get("flow.gradient_curve")["calls"],
    }
    for name in ("space.validate", "space.intrinsic_metric", "space.hausdorff_measure_estimate",
                 "space.calibration_constant", "glue.discrete_net", "glue.projection_quality",
                 "charts.build_chart", "charts.openness_measure",
                 "flow.extremal_invariance_test"):
        values[f"{name}.s"] = get(name)["s"]
    for c in COMMANDS:
        values[f"cli.{c}.s"] = get(f"cli.{c}")["s"]
    return values
