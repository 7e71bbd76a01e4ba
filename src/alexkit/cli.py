"""Command-line front end: reproducible experiment pipelines over space files.

Exit codes: 0 success, 2 refusal (a precondition was not met), 1 internal
error.  Every report embeds the resolved configuration, the package version
and a schema version; identical configurations produce byte-identical
reports (no timestamps, sorted keys, fixed float formatting).  Random seeds
default to a fixed constant; the only stochastic step (triangle-inequality
spot checks on large spaces) is seeded from it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, models
from .charts import (build_chart, intrinsic_shortest_path, metric_comparison,
                     openness_measure, quasigeodesic_check)
from .errors import KitError, Refusal
from .flow import FlowConfig, extremal_invariance_test, gradient_curve
from .glue import build_projection, projection_quality, volume_convergence_experiment
from .io import dumps_stable, load_space, save_space
from .space import (Curve, calibration_constant, hausdorff_measure_estimate,
                    packing_dimension_estimate, validate)
from .strainers import classify, find_strainer, resolve_search_radius, strainer_number

DEFAULT_SEED = 20260809
MAX_DELTA = 0.3
MAX_ELL = 1.0


def _check_param_ranges(args):
    for name in ("delta", "ell", "eps", "h", "r", "rho", "radius", "length", "side",
                 "search_radius", "witness_radius", "step"):
        value = getattr(args, name, None)
        if value is not None and not 0 < value < math.inf:  # nor NaN, nor inf
            raise Refusal(f"parameter {name} must be positive and finite, got {value}")
    if getattr(args, "delta", None) is not None and args.delta > MAX_DELTA:
        raise Refusal(f"delta must be <= {MAX_DELTA}, got {args.delta}")
    if getattr(args, "ell", None) is not None and args.ell > MAX_ELL:
        raise Refusal(f"ell must be <= {MAX_ELL}, got {args.ell}")


def _report_base(args, command):
    cfg = {k: v for k, v in sorted(vars(args).items())
           if k not in ("func",) and not k.startswith("_")}
    return {"schema_version": 1, "version": __version__,
            "command": command, "config": cfg}


def _load(args):
    space = load_space(args.space)
    rep = validate(space, seed=getattr(args, "seed", DEFAULT_SEED))
    if not rep.passed:
        raise Refusal(f"space file fails validation: "
                      f"{[c.name for c in rep.failures()]}")
    return space


def _subset(space, name):
    if name == "all" and "all" not in space.subsets:
        return space.all_points_subset()
    if name not in space.subsets:
        raise Refusal(f"space has no subset named {name!r}; "
                      f"available: {sorted(space.subsets)}")
    return space.subsets[name]


def _emit(args, report):
    text = dumps_stable(report)
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _write_csv(path, rows, columns):
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join("" if row.get(c) is None else repr(row.get(c))
                              if isinstance(row.get(c), float) else str(row.get(c))
                              for c in columns))
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen(args):
    kind = args.kind
    if kind == "polygon":
        verts = json.loads(args.vertices)
        space, _ = models.gen_convex_polygon(verts, args.h, name=args.name,
                                             boundary_mode=args.boundary_mode,
                                             lattice=args.lattice)
    elif kind == "regular-polygon":
        space, _ = models.gen_regular_polygon(args.n, args.h, name=args.name,
                                              boundary_mode=args.boundary_mode,
                                              lattice=args.lattice)
    elif kind == "segment":
        space, _ = models.gen_segment(args.length, args.h, name=args.name)
    elif kind == "cone":
        space, _ = models.gen_cone(args.angle, args.radius, args.h, name=args.name)
    elif kind == "pillow":
        space, _ = models.gen_pillow(args.side, args.h, name=args.name)
    elif kind == "suspension":
        base = load_space(args.base)
        space, _ = models.gen_spherical_suspension(base, args.h, name=args.name)
    else:
        raise Refusal(f"unknown generator {kind!r}")
    save_space(space, args.out)
    return 0


def cmd_validate(args):
    space = load_space(args.space)
    rep = validate(space, seed=args.seed)
    report = _report_base(args, "validate")
    report["report"] = rep.to_dict()
    _emit(args, report)
    return 0 if rep.passed else 2


def cmd_strain(args):
    space = _load(args)
    subset = _subset(space, args.subset)
    mask = classify(subset, args.k, args.delta, args.ell, args.search_radius)
    report = _report_base(args, "strain")
    report["mask"] = mask.to_dict()
    report["member_count"] = int(mask.member_ids.size)
    _emit(args, report)
    return 0


def cmd_chart(args):
    space = _load(args)
    subset = _subset(space, args.subset)
    sr = resolve_search_radius(space, args.ell, args.search_radius)
    strainer = find_strainer(space, args.base, args.k, args.delta, args.ell, sr)
    if strainer is None:
        raise Refusal(f"no ({args.k}, {args.delta})-strainer found at point "
                      f"{args.base} (heuristic search)")
    chart = build_chart(subset, strainer, radius=args.radius)
    report = _report_base(args, "chart")
    report["chart"] = chart.to_dict()
    report["openness"] = openness_measure(chart)
    _emit(args, report)
    return 0


def cmd_qcheck(args):
    space = _load(args)
    path_ids = json.loads(Path(args.path).read_text())
    if isinstance(path_ids, dict):
        path_ids = path_ids["points"]
    path_ids = space.check_ids(path_ids)
    gaps = space.dist[path_ids[:-1], path_ids[1:]] if len(path_ids) > 1 else [0]
    curve = Curve(points=path_ids, step=float(np.median(gaps)))
    out = quasigeodesic_check(space, curve, args.viewpoint)
    report = _report_base(args, "qcheck")
    report["result"] = out
    _emit(args, report)
    return 0


def cmd_flow(args):
    space = _load(args)
    step = args.step or 3.0 * space.require_resolution()
    cfg = FlowConfig(step=step, witness_radius=args.witness_radius or 2 * step,
                     max_steps=args.max_steps,
                     stop_threshold=args.stop_threshold)
    report = _report_base(args, "flow")
    if args.invariance:
        subset = _subset(space, args.subset)
        starts = subset.indices[:: max(1, subset.size // 20)]
        report["result"] = extremal_invariance_test(subset, args.toward_dist,
                                                    starts, cfg)
    else:
        curve = gradient_curve(space, args.toward_dist, getattr(args, "from"), cfg)
        report["curve"] = {"points": curve.points.tolist(), "kind": curve.kind,
                           "meta": curve.meta}
    _emit(args, report)
    return 0


def cmd_dim(args):
    space = _load(args)
    subset = _subset(space, args.subset)
    number = strainer_number(subset, args.delta, args.ell, args.search_radius)
    report = _report_base(args, "dim")
    report["strainer_number"] = number
    if args.eps_grid:
        grid = [float(e) for e in args.eps_grid.split(",")]
        report["packing_dimension"] = packing_dimension_estimate(
            space, subset.indices, grid)
    _emit(args, report)
    return 0


def cmd_vol(args):
    space = _load(args)
    subset = _subset(space, args.subset)
    report = _report_base(args, "vol")
    report["estimate"] = hausdorff_measure_estimate(subset, args.m, args.eps,
                                                    args.metric)
    report["calibration"] = calibration_constant(args.m)
    _emit(args, report)
    return 0


def cmd_glue(args):
    space = _load(args)
    subset = _subset(space, args.subset)
    gmap = build_projection(subset, args.m, args.delta, args.ell, args.r,
                            rho=args.rho)
    quality = projection_quality(gmap)
    report = _report_base(args, "glue")
    report["quality"] = quality
    report["net_size"] = int(gmap.net.size)
    report["warnings"] = gmap.warnings
    if args.full:
        report["map"] = gmap.to_dict()
    _emit(args, report)
    return 0


def cmd_converge(args):
    spec = json.loads(Path(args.family).read_text())
    members = []
    for mem in spec["members"]:
        gen = getattr(models, "gen_" + mem["generator"].replace("-", "_"), None)
        if gen is None:
            raise Refusal(f"unknown generator {mem['generator']!r} in family")
        try:
            space, ann = gen(**mem.get("params", {}))
        except TypeError as e:  # a parameter the generator does not take, or lacks
            raise Refusal(f"family member {mem.get('label', mem['generator'])!r}: "
                          f"bad generator parameters: {e}") from None
        sub_name = mem.get("subset", "boundary")
        subset = _subset(space, sub_name)
        info = ann.subsets.get(sub_name)
        members.append({"label": mem.get("label", space.name), "subset": subset,
                        "exact": mem.get("exact",
                                         info.exact_measure if info else None)})
    out = volume_convergence_experiment(members, args.m, args.eps,
                                        limit=spec.get("limit"))
    report = _report_base(args, "converge")
    report["result"] = out
    _emit(args, report)
    if args.csv:
        cols = ["label", "estimate_extrinsic", "estimate_intrinsic", "exact",
                "deviation_extrinsic", "deviation_intrinsic"]
        _write_csv(args.csv, out["table"], cols)
    return 0


def cmd_run(args):
    cfg = json.loads(Path(args.config).read_text())
    if "command" not in cfg:
        raise Refusal("config missing required key 'command'")
    command = cfg.pop("command")
    argv = [command]
    for key, value in sorted(cfg.items()):
        if isinstance(value, bool):
            if value:
                argv.append(f"--{key.replace('_', '-')}")
        elif key == "kind":
            argv.append(str(value))
        else:
            argv.extend([f"--{key.replace('_', '-')}", str(value)])
    return main(argv)


# ---------------------------------------------------------------------------

def _missing_option(args) -> str | None:
    """Usage error for an option this generator kind or flow mode needs."""
    if args.command == "gen":
        mode = f"gen {args.kind}"
        need = {"polygon": "vertices", "regular-polygon": "n",
                "suspension": "base"}.get(args.kind)
    elif args.command == "flow" and not args.invariance:
        mode, need = "flow without --invariance", "from"
    else:
        return None
    if need and getattr(args, need) is None:
        return f"{mode} requires --{need}"
    return None


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="alexkit",
        description="comparison geometry experiments on finite sampled metric spaces")
    ap.add_argument("--threads", type=int,
                    default=int(os.environ.get("ALEXKIT_THREADS", "0")),
                    help="worker cap; results never depend on it "
                         "(current implementation is single-process)")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, space=True):
        if space:
            p.add_argument("--space", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    g = sub.add_parser("gen", help="generate a model space file")
    g.add_argument("kind", choices=["polygon", "regular-polygon", "segment",
                                    "cone", "pillow", "suspension"])
    g.add_argument("--h", type=float, required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--name", default=None)
    g.add_argument("--vertices", default=None, help="JSON list for 'polygon'")
    g.add_argument("--n", type=int, default=None, help="regular-polygon order")
    g.add_argument("--length", type=float, default=1.0)
    g.add_argument("--angle", type=float, default=math.pi / 2)
    g.add_argument("--radius", type=float, default=1.0)
    g.add_argument("--side", type=float, default=1.0)
    g.add_argument("--base", default=None, help="base space file for 'suspension'")
    g.add_argument("--boundary-mode", default="per-edge",
                   choices=["per-edge", "loop-uniform"])
    g.add_argument("--lattice", default="triangular",
                   choices=["triangular", "square"])
    g.set_defaults(func=cmd_gen)

    v = sub.add_parser("validate", help="check metric-space invariants")
    common(v)
    v.set_defaults(func=cmd_validate)

    s = sub.add_parser("strain", help="classify strained points of a subset")
    common(s)
    s.add_argument("--subset", required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--delta", type=float, required=True)
    s.add_argument("--ell", type=float, required=True)
    s.add_argument("--search-radius", type=float, default=None)
    s.set_defaults(func=cmd_strain)

    c = sub.add_parser("chart", help="build a strainer distance-map chart")
    common(c)
    c.add_argument("--subset", required=True)
    c.add_argument("--base", type=int, required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--delta", type=float, required=True)
    c.add_argument("--ell", type=float, default=0.1)
    c.add_argument("--radius", type=float, default=None)
    c.add_argument("--search-radius", type=float, default=None)
    c.add_argument("--metric", default="extrinsic",
                   choices=["extrinsic", "intrinsic"])
    c.set_defaults(func=cmd_chart)

    q = sub.add_parser("qcheck", help="comparison-angle monotonicity of a path")
    common(q)
    q.add_argument("--path", required=True, help="JSON file with point ids")
    q.add_argument("--viewpoint", type=int, required=True)
    q.set_defaults(func=cmd_qcheck)

    f = sub.add_parser("flow", help="discrete gradient curve of a distance function")
    common(f)
    f.add_argument("--from", dest="from", type=int, default=None)
    f.add_argument("--toward-dist", type=int, required=True,
                   help="center q of the distance function dist_q")
    f.add_argument("--subset", default=None)
    f.add_argument("--invariance", action="store_true")
    f.add_argument("--step", type=float, default=None)
    f.add_argument("--witness-radius", type=float, default=None)
    f.add_argument("--max-steps", type=int, default=100)
    f.add_argument("--stop-threshold", type=float, default=0.1)
    f.set_defaults(func=cmd_flow)

    d = sub.add_parser("dim", help="strainer number and packing dimension")
    common(d)
    d.add_argument("--subset", required=True)
    d.add_argument("--delta", type=float, required=True)
    d.add_argument("--ell", type=float, default=0.1)
    d.add_argument("--search-radius", type=float, default=None)
    d.add_argument("--eps-grid", default=None, help="comma-separated eps values")
    d.set_defaults(func=cmd_dim)

    vol = sub.add_parser("vol", help="packing-based Hausdorff measure estimate")
    common(vol)
    vol.add_argument("--subset", required=True)
    vol.add_argument("--m", type=int, required=True)
    vol.add_argument("--eps", type=float, required=True)
    vol.add_argument("--metric", default="extrinsic",
                     choices=["extrinsic", "intrinsic"])
    vol.set_defaults(func=cmd_vol)

    gl = sub.add_parser("glue", help="collar-to-subset projection via chart gluing")
    common(gl)
    gl.add_argument("--subset", required=True)
    gl.add_argument("--m", type=int, default=1)
    gl.add_argument("--delta", type=float, required=True)
    gl.add_argument("--ell", type=float, required=True)
    gl.add_argument("--r", type=float, required=True)
    gl.add_argument("--rho", type=float, default=None)
    gl.add_argument("--full", action="store_true", help="embed the full map")
    gl.set_defaults(func=cmd_glue)

    cv = sub.add_parser("converge", help="volume-convergence experiment")
    cv.add_argument("--family", required=True, help="family spec JSON")
    cv.add_argument("--m", type=int, required=True)
    cv.add_argument("--eps", type=float, required=True)
    cv.add_argument("--csv", default=None)
    cv.add_argument("--out", default=None)
    cv.add_argument("--seed", type=int, default=DEFAULT_SEED)
    cv.set_defaults(func=cmd_converge)

    r = sub.add_parser("run", help="run a command described by a config file")
    r.add_argument("--config", required=True)
    r.set_defaults(func=cmd_run)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        missing = _missing_option(args)
        if missing:
            ap.error(missing)
        _check_param_ranges(args)
        return args.func(args)
    except Refusal as e:
        print(f"refusal: {e}", file=sys.stderr)
        return 2
    except KitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
