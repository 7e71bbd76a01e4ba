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
import importlib
import json
import math
import sys
from pathlib import Path

from . import __version__, models
from .charts import build_chart, openness_measure, quasigeodesic_check
from .errors import KitError, Refusal
from .flow import FlowConfig, extremal_invariance_test, gradient_curve
from .glue import build_projection, projection_quality, volume_convergence_experiment
from .io import dumps_stable, load_space, save_space
from .space import (Curve, calibration_constant, hausdorff_measure_estimate,
                    packing_dimension_estimate, validate)
from .strainers import (MAX_STRAINER_LENGTH, classify, find_strainer,
                        resolve_search_radius, strainer_number)

# argparse's messages load the locale module when the first parser is built;
# loaded here, the import pays for it and no command does
importlib.import_module("locale")

DEFAULT_SEED = 20260809
MAX_DELTA = 0.3


def _eps_grid(text):
    """The comma-separated ``--eps-grid`` values; a non-number is a refusal."""
    try:
        return [float(e) for e in text.split(",")]
    except ValueError:
        raise Refusal(f"eps_grid must be comma-separated numbers, got {text!r}") from None


def _check_param_ranges(args):
    values = [(name, v) for name, v in vars(args).items() if isinstance(v, float)]
    if getattr(args, "eps_grid", None):
        values += [("eps_grid", e) for e in _eps_grid(args.eps_grid)]
    for name, value in values:
        if not 0 < value < math.inf:  # nor NaN, nor inf
            raise Refusal(f"parameter {name} must be positive and finite, got {value}")
    if getattr(args, "seed", 0) < 0:
        raise Refusal(f"seed must be >= 0, got {args.seed}")
    if getattr(args, "max_steps", 1) < 1:
        raise Refusal(f"max_steps must be >= 1, got {args.max_steps}")
    if getattr(args, "delta", None) is not None and args.delta > MAX_DELTA:
        raise Refusal(f"delta must be <= {MAX_DELTA}, got {args.delta}")
    if getattr(args, "ell", None) is not None and args.ell > MAX_STRAINER_LENGTH:
        raise Refusal(f"ell must be <= {MAX_STRAINER_LENGTH}, got {args.ell}")


def _load(args):
    space = load_space(args.space)
    rep = validate(space, seed=args.seed)
    if not rep["passed"]:
        raise Refusal(f"space file fails validation: "
                      f"{[c['name'] for c in rep['checks'] if not c['passed']]}")
    return space


def _subset(space, name):
    if name == "all" and "all" not in space.subsets:
        return space.all_points_subset()
    if not (isinstance(name, str) and name in space.subsets):
        raise Refusal(f"space has no subset named {name!r}; "
                      f"available: {sorted(space.subsets)}")
    return space.subsets[name]


def _emit(args, command, entries) -> int:
    """Write the report of ``command``: its ``entries`` under the common
    envelope of schema and package versions, the command and its resolved
    configuration.  Returns 0, the exit code of a command that reports."""
    cfg = {k: v for k, v in vars(args).items() if k != "func" and not k.startswith("_")}
    text = dumps_stable({"schema_version": 1, "version": __version__,
                         "command": command, "config": cfg, **entries})
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


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
        try:
            verts = json.loads(args.vertices, parse_int=float)  # a huge integer reads as inf
        except json.JSONDecodeError:
            raise Refusal(f"vertices must be JSON, got {args.vertices!r}") from None
        space = models.gen_convex_polygon(verts, args.h, name=args.name,
                                          boundary_mode=args.boundary_mode,
                                          lattice=args.lattice)
    elif kind == "regular-polygon":
        space = models.gen_regular_polygon(args.n, args.h, name=args.name,
                                           boundary_mode=args.boundary_mode,
                                           lattice=args.lattice)
    elif kind == "segment":
        space = models.gen_segment(args.length, args.h, name=args.name)
    elif kind == "cone":
        space = models.gen_cone(args.angle, args.radius, args.h, name=args.name)
    elif kind == "pillow":
        space = models.gen_pillow(args.side, args.h, name=args.name)
    elif kind == "suspension":
        base = load_space(args.base)
        space = models.gen_spherical_suspension(base, args.h, name=args.name)
    else:
        raise Refusal(f"unknown generator {kind!r}")
    # polygon and segment distances are their coordinates' Euclidean ones: save no matrix
    metric_type = "euclidean" if kind in ("polygon", "regular-polygon", "segment") else "matrix"
    save_space(space, args.out, metric_type)
    return 0


def cmd_validate(args):
    space = load_space(args.space)
    rep = validate(space, seed=args.seed)
    _emit(args, "validate", {"report": rep})
    return 0 if rep["passed"] else 2


def cmd_strain(args):
    space = _load(args)
    subset = _subset(space, args.subset)
    mask = classify(subset, args.k, args.delta, args.ell, args.search_radius)
    return _emit(args, "strain", {"mask": mask.to_dict(),
                                  "member_count": int(mask.member_ids.size)})


def cmd_chart(args):
    space = _load(args)
    subset = _subset(space, args.subset)
    sr = resolve_search_radius(space, args.ell, args.search_radius)
    strainer = find_strainer(space, args.base, args.k, args.delta, args.ell, sr)
    if strainer is None:
        how = "exhaustive over the pool, ell < d < R" if args.k == 1 else "heuristic search"
        raise Refusal(f"no ({args.k}, {args.delta})-strainer found at point {args.base} ({how})")
    chart = build_chart(subset, strainer, radius=args.radius)
    return _emit(args, "chart", {"chart": chart.to_dict(),
                                 "openness": openness_measure(chart)})


def cmd_qcheck(args):
    space = _load(args)
    path_ids = json.loads(Path(args.path).read_text())
    if isinstance(path_ids, dict):
        path_ids = path_ids.get("points")
        if not isinstance(path_ids, list):
            raise Refusal("a path object must hold a 'points' list")
    # step 0: quasigeodesic_check takes the median gap as the step
    curve = Curve(points=space.check_ids(path_ids), step=0.0)
    return _emit(args, "qcheck",
                 {"result": quasigeodesic_check(space, curve, args.viewpoint)})


def cmd_flow(args):
    space = _load(args)
    step = args.step or 3.0 * space.require_resolution()
    cfg = FlowConfig(step=step, witness_radius=args.witness_radius or 2 * step,
                     max_steps=args.max_steps,
                     stop_threshold=args.stop_threshold)
    if args.invariance:
        subset = _subset(space, args.subset)
        starts = subset.indices[:: max(1, subset.size // 20)]
        return _emit(args, "flow", {"result": extremal_invariance_test(
            subset, args.toward_dist, starts, cfg)})
    curve = gradient_curve(space, args.toward_dist, getattr(args, "from"), cfg)
    return _emit(args, "flow", {"curve": {"points": curve.points.tolist(),
                                          "kind": curve.kind, "meta": curve.meta}})


def cmd_dim(args):
    space = _load(args)
    subset = _subset(space, args.subset)
    entries = {"strainer_number": strainer_number(subset, args.delta, args.ell,
                                                  args.search_radius)}
    if args.eps_grid:
        entries["packing_dimension"] = packing_dimension_estimate(
            space, subset.indices, _eps_grid(args.eps_grid))
    return _emit(args, "dim", entries)


def cmd_vol(args):
    space = _load(args)
    subset = _subset(space, args.subset)
    return _emit(args, "vol", {
        "estimate": hausdorff_measure_estimate(subset, args.m, args.eps, args.metric),
        "calibration": calibration_constant(args.m)})


def cmd_glue(args):
    space = _load(args)
    subset = _subset(space, args.subset)
    gmap = build_projection(subset, args.m, args.delta, args.ell, args.r,
                            rho=args.rho)
    entries = {"quality": projection_quality(gmap), "net_size": int(gmap.net.size),
               "warnings": gmap.warnings}
    if args.full:
        entries["map"] = gmap.to_dict()
    return _emit(args, "glue", entries)


def _family_member(mem):
    """One member of a converge family spec, generated by one of the
    generators that take JSON parameters; its exact measure defaults to the
    subset's ``exact_measure`` in the space's annotations."""
    name = mem.get("generator")
    if name not in ("convex-polygon", "regular-polygon", "segment", "cone", "pillow"):
        raise Refusal(f"unknown generator {name!r} in family")
    gen = getattr(models, "gen_" + name.replace("-", "_"))
    try:
        space = gen(**mem.get("params", {}))
    except TypeError as e:  # a parameter the generator does not take, or lacks
        raise Refusal(f"family member {mem.get('label', name)!r}: "
                      f"bad generator parameters: {e}") from None
    subset = _subset(space, mem.get("subset", "boundary"))
    info = space.annotations["subsets"].get(subset.name, {})
    exact = mem.get("exact", info.get("exact_measure"))
    return {"label": mem.get("label", space.name), "subset": subset,
            "exact": _finite_or_null(exact, f"exact measure of {subset.name!r}")}


def _finite_or_null(value, what):
    """``value`` if null or a number a float holds; not a bool, NaN or inf."""
    if value is not None and not (type(value) in (int, float)
                                  and abs(value) <= sys.float_info.max):
        raise Refusal(f"{what} must be null or a finite number, got {value!r}")
    return value


def cmd_converge(args):
    spec = json.loads(Path(args.family).read_text())
    specs = spec.get("members") if isinstance(spec, dict) else None
    if not (isinstance(specs, list) and all(isinstance(mem, dict) for mem in specs)):
        raise Refusal("family must be an object whose members are a list of objects")
    limit = _finite_or_null(spec.get("limit"), "family limit")
    # generated one at a time as the experiment reads them: one space in memory
    members = (_family_member(mem) for mem in specs)
    out = volume_convergence_experiment(members, args.m, args.eps, limit=limit)
    _emit(args, "converge", {"result": out})
    if args.csv:
        cols = ["label", "estimate_extrinsic", "estimate_intrinsic", "exact",
                "deviation_extrinsic", "deviation_intrinsic"]
        _write_csv(args.csv, out["table"], cols)
    return 0


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
    ap.add_argument("--threads", type=int, default=0,
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
    f.add_argument("--max-steps", type=int, default=FlowConfig.max_steps)
    f.add_argument("--stop-threshold", type=float, default=FlowConfig.stop_threshold)
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
    common(cv, space=False)
    cv.add_argument("--family", required=True, help="family spec JSON")
    cv.add_argument("--m", type=int, required=True)
    cv.add_argument("--eps", type=float, required=True)
    cv.add_argument("--csv", default=None)
    cv.set_defaults(func=cmd_converge)

    return ap


def parse_args(argv=None) -> argparse.Namespace:
    """The parsed command line; a usage error exits 2.  The parser is
    dropped on return, so it does not outlive the parse."""
    ap = build_parser()
    args = ap.parse_args(argv)
    missing = _missing_option(args)
    if missing:
        ap.error(missing)
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        _check_param_ranges(args)
        return args.func(args)
    except Refusal as e:
        print(f"refusal: {e}", file=sys.stderr)
        return 2
    except KitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, KeyError, ValueError, MemoryError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
