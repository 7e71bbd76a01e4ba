"""Benchmark workloads: seeded inputs, CLI pipelines and their oracles.

A workload is a set-up (commands that write its input files) and a timed
pipeline of ``alexkit`` CLI commands run against those files.  The seed only
rotates each model polygon about its centre.  Every oracle checks a
geometric fact against the annotations of the generated space file, so it
holds on every seed.

Each size ("bench" for the benchmark, "tiny" for its tests) fixes the sample
pitch and the command parameters.  Seed 0 is the unrotated model.
"""

from __future__ import annotations

import json
import math

GOLDEN_RATIO = (math.sqrt(5.0) - 1.0) / 2.0

SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]

PARAMS = {
    "bench": {
        "strain-square": {"h": 0.05, "delta": 0.1, "ell": 0.05, "search_radius": 0.2},
        "collar-32gon": {"radius": 0.6, "h": 0.04, "delta": 0.25, "ell": 0.1,
                         "r": 0.16, "rho": 0.03, "chart_radius": 0.2},
        "measure-polygons": {"h": 0.06, "eps": 0.12, "family_h": 0.05},
    },
    "tiny": {
        "strain-square": {"h": 0.1, "delta": 0.1, "ell": 0.12, "search_radius": 0.45},
        "collar-32gon": {"radius": 1.0, "h": 0.1, "delta": 0.25, "ell": 0.12,
                         "r": 0.4, "rho": 0.07, "chart_radius": 0.5},
        "measure-polygons": {"h": 0.1, "eps": 0.25, "family_h": 0.1},
    },
}


def turn(seed: int, n_sides: int) -> float:
    """Rotation angle of the seed within one symmetry period of an n-gon."""
    return (seed * GOLDEN_RATIO % 1.0) * 2.0 * math.pi / n_sides


def rotate(vertices, angle: float, centre=(0.0, 0.0)):
    c, s = math.cos(angle), math.sin(angle)
    cx, cy = centre
    return [[cx + (x - cx) * c - (y - cy) * s, cy + (x - cx) * s + (y - cy) * c]
            for x, y in vertices]


def regular_polygon(n: int, radius: float, seed: int):
    """Counterclockwise regular n-gon about the origin, rotated by the seed."""
    base = [[radius * math.cos(2.0 * math.pi * k / n),
             radius * math.sin(2.0 * math.pi * k / n)] for k in range(n)]
    return rotate(base, turn(seed, n))


class Workload:
    """One workload at one seed and size.

    ``setup_files`` maps file names to text the set-up writes; ``setup`` and
    ``pipeline`` are lists of CLI argument vectors run in the work directory.
    ``facts`` turns the generated space file into the ids and exact values the
    pipeline and the oracles need; ``check`` returns a failure message per
    command (``None`` when its report is right).
    """

    name = ""
    space_file = "space.json"
    setup_files: dict = {}
    setup: list = []

    def __init__(self, seed: int, size: str = "bench"):
        self.seed = seed
        self.p = PARAMS[size][self.name]


class StrainSquare(Workload):
    name = "strain-square"

    def __init__(self, seed, size="bench"):
        super().__init__(seed, size)
        self.vertices = rotate(SQUARE, turn(seed, 4), (0.5, 0.5))
        self.setup = [["gen", "polygon", "--vertices", json.dumps(self.vertices),
                       "--h", repr(self.p["h"]), "--out", self.space_file]]

    def pipeline(self, facts):
        p = self.p
        params = ["--subset", "all", "--delta", repr(p["delta"]), "--ell", repr(p["ell"]),
                  "--search-radius", repr(p["search_radius"])]
        return [
            ["validate", "--space", self.space_file, "--seed", str(self.seed),
             "--out", "validate.json"],
            ["dim", "--space", self.space_file, *params, "--out", "dim.json"],
            ["strain", "--space", self.space_file, *params, "--k", "2",
             "--out", "strain.json"],
        ]

    def facts(self, space):
        ids = space["annotations"]["subsets"]["interior"]["ids"]
        return {"centre": nearest(space, ids, (0.5, 0.5)),
                "boundary": space["annotations"]["subsets"]["boundary"]["ids"]}

    def check(self, command, report, facts):
        if command == "validate":
            return None if report["report"]["passed"] else "validation failed"
        if command == "dim":
            n = report["strainer_number"]
            return None if n == 2 else f"strainer_number {n} != 2"
        if command == "strain":
            members = set(report["mask"]["member_ids"])
            if facts["centre"] not in members:
                return f"centre point {facts['centre']} not 2-strained"
            on_boundary = members.intersection(facts["boundary"])
            if on_boundary:
                return f"boundary ids 2-strained: {sorted(on_boundary)[:5]}"
        return None


class Collar32gon(Workload):
    name = "collar-32gon"

    def __init__(self, seed, size="bench"):
        super().__init__(seed, size)
        self.vertices = regular_polygon(32, self.p["radius"], seed)
        self.setup = [["gen", "polygon", "--vertices", json.dumps(self.vertices),
                       "--h", repr(self.p["h"]), "--out", self.space_file]]

    def pipeline(self, facts):
        p = self.p
        space = ["--space", self.space_file]
        return [
            ["glue", *space, "--subset", "boundary", "--m", "1",
             "--delta", repr(p["delta"]), "--ell", repr(p["ell"]), "--r", repr(p["r"]),
             "--rho", repr(p["rho"]), "--out", "glue.json"],
            ["chart", *space, "--subset", "boundary", "--base", str(facts["chart_base"]),
             "--k", "1", "--delta", repr(p["delta"]), "--ell", repr(p["ell"]),
             "--radius", repr(p["chart_radius"]), "--out", "chart.json"],
            ["flow", *space, "--invariance", "--subset", "boundary",
             "--toward-dist", str(facts["centre"]), "--out", "flow.json"],
        ]

    def facts(self, space):
        subsets = space["annotations"]["subsets"]
        corners = [space["points"][i]["coords"] for i in subsets["boundary"]["singular_ids"]]
        edge_points = sorted(set(subsets["boundary"]["ids"])
                             - set(subsets["boundary"]["singular_ids"]))
        # the edge point farthest from every corner, lowest id on ties
        base = max(edge_points, key=lambda i: (
            min(math.dist(space["points"][i]["coords"], c) for c in corners), -i))
        return {"chart_base": base,
                "centre": nearest(space, subsets["interior"]["ids"], (0.0, 0.0)),
                "h": space["resolution"]}

    def check(self, command, report, facts):
        if command == "glue":
            return None if report["net_size"] > 0 else "empty glue net"
        if command == "flow":
            dev = report["result"]["max_deviation"]
            bound = 2.0 * facts["h"]
            return None if dev <= bound else f"flow left the boundary: {dev} > 2h = {bound}"
        return None


class MeasurePolygons(Workload):
    name = "measure-polygons"
    family_sides = (8, 16, 32)

    def __init__(self, seed, size="bench"):
        super().__init__(seed, size)
        p = self.p
        self.vertices = regular_polygon(12, 1.0, seed)
        family = {"limit": 2.0 * math.pi, "members": [
            {"generator": "convex-polygon", "label": f"{n}-gon",
             "params": {"vertices": regular_polygon(n, 1.0, seed), "h": p["family_h"]}}
            for n in self.family_sides]}
        self.setup_files = {"family.json": json.dumps(family, indent=1) + "\n"}
        # the pipeline writes this file again; generating it in the set-up
        # too keeps set-up time from being interpreter start and imports only,
        # which drift with the host more than computation does
        self.setup = [self.gen()]

    def gen(self):
        return ["gen", "polygon", "--vertices", json.dumps(self.vertices),
                "--h", repr(self.p["h"]), "--out", self.space_file]

    def pipeline(self, facts):
        p = self.p
        return [
            self.gen(),
            ["validate", "--space", self.space_file, "--seed", str(self.seed),
             "--out", "validate.json"],
            ["vol", "--space", self.space_file, "--subset", "boundary", "--m", "1",
             "--eps", repr(p["eps"]), "--metric", "intrinsic", "--out", "vol.json"],
            ["converge", "--family", "family.json", "--m", "1", "--eps", repr(p["eps"]),
             "--out", "converge.json"],
        ]

    def facts(self, space):
        return {"perimeter": space["annotations"]["subsets"]["boundary"]["exact_measure"]}

    def check(self, command, report, facts):
        if command == "validate":
            return None if report["report"]["passed"] else "validation failed"
        if command == "vol":
            est, exact = report["estimate"], facts["perimeter"]
            err = abs(est - exact) / exact
            return None if err <= 0.01 else f"perimeter estimate {est} off {exact} by {err:.2%}"
        if command == "converge":
            verdict = report["result"]["verdict"]
            bad = [k for k in ("deviation_extrinsic_nonincreasing",
                               "deviation_intrinsic_nonincreasing")
                   if verdict.get(k) is not True]
            if verdict["collapse"]:
                bad.append("collapse")
            return f"converge verdict: {bad}" if bad else None
        return None


def nearest(space, ids, point) -> int:
    """The id among ``ids`` whose coordinates are closest to ``point``."""
    return min(ids, key=lambda i: (math.dist(space["points"][i]["coords"], point), i))


WORKLOADS = {cls.name: cls for cls in (StrainSquare, Collar32gon, MeasurePolygons)}


def make(name: str, seed: int, size: str = "bench") -> Workload:
    return WORKLOADS[name](seed, size)
