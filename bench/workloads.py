"""The three workloads: the CLI calls that make one op, the set-up that
`setup_s` times, and the checks on every op's outputs.

Inputs come from ``seed % INPUT_SEEDS`` so that every op has outputs
recorded at the seed commit to compare against (references.json).
"""

from __future__ import annotations

import csv
import json
import math
import os
from pathlib import Path

INPUT_SEEDS = 16
REL_TOL = 1e-9  # admits summation-order roundoff, nothing larger
WORKERS = 2
REFERENCES = Path(__file__).with_name("references.json")


def _perturbed(sub, seed):
    return ["--primitive", "perturbed_sphere", "--sub", str(sub),
            "--amp", "0.05", "--seed", str(seed)]


def _close(a, b, tol=REL_TOL):
    return abs(a - b) <= tol * max(abs(a), abs(b))


def _same(a, b, tol=REL_TOL):
    """Element-wise _close for equal-length lists; NaN matches only NaN."""
    return len(a) == len(b) and all(
        (math.isnan(x) and math.isnan(y)) or _close(x, y, tol)
        for x, y in zip(a, b))


def _report(out):
    with open(os.path.join(out, "report.json")) as fh:
        return json.load(fh)


def _csv_column(path, column):
    with open(path, newline="") as fh:
        return [float(row[column]) for row in csv.DictReader(fh)]


class Workload:
    """One op is `steps(seed, workers)` run in order, each with its own
    output directory; `parse` reads the outputs into plain values."""

    name = ""

    def steps(self, seed, workers):
        raise NotImplementedError

    def setup(self, nlcurv, seed):
        """Build the op's meshes and schemes once (timed as setup_s)."""
        raise NotImplementedError

    def parse(self, outs):
        raise NotImplementedError

    def check(self, result, ref):
        """Names of the checks `result` fails against reference `ref`."""
        raise NotImplementedError

    def reference(self, refs, seed):
        return refs[self.name][str(seed % INPUT_SEEDS)]


class Energy(Workload):
    name = "energy"
    mesh = ["--primitive", "sphere_icosub", "--sub", "3"]

    def steps(self, seed, workers):
        return [["eval", *self.mesh, "--tangent-point", "--p", "4",
                 "--q", "6", "--workers", str(workers)]]

    def setup(self, nlcurv, seed):
        mesh = nlcurv.make_primitive("sphere_icosub", subdivisions=3)
        return [(mesh, nlcurv.build_scheme(mesh))]

    def parse(self, outs):
        res = _report(outs[0])["results"]
        return {"B": res["bending"]["energy"],
                "W": res["willmore"]["energy"],
                "T": res["tangent_point"]["energy"]}

    def check(self, result, ref):
        bad = [] if _close(result["B"], result["W"]) else ["B==W"]
        return bad + [k for k in ("B", "W", "T")
                      if not _close(result[k], ref[k])]

    def reference(self, refs, seed):
        return refs[self.name]  # the icosphere takes no seed


class Flow(Workload):
    name = "flow"
    max_iter = 1

    def steps(self, seed, workers):
        return [["flow", *_perturbed(1, seed % INPUT_SEEDS), "--p", "5",
                 "--smoothing", "--max-iter", str(self.max_iter),
                 "--workers", str(workers)]]

    def setup(self, nlcurv, seed):
        mesh = nlcurv.make_primitive("perturbed_sphere", amplitude=0.05,
                                     seed=seed % INPUT_SEEDS, subdivisions=1)
        return [(mesh, nlcurv.build_scheme(mesh))]

    def parse(self, outs):
        rep = _report(outs[0])
        path = rep["trajectory_csv"]
        return {"iterations": rep["iterations"],
                "energies": _csv_column(path, "energy"),
                "areas": _csv_column(path, "area")}

    def check(self, result, ref):
        e = result["energies"]
        bad = []
        if result["iterations"] != self.max_iter or len(e) != self.max_iter + 1:
            bad.append("trajectory length")
        if any(b >= a for a, b in zip(e, e[1:])):
            bad.append("energy decrease")
        if any(abs(a - 1.0) > 1e-12 for a in result["areas"]):
            bad.append("unit area")
        if not _close(e[-1], ref["energies"][-1]):
            bad.append("final energy")
        return bad


class Probes(Workload):
    name = "probes"
    subs = {"patch": 1, "stability": 2, "big": 3}

    def steps(self, seed, workers):
        s = seed % INPUT_SEEDS
        w = ["--workers", str(workers)]
        return [
            ["probe", "--mode", "patch", "--all-vertices",
             *_perturbed(self.subs["patch"], s), *w],
            ["probe", "--mode", "chordarc", *_perturbed(self.subs["big"], s),
             *w],
            ["probe", "--mode", "stability",
             *_perturbed(self.subs["stability"], s), *w],
            ["sobolev", "--distance", "intrinsic",
             *_perturbed(self.subs["big"], s), *w],
        ]

    def setup(self, nlcurv, seed):
        return [(nlcurv.make_primitive("perturbed_sphere", amplitude=0.05,
                                       seed=seed % INPUT_SEEDS,
                                       subdivisions=sub), None)
                for sub in sorted(set(self.subs.values()))]

    def parse(self, outs):
        patch, chordarc, stability, sobolev = map(_report, outs)
        return {
            "patch_radii": _csv_column(patch["csv"], "radius"),
            "gamma": chordarc["gamma"],
            "starshaped": stability["starshaped"],
            "R0": stability["R0"],
            "hausdorff": stability["hausdorff"],
            "seminorms": [sobolev["sobolev"]["value"], sobolev["lq"]["value"],
                          sobolev["holder"]["value"]],
        }

    def check(self, result, ref):
        bad = [] if result["gamma"] >= 1.0 else ["gamma>=1"]
        if not result["starshaped"]:
            bad.append("starshaped")
        for key in ("patch_radii", "seminorms"):
            if not _same(result[key], ref[key]):
                bad.append(key)
        for key in ("gamma", "R0", "hausdorff"):
            if not _close(result[key], ref[key]):
                bad.append(key)
        return bad


WORKLOADS = {w.name: w for w in (Energy(), Flow(), Probes())}


def load_references():
    with open(REFERENCES) as fh:
        return json.load(fh)


def identical(a, b):
    """Bitwise equality of parsed outputs (NaN equal to NaN)."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
