"""Command-line frontend: eval | probe | sobolev | flow | oracle.

Exit codes: 0 success, 1 computation error, 2 usage error.  Reports are
JSON (trajectories CSV) and embed the resolved run configuration plus a
schema version.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import flow as flowmod
from . import functionals, oracles, probes, seminorms
from .errors import NlcurvError, NonGraphical, UsageError
from .quadrature import DIAGONAL_POLICIES, ORDERS, build_scheme
from .surface import (
    EnergyParameters,
    PRIMITIVE_KINDS,
    load_mesh,
    make_primitive,
    save_off,
)

SCHEMA_VERSION = 1

DEFAULTS = {
    "s": 0.5, "p": 4.0, "q": None, "normalization": "raw",
    "order": "gauss3", "policy": "skip_vertex_star",
    "workers": None, "seed": 0, "out": ".",
}


@dataclass
class RunConfig:
    command: str
    options: dict

    def to_dict(self):
        return {"command": self.command, "options": self.options,
                "schema_version": SCHEMA_VERSION}


class _Parser(argparse.ArgumentParser):
    """Reports bad arguments as UsageError; subparsers inherit the class."""

    def error(self, message):
        raise UsageError(message)


def _build_parser():
    top = _Parser(prog="nlcurv", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add_mesh_opts(p):
        p.add_argument("--mesh", help="OFF/OBJ file path")
        p.add_argument("--primitive", choices=sorted(PRIMITIVE_KINDS))
        p.add_argument("--radius", type=float, default=1.0)
        p.add_argument("--sub", type=int, default=3,
                       help="icosphere subdivision level")
        p.add_argument("--n", type=int, default=256, help="circle vertices")
        p.add_argument("--amp", type=float, default=0.0)
        p.add_argument("--semi-axes", default="1,1,2")
        p.add_argument("--major", type=float, default=2.0)
        p.add_argument("--minor", type=float, default=0.5)
        p.add_argument("--neck", type=float, default=0.2)
        p.add_argument("--ambient", type=int, default=None,
                       help="embed a circle in 3-space with 3")

    def add_common(p):
        add_mesh_opts(p)
        p.add_argument("--config", help="JSON file with option defaults")
        p.add_argument("--s", type=float, default=None)
        p.add_argument("--p", type=float, default=None)
        p.add_argument("--q", type=float, default=None)
        p.add_argument("--normalization", choices=["raw", "limit_normalized"],
                       default=None)
        p.add_argument("--order", choices=list(ORDERS), default=None)
        p.add_argument("--policy", choices=list(DIAGONAL_POLICIES),
                       default=None)
        p.add_argument("--workers", type=int, default=None,
                       help="kernel threads, and processes for the geodesic "
                            "search and the patch probe")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("eval", help="evaluate energies on a mesh")
    add_common(p)
    p.add_argument("--tangent-point", action="store_true",
                   help="also evaluate T_{p,q} (needs --q)")

    p = sub.add_parser("probe", help="geometric probes")
    add_common(p)
    p.add_argument("--mode", required=True,
                   choices=["ahlfors", "chordarc", "patch", "stability"])
    p.add_argument("--vertex", type=int, default=0)
    p.add_argument("--radii", default="0.1,0.2,0.4")
    p.add_argument("--pairs", type=int, default=20000)
    p.add_argument("--grad-bound", type=float, default=0.5)
    p.add_argument("--grid-step", type=float, default=0.02)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--hq", type=float, default=2.0,
                   help="q exponent of the stability seminorm")
    p.add_argument("--all-vertices", action="store_true",
                   help="patch mode: radii for every vertex, CSV output")

    p = sub.add_parser("sobolev", help="seminorms of a vertex field")
    add_common(p)
    p.add_argument("--field", default="z",
                   choices=["x", "y", "z", "support"])
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--fq", type=float, default=2.0)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--distance", default="extrinsic",
                   choices=["extrinsic", "intrinsic"])

    p = sub.add_parser("flow", help="area-constrained descent on B_{s,p}")
    add_common(p)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--step0", type=float, default=1e-2)
    p.add_argument("--grad-tol", type=float, default=1e-3)
    p.add_argument("--smoothing", action="store_true")
    p.add_argument("--snapshot-every", type=int, default=0,
                   help="write a mesh snapshot every k accepted steps")

    p = sub.add_parser("oracle", help="closed-form reference values")
    p.add_argument("quantity", choices=["circle_fmc", "sphere_fmc",
                                        "tangent_radius_circle",
                                        "scaling_exponent"])
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--s", type=float, default=0.5)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--p", type=float, default=4.0)
    return top


def parse_config(argv) -> RunConfig:
    """argv -> validated RunConfig; config-file values sit below flags."""
    args = vars(_build_parser().parse_args(argv))
    cfg_path = args.pop("config", None)
    file_vals = {}
    if cfg_path:
        try:
            with open(cfg_path) as fh:
                file_vals = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"bad config file: {exc}") from exc
    command = args.pop("command")
    opts = {}
    for k, v in args.items():
        if v is None and k in file_vals:
            v = file_vals[k]
        if v is None and k in DEFAULTS:
            v = DEFAULTS[k]
        opts[k] = v
    s = opts.get("s")
    if s is not None and command != "oracle" and not (0.0 < s < 1.0):
        raise UsageError(f"s must lie in (0,1), got {s}")
    if opts.get("p") is not None and opts["p"] <= 0:
        raise UsageError("p must be positive")
    if opts.get("workers") is not None and opts["workers"] < 1:
        raise UsageError("worker count must be >= 1")
    if command != "oracle" and not opts.get("mesh") \
            and not opts.get("primitive"):
        raise UsageError("need exactly one mesh source: --mesh or --primitive")
    if opts.get("mesh") and opts.get("primitive"):
        raise UsageError("give either --mesh or --primitive, not both")
    return RunConfig(command, opts)


def _floats(text, flag):
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise UsageError(f"{flag} needs comma-separated numbers") from None


_PRIMITIVE_KW = {  # make_primitive keywords per primitive, from the options
    "circle": lambda o: dict(radius=o["radius"], n=o["n"], **(
        {"ambient": o["ambient"]} if o.get("ambient") else {})),
    "sphere_icosub": lambda o: dict(radius=o["radius"], subdivisions=o["sub"]),
    "ellipsoid": lambda o: dict(semi_axes=tuple(
        _floats(o["semi_axes"], "--semi-axes")), subdivisions=o["sub"]),
    "torus": lambda o: dict(major_radius=o["major"], minor_radius=o["minor"]),
    "perturbed_sphere": lambda o: dict(radius=o["radius"], amplitude=o["amp"],
                                       seed=o["seed"], subdivisions=o["sub"]),
    "dumbbell": lambda o: dict(neck_radius=o["neck"]),
}


def _get_mesh(o):
    if o.get("mesh"):
        return load_mesh(o["mesh"])
    kind = o["primitive"]
    return make_primitive(kind, **_PRIMITIVE_KW[kind](o))


def _params(o):
    return EnergyParameters(s=o["s"], p=o["p"], q=o.get("q"),
                            normalization=o["normalization"])


def _write_report(cfg, payload, name="report.json"):
    out = cfg.options.get("out") or "."
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, name)
    doc = {"schema_version": SCHEMA_VERSION, "run_config": cfg.to_dict()}
    doc.update(payload)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    return path


def _cmd_eval(cfg):
    o = cfg.options
    if o.get("tangent_point") and o.get("q") is None:
        raise UsageError("--tangent-point needs --q")
    mesh = _get_mesh(o)
    params = _params(o)
    scheme = build_scheme(mesh, o["order"], o["policy"])
    kinds = ["bending"] + ([] if mesh.codim2 else ["willmore"]) \
        + (["tangent_point"] if o.get("tangent_point") else [])
    reports = {r.kind: r.to_dict() for r in functionals._energies(
        mesh, scheme, kinds, o["workers"], params, o["p"], o["q"])}
    path = _write_report(cfg, {"results": reports})
    print(f"eval: B={reports['bending']['energy']:.9g}"
          + (f" W={reports['willmore']['energy']:.9g}"
             if "willmore" in reports else "")
          + f" -> {path}")
    return 0


def _cmd_probe(cfg):
    o = cfg.options
    mesh = _get_mesh(o)
    mode = o["mode"]
    if mode == "ahlfors":
        radii = _floats(o["radii"], "--radii")
        res = probes.ahlfors_ratio(mesh, o["vertex"], radii)
        payload = {"mode": mode, "vertex": o["vertex"],
                   "ratios": [{"r": r, "ratio": v} for r, v in res]}
        summary = "ahlfors min ratio %.6g" % min(v for _, v in res)
    elif mode == "chordarc":
        res = probes.chord_arc_constant(mesh, o["pairs"], o["seed"])
        payload = {"mode": mode, **res}
        summary = "gamma %.6g" % res["gamma"]
    elif mode == "patch":
        if o.get("all_vertices"):
            radii = probes.patch_radii(mesh, grad_bound=o["grad_bound"],
                                       grid_step=o["grid_step"],
                                       workers=o["workers"])
            if np.isnan(radii).all():
                raise NonGraphical("no vertex has a graphical patch at this "
                                   "grid step")
            out = cfg.options.get("out") or "."
            os.makedirs(out, exist_ok=True)
            csv_path = os.path.join(out, "patch_radii.csv")
            with open(csv_path, "w", newline="") as fh:
                wtr = csv.writer(fh)
                wtr.writerow(["vertex", "radius"])
                for i, r in enumerate(radii):
                    wtr.writerow([i, repr(float(r))])
            payload = {"mode": mode, "csv": csv_path,
                       "min_radius": float(np.nanmin(radii)),
                       "max_radius": float(np.nanmax(radii))}
            summary = "patch radii in [%.4g, %.4g]" % (
                payload["min_radius"], payload["max_radius"])
        else:
            chart = probes.extract_patch(mesh, o["vertex"],
                                         grad_bound=o["grad_bound"],
                                         grid_step=o["grid_step"])
            payload = {"mode": mode, **chart.to_dict()}
            summary = "patch radius %.6g" % chart.radius
    else:
        rep = probes.stability_probe(mesh, o["alpha"], o["hq"])
        payload = {"mode": mode, **rep.to_dict()}
        summary = ("R0 %.6g hausdorff %.6g starshaped %s"
                   % (rep.R0, rep.hausdorff, rep.starshaped))
    path = _write_report(cfg, payload)
    print(f"probe[{mode}]: {summary} -> {path}")
    return 0


def _cmd_sobolev(cfg):
    o = cfg.options
    mesh = _get_mesh(o)
    if o["field"] == "support":
        _, vals = probes._support_function(mesh)
    else:
        axis = {"x": 0, "y": 1, "z": 2}[o["field"]]
        if axis >= mesh.ambient_n:
            raise UsageError(f"field {o['field']} needs ambient axis {axis}")
        vals = mesh.vertices[:, axis]
    f = seminorms.ScalarField(mesh, vals)
    sob, hol = seminorms._seminorms(f, o["alpha"], o["fq"], o["beta"],
                                    o["distance"], o["workers"])
    lq = seminorms.lq_norm(f, o["fq"])
    payload = {"field": o["field"],
               "sobolev": {"kind": "sobolev", "value": sob, "q": o["fq"],
                           "alpha": o["alpha"],
                           "distance_mode": o["distance"]},
               "lq": {"kind": "lq", "value": lq, "q": o["fq"],
                      "distance_mode": None},
               "holder": {"kind": "holder", "value": hol, "beta": o["beta"],
                          "distance_mode": o["distance"]}}
    path = _write_report(cfg, payload)
    print(f"sobolev: [f]={sob:.9g} ||f||={lq:.9g} holder={hol:.9g} -> {path}")
    return 0


def _cmd_flow(cfg):
    o = cfg.options
    mesh = _get_mesh(o)
    params = _params(o)
    out = cfg.options.get("out") or "."
    os.makedirs(out, exist_ok=True)
    snapshots = []
    every = o.get("snapshot_every") or 0

    def snap(row, snap_mesh):
        it = row[0]
        if every > 0 and it % every == 0:
            name = f"snapshot_{it:04d}.off"
            save_off(snap_mesh, os.path.join(out, name))
            snapshots.append(name)

    # the report's "subcritical" says what minimize's warning would
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "p <= d/s", UserWarning)
        state = flowmod.minimize(mesh, params, max_iter=o["max_iter"],
                                 step0=o["step0"], grad_tol=o["grad_tol"],
                                 smoothing=o["smoothing"], order=o["order"],
                                 diagonal_policy=o["policy"],
                                 workers=o["workers"], callback=snap)
    csv_path = os.path.join(out, "trajectory.csv")
    with open(csv_path, "w", newline="") as fh:
        wtr = csv.writer(fh)
        wtr.writerow(["iteration", "energy", "area", "grad_norm",
                      "hausdorff_to_best_sphere"])
        for row in state.trajectory:
            wtr.writerow([row[0]] + [repr(float(x)) for x in row[1:]])
    payload = {"iterations": state.iteration, "energy": state.energy,
               "area": state.area, "grad_norm": state.grad_norm,
               "subcritical": params.subcritical(mesh.dim_d),
               "trajectory_csv": csv_path, "snapshots": snapshots}
    path = _write_report(cfg, payload)
    print(f"flow: {state.iteration} iterations, energy {state.energy:.9g} "
          f"-> {path}")
    return 0


def _cmd_oracle(cfg):
    o = cfg.options
    q = o["quantity"]
    if q in ("circle_fmc", "sphere_fmc"):
        val = oracles.oracle(q, R=o["R"], s=o["s"])
    elif q == "tangent_radius_circle":
        val = oracles.oracle(q, R=o["R"])
    else:
        val = oracles.oracle(q, d=o["d"], s=o["s"], p=o["p"])
    print(json.dumps(val.to_dict(), sort_keys=True, default=float))
    return 0


_COMMANDS = {"eval": _cmd_eval, "probe": _cmd_probe, "sobolev": _cmd_sobolev,
             "flow": _cmd_flow, "oracle": _cmd_oracle}


def main(argv=None) -> int:
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else argv)
        return _COMMANDS[cfg.command](cfg)
    except NlcurvError as exc:
        print(json.dumps({"error": {"kind": type(exc).__name__,
                                    "message": str(exc)}}), file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
