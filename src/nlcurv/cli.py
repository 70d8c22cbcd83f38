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
from .errors import InvalidParams, NlcurvError, NonGraphical, UsageError
from .quadrature import DIAGONAL_POLICIES, ORDERS, build_scheme
from .surface import (EnergyParameters, PRIMITIVE_KINDS, _check_s,
                      load_mesh, make_primitive, save_off)

SCHEMA_VERSION = 1

# the options each primitive (with its make_primitive keywords), probe
# mode and oracle quantity reads; every mesh command takes --seed
_PRIMITIVE_READS = {
    "circle": {"radius": "radius", "n": "n", "ambient": "ambient"},
    "sphere_icosub": {"radius": "radius", "sub": "subdivisions"},
    "ellipsoid": {"semi_axes": "semi_axes", "sub": "subdivisions"},
    "torus": {"major": "major_radius", "minor": "minor_radius"},
    "perturbed_sphere": {"radius": "radius", "amp": "amplitude",
                         "seed": "seed", "sub": "subdivisions"},
    "dumbbell": {"neck": "neck_radius"}}
_MODE_READS = {  # patch_all is patch with --all-vertices
    "ahlfors": ("vertex", "radii"), "chordarc": ("pairs",),
    "patch": ("vertex", "grad_bound", "grid_step"),
    "patch_all": ("all_vertices", "grad_bound", "grid_step"),
    "stability": ("alpha", "hq")}
_ORACLE_READS = {"circle_fmc": ("R", "s"), "sphere_fmc": ("R", "s"),
                 "tangent_radius_circle": ("R",),
                 "scaling_exponent": ("d", "s", "p")}


@dataclass
class RunConfig:
    command: str
    options: dict

    def to_dict(self):
        return {"command": self.command, "options": self.options,
                "schema_version": SCHEMA_VERSION}


class _Parser(argparse.ArgumentParser):
    """Whole option names only, bad arguments as UsageError; subparsers too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def _build_parser(command=None):
    """The top parser and the subparser of each command, or of command
    alone."""
    top = _Parser(prog="nlcurv", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def mesh_command(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--mesh", help="OFF/OBJ file path")
        p.add_argument("--primitive", choices=sorted(PRIMITIVE_KINDS))
        p.add_argument("--radius", type=float, default=1.0)
        p.add_argument("--sub", type=int, default=3, help="icosphere level")
        p.add_argument("--n", type=int, default=256, help="circle vertices")
        p.add_argument("--amp", type=float, default=0.0)
        p.add_argument("--semi-axes", default="1,1,2")
        p.add_argument("--major", type=float, default=2.0)
        p.add_argument("--minor", type=float, default=0.5)
        p.add_argument("--neck", type=float, default=0.2)
        p.add_argument("--ambient", type=int, default=2,
                       help="embed a circle in 3-space with 3")
        p.add_argument("--config", help="JSON object of option values")
        p.add_argument("--workers", type=int, help="worker processes")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=".", help="output directory")
        return p

    def energy_command(name, help):
        p = mesh_command(name, help)
        p.add_argument("--s", type=float, default=0.5)
        p.add_argument("--p", type=float, default=4.0)
        p.add_argument("--normalization", choices=["raw", "limit_normalized"],
                       default="raw")
        p.add_argument("--order", choices=list(ORDERS), default="gauss3")
        p.add_argument("--policy", choices=list(DIAGONAL_POLICIES),
                       default="skip_vertex_star")
        return p

    if command in (None, "eval"):
        p = energy_command("eval", "evaluate energies on a mesh")
        p.add_argument("--q", type=float, default=None)
        p.add_argument("--tangent-point", action="store_true",
                       help="also evaluate T_{p,q} (needs --q)")

    if command in (None, "probe"):
        p = mesh_command("probe", "geometric probes")
        p.add_argument("--mode",
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

    if command in (None, "sobolev"):
        p = mesh_command("sobolev", "seminorms of a vertex field")
        p.add_argument("--field", default="z",
                       choices=["x", "y", "z", "support"])
        p.add_argument("--alpha", type=float, default=0.5)
        p.add_argument("--fq", type=float, default=2.0)
        p.add_argument("--beta", type=float, default=0.5)
        p.add_argument("--distance", default="extrinsic",
                       choices=["extrinsic", "intrinsic"])

    if command in (None, "flow"):
        p = energy_command("flow", "area-constrained descent on B_{s,p}")
        p.add_argument("--max-iter", type=int, default=100)
        p.add_argument("--step0", type=float, default=1e-2)
        p.add_argument("--grad-tol", type=float, default=1e-3)
        p.add_argument("--smoothing", action="store_true")
        p.add_argument("--snapshot-every", type=int, default=0,
                       help="write a mesh snapshot every k accepted steps")

    if command in (None, "oracle"):
        p = sub.add_parser("oracle", help="closed-form reference values")
        p.add_argument("quantity", choices=list(_ORACLE_READS))
        p.add_argument("--R", type=float, default=1.0)
        p.add_argument("--s", type=float, default=0.5)
        p.add_argument("--d", type=int, default=2)
        p.add_argument("--p", type=float, default=4.0)
    return top, sub.choices


def _read_config(path, parser):
    """Parser defaults from config file path, as strings argparse converts."""
    try:
        with open(path) as fh:
            vals = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"bad config file: {exc}") from exc
    if not isinstance(vals, dict):
        raise UsageError("the config file must hold a JSON object")
    acts = {a.dest: a for a in parser._actions
            if a.dest not in ("help", "config")}
    for key, val in vals.items():
        if key not in acts or val not in (acts[key].choices or [val]):
            raise UsageError(f"config {key}={val!r}: no such option or "
                             f"choice of {parser.prog}")
        if acts[key].nargs == 0 and not isinstance(val, bool):
            raise UsageError(f"config {key}={val!r}: a switch takes true "
                             "or false")
    return {k: v if acts[k].nargs == 0 else str(v)  # a switch stays a bool
            for k, v in vals.items() if v is not None}


def _check_reads(o, defaults, table, key, who):
    """UsageError for an option of table off its default not in row key."""
    unread = [f for f in sorted(set().union(*table.values()) - {"seed"})
              if f not in table.get(key, ()) and o[f] != defaults[f]]
    if unread:
        raise UsageError(f"{who} does not read " + ", ".join(
            "--" + f.replace("_", "-") for f in unread))


def parse_config(argv) -> RunConfig:
    """argv -> validated RunConfig; config-file values sit below flags."""
    # only the command's own options, unless --help or an unknown command
    # needs the full list
    top, commands = _build_parser(argv[0] if argv and argv[0] in _COMMANDS
                                  else None)
    opts = vars(top.parse_args(argv))
    command = opts.pop("command")
    parser = commands[command]
    defaults = {k: parser.get_default(k) for k in opts}
    if path := opts.pop("config", None):
        parser.set_defaults(**_read_config(path, parser))
        opts = vars(top.parse_args(argv))
        del opts["command"], opts["config"]
    if command == "oracle":
        q = opts["quantity"]
        _check_reads(opts, defaults, _ORACLE_READS, q, f"oracle {q}")
    elif bool(opts["mesh"]) == bool(opts["primitive"]):
        raise UsageError("give exactly one mesh source: --mesh or --primitive")
    else:
        kind = opts["primitive"]
        _check_reads(opts, defaults, _PRIMITIVE_READS, kind,
                     f"--primitive {kind}" if kind else "--mesh")
    if command == "probe":
        if (mode := opts["mode"]) is None:
            raise UsageError("probe needs --mode")
        key = "patch_all" if mode == "patch" and opts["all_vertices"] else mode
        _check_reads(opts, defaults, _MODE_READS, key, f"probe --mode {mode}")
    if opts.get("p", 1.0) <= 0:
        raise UsageError("p must be positive")
    try:
        if command in ("eval", "flow"):
            _check_s(opts["s"])
        if opts.get("workers") is not None:
            functionals.get_workers(opts["workers"])
    except InvalidParams as exc:
        raise UsageError(str(exc)) from None
    return RunConfig(command, opts)


def _floats(text, flag):
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise UsageError(f"{flag} needs comma-separated numbers") from None


def _get_mesh(o):
    if o["mesh"]:
        return load_mesh(o["mesh"])
    kw = {k: o[f] for f, k in _PRIMITIVE_READS[o["primitive"]].items()}
    if "semi_axes" in kw:
        kw["semi_axes"] = tuple(_floats(kw["semi_axes"], "--semi-axes"))
    return make_primitive(o["primitive"], **kw)


def _out_path(cfg, name):
    os.makedirs(cfg.options["out"], exist_ok=True)
    return os.path.join(cfg.options["out"], name)


def _json(doc, indent=None):
    """doc as sorted JSON text; a NaN or infinity, not JSON, is an error."""
    try:
        return json.dumps(doc, indent=indent, sort_keys=True, default=float,
                          allow_nan=False)
    except ValueError as exc:
        raise InvalidParams(f"the result is not finite: {exc}") from None


def _write_report(cfg, payload):
    text = _json({"schema_version": SCHEMA_VERSION,
                  "run_config": cfg.to_dict(), **payload}, indent=2)
    with open(path := _out_path(cfg, "report.json"), "w") as fh:
        fh.write(text + "\n")
    return path


def _write_csv(cfg, name, header, rows):
    """CSV of rows (index, *values), each value written as repr(float)."""
    path = _out_path(cfg, name)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header] + [
            [i] + [repr(float(x)) for x in xs] for i, *xs in rows])
    return path


def _cmd_eval(cfg):
    o = cfg.options
    if o["tangent_point"] != (o["q"] is not None):
        raise UsageError("--tangent-point and --q go together")
    mesh = _get_mesh(o)
    params = EnergyParameters(o["s"], o["p"], o["normalization"])
    scheme = build_scheme(mesh, o["order"], o["policy"])
    kinds = ["bending"] + ([] if mesh.codim2 else ["willmore"]) \
        + (["tangent_point"] if o["tangent_point"] else [])
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
        if o["all_vertices"]:
            radii = probes.patch_radii(mesh, grad_bound=o["grad_bound"],
                                       grid_step=o["grid_step"],
                                       workers=o["workers"])
            if np.isnan(radii).all():
                raise NonGraphical("no graphical patch at this grid step")
            csv_path = _write_csv(cfg, "patch_radii.csv",
                                  ["vertex", "radius"], enumerate(radii))
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
    every = o["snapshot_every"]
    if every < 0:
        raise UsageError(f"--snapshot-every must be >= 0, got {every}")
    mesh = _get_mesh(o)
    params = EnergyParameters(o["s"], o["p"], o["normalization"])
    snapshots = []

    def snap(row, snap_mesh):
        if every > 0 and (it := row[0]) % every == 0:
            name = f"snapshot_{it:04d}.off"
            save_off(snap_mesh, _out_path(cfg, name))
            snapshots.append(name)

    # the report's "subcritical" says what minimize's warning would
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "p <= d/s", UserWarning)
        state = flowmod.minimize(mesh, params, max_iter=o["max_iter"],
                                 step0=o["step0"], grad_tol=o["grad_tol"],
                                 smoothing=o["smoothing"], order=o["order"],
                                 diagonal_policy=o["policy"],
                                 workers=o["workers"], callback=snap)
    csv_path = _write_csv(cfg, "trajectory.csv",
                          ["iteration", "energy", "area", "grad_norm",
                           "hausdorff_to_best_sphere"], state.trajectory)
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
    val = oracles.oracle(q, **{k: o[k] for k in _ORACLE_READS[q]})
    print(_json(val.to_dict()))
    return 0


_COMMANDS = {"eval": _cmd_eval, "probe": _cmd_probe, "sobolev": _cmd_sobolev,
             "flow": _cmd_flow, "oracle": _cmd_oracle}


def main(argv=None) -> int:
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else argv)
        # a floating-point fault shows as _json's error, not as warnings
        with np.errstate(all="ignore"):
            return _COMMANDS[cfg.command](cfg)
    except NlcurvError as exc:
        print(json.dumps({"error": {"kind": type(exc).__name__,
                                    "message": str(exc)}}), file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
