"""The numbers nlcurv produces, pinned bit for bit.

tests/golden.json holds a fixed matrix of outputs as float.hex strings:
eval's B, W, T and vertex curvature on two surfaces and two curves at every
order and policy, short flows, patch radii and refits, the chord-arc and
stability probes, both seminorms and the oracles.  Each is recomputed at
one and at two workers and compared exactly.  The file also records the
numpy, BLAS and CPU it was written on, so that a mismatch on another
machine reads as the environment, not as the program.

    PYTHONPATH=src python tests/test_golden.py

rewrites the file.  Each re-record belongs in CHANGES.md: which rows
moved, by how much, and why.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from conftest import make_bumpy_polygon
from nlcurv import (EnergyParameters, ScalarField, build_scheme,
                    chord_arc_constant, make_primitive, minimize, oracle,
                    patch_radii, pointwise_curvature, stability_probe)
from nlcurv.errors import InvalidParams
from nlcurv.functionals import _energies
from nlcurv.probes import _patch_charts
from nlcurv.seminorms import _seminorms, lq_norm

GOLDEN = Path(__file__).with_name("golden.json")
ORDERS = ("centroid", "gauss3", "gauss7")
POLICIES = ("skip_same_element", "skip_vertex_star")


def _perturbed(seed, sub):
    return make_primitive("perturbed_sphere", amplitude=0.05, seed=seed,
                          subdivisions=sub)


def _eval_rows(workers):
    meshes = {"icosphere_sub2": make_primitive("sphere_icosub",
                                               subdivisions=2),
              "perturbed_sub1": _perturbed(3, 1),
              "bumpy64_2d": make_bumpy_polygon(2),
              "bumpy64_3d": make_bumpy_polygon(3)}
    params = EnergyParameters(0.5, 4.0)
    for name, mesh in meshes.items():
        kinds = ["bending", "tangent_point"] + ([] if mesh.codim2
                                                else ["willmore"])
        for order in ORDERS:
            for policy in POLICIES:
                try:
                    scheme = build_scheme(mesh, order, policy)
                except InvalidParams:  # gauss3 pairs on triangle edges
                    continue
                reps = _energies(mesh, scheme, kinds, workers, params, 4.0,
                                 6.0)
                yield (f"eval/{name}/{order}/{policy}",
                       [r.energy for r in reps])
            # vertex curvature reads the scheme's samples, not its policy
            yield (f"curvature/{name}/{order}",
                   pointwise_curvature(mesh, scheme, params,
                                       kind="A" if mesh.codim2 else "H",
                                       workers=workers))


def _flow_rows(workers):
    for seed in (3, 7):
        state = minimize(_perturbed(seed, 1), EnergyParameters(0.5, 5.0),
                         max_iter=3, smoothing=True, workers=workers)
        yield f"flow/seed{seed}/trajectory", np.ravel(state.trajectory)
        digest = hashlib.sha256(state.mesh.vertices.tobytes()).hexdigest()
        yield f"flow/seed{seed}/vertices_sha256", [digest]


def _probe_rows(workers):
    sub1 = _perturbed(3, 1)
    yield "patch/radii", patch_radii(sub1, workers=workers)
    charts = list(_patch_charts(sub1, np.arange(sub1.n_vertices)))
    yield "patch/refit_rounds", [c.refit_rounds for c in charts]
    yield "patch/refit_residual", [c.refit_residual for c in charts]
    sub2 = _perturbed(3, 2)
    res = chord_arc_constant(sub2, 2000, 3)
    yield "chordarc", [res["gamma"], *res["witness"], res["n_pairs"]]
    rep = stability_probe(sub2)
    yield "stability", [*rep.center, rep.R0, rep.u_seminorm, rep.hausdorff,
                        rep.starshaped]
    field = ScalarField(sub2, sub2.vertices[:, 2])
    for mode in ("extrinsic", "intrinsic"):
        yield f"seminorms/{mode}", _seminorms(field, 0.5, 2.0, 0.5, mode,
                                              workers)
    yield "seminorms/lq", [lq_norm(field, 2.0)]


def _oracle_rows(workers):
    for q in ("circle_fmc", "sphere_fmc"):
        for R, s in ((1.0, 0.25), (1.0, 0.5), (2.0, 0.75)):
            val = oracle(q, R=R, s=s)
            yield f"oracle/{q}/R{R}/s{s}", [val.value, val.error_estimate]
    yield "oracle/tangent_radius_circle", [
        oracle("tangent_radius_circle", R=1.5).value]
    yield "oracle/scaling_exponent", [
        oracle("scaling_exponent", d=2, s=0.5, p=4.0).value]


GROUPS = {"eval": _eval_rows, "flow": _flow_rows, "probes": _probe_rows,
          "oracles": _oracle_rows}


def _encode(values):
    return [v if isinstance(v, str) else float(v).hex() for v in values]


def _rows(group, workers):
    return {name: _encode(np.ravel(vals).tolist() if
                          isinstance(vals, np.ndarray) else vals)
            for name, vals in GROUPS[group](workers)}


def _environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"numpy": np.__version__, "python": platform.python_version(),
            "blas": f"{blas['name']} {blas['version']}", "cpu": cpu}


def _moved(name, want, got):
    """One line per moved row: its largest relative change."""
    if len(want) != len(got):
        return f"{name}: {len(want)} values recorded, {len(got)} now"
    try:
        a = np.array([float.fromhex(v) for v in want])
        b = np.array([float.fromhex(v) for v in got])
    except ValueError:
        return f"{name}: {want} recorded, {got} now"
    with np.errstate(all="ignore"):
        rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    return f"{name}: largest relative change {np.nanmax(rel):.3g}"


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("group", list(GROUPS))
def test_numbers_unchanged(group, workers):
    golden = json.loads(GOLDEN.read_text())
    want, got = golden["rows"][group], _rows(group, workers)
    assert sorted(got) == sorted(want)
    moved = [_moved(k, want[k], got[k]) for k in got if got[k] != want[k]]
    assert not moved, (
        f"recorded on {golden['environment']}, running on {_environment()}:\n"
        + "\n".join(moved))


def record():
    """Rewrite golden.json from the one-worker run."""
    rows = {group: _rows(group, 1) for group in GROUPS}
    GOLDEN.write_text(json.dumps({"environment": _environment(),
                                  "rows": rows}, indent=1) + "\n")


if __name__ == "__main__":
    record()
