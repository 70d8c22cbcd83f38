"""End-to-end acceptance checks, one test per criterion.

Each test records a single pass/fail line with its measured values; the
lines are echoed in the terminal summary.  Pointwise H_s replaces each
excluded vertex star by its leading-order (fitted shape operator)
integral; the residual still decays at O(h^{1-s}), and singular-kernel
accuracy on meshes is obtained by two-level Richardson extrapolation at
that rate.
"""

import time
import warnings

import numpy as np
import pytest
from scipy.special import sph_harm_y

from conftest import flat_icosahedron_refined, naive_energy, record_criterion
from nlcurv.flow import _project_area, energy_gradient, minimize
from nlcurv.functionals import (
    bending_energy,
    pointwise_curvature,
    tangent_point_energy,
    willmore_energy,
)
from nlcurv.oracles import circle_fmc, sphere_fmc
from nlcurv.probes import (
    ahlfors_ratio,
    chord_arc_constant,
    patch_radii,
    stability_probe,
)
from nlcurv.quadrature import build_scheme
from nlcurv.seminorms import ScalarField, lq_norm, sobolev_seminorm
from nlcurv.surface import EnergyParameters, make_primitive, rescale

S_HALF = EnergyParameters(s=0.5, p=4.0)


@pytest.fixture(scope="module")
def sphere4():
    return make_primitive("sphere_icosub", subdivisions=4)


def _circle_richardson(s, order="centroid"):
    """H_s at a vertex of the unit circle, extrapolated over N=1024/4096."""
    params = EnergyParameters(s=s)
    vals = []
    for n in (1024, 4096):
        m = make_primitive("circle", n=n)
        sc = build_scheme(m, order=order)
        vals.append(pointwise_curvature(m, sc, params, [0], "H")[0])
    rate = 4.0 ** (1 - s)
    return (rate * vals[1] - vals[0]) / (rate - 1.0)


def test_criterion_01_circle_oracle():
    t0 = time.perf_counter()
    got = _circle_richardson(0.5, order="centroid")
    elapsed = time.perf_counter() - t0
    exact = circle_fmc(1.0, 0.5)
    rel = abs(got - exact) / abs(exact)
    ok = rel < 1e-3 and elapsed < 5.0
    record_criterion(1, ok, f"circle H_s relerr={rel:.3g} (tol 1e-3), "
                     f"runtime={elapsed:.2f}s (tol 5s)")
    assert ok


def test_criterion_02_sphere_oracle(sphere4):
    t0 = time.perf_counter()
    sphere5 = make_primitive("sphere_icosub", subdivisions=5)
    verts = np.arange(12)  # the original icosahedral vertices
    worst = 0.0
    details = []
    for s in (0.3, 0.5, 0.7):
        params = EnergyParameters(s=s)
        h4 = pointwise_curvature(sphere4, build_scheme(sphere4, "gauss3"),
                                 params, verts, "H", workers=8)
        h5 = pointwise_curvature(sphere5, build_scheme(sphere5, "gauss3"),
                                 params, verts, "H", workers=8)
        rate = 2.0 ** (1 - s)
        extrap = (rate * h5 - h4) / (rate - 1.0)
        rel = abs(extrap.mean() - sphere_fmc(1.0, s)) / abs(sphere_fmc(1.0, s))
        details.append(f"s={s}: {rel:.3g}")
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-2 and elapsed < 120.0
    record_criterion(2, ok, "sphere H_s relerr " + ", ".join(details)
                     + f" (tol 1e-2), runtime={elapsed:.1f}s (tol 120s)")
    assert ok


def test_criterion_03_exact_scaling(sphere1, circle128):
    worst = 0.0
    for mesh in (circle128, sphere1):
        sc = build_scheme(mesh)
        w1 = willmore_energy(mesh, sc, S_HALF).energy
        b1 = bending_energy(mesh, sc, S_HALF).energy
        expo = mesh.dim_d - S_HALF.s * S_HALF.p
        for lam in (0.5, 2.0, 10.0):
            big = rescale(mesh, lam)
            scb = build_scheme(big)
            w2 = willmore_energy(big, scb, S_HALF).energy
            b2 = bending_energy(big, scb, S_HALF).energy
            worst = max(worst, abs(w2 / w1 - lam ** expo) / lam ** expo,
                        abs(b2 / b1 - lam ** expo) / lam ** expo)
    ok = worst < 1e-12
    record_criterion(3, ok, f"scaling-law worst relerr={worst:.3g} (tol 1e-12)")
    assert ok


def test_criterion_04_convex_equivalence(sphere2):
    family = [sphere2,
              make_primitive("ellipsoid", semi_axes=(1.0, 1.0, 2.0),
                             subdivisions=2),
              make_primitive("sphere_icosub", subdivisions=0)]
    worst_e = 0.0
    worst_pt = 0.0
    for mesh in family:
        sc = build_scheme(mesh)
        w = willmore_energy(mesh, sc, S_HALF).energy
        b = bending_energy(mesh, sc, S_HALF).energy
        worst_e = max(worst_e, abs(w - b) / b)
        h = pointwise_curvature(mesh, sc, S_HALF, kind="H")
        a = pointwise_curvature(mesh, sc, S_HALF, kind="A")
        worst_pt = max(worst_pt, float(np.max(np.abs(a + h)))
                       / float(np.max(np.abs(h))))
    ok = worst_e <= 1e-12 and worst_pt <= 1e-12
    record_criterion(4, ok, f"|W-B|/B worst={worst_e:.3g}, "
                     f"| |A|+H | worst={worst_pt:.3g} (tol 1e-12)")
    assert ok


def test_criterion_05_s_to_one_limit():
    v90 = (1 - 0.9) * abs(circle_fmc(1.0, 0.9))
    v99 = (1 - 0.99) * abs(circle_fmc(1.0, 0.99))
    extrap = v99 + (v99 - v90) * (1.0 - 0.99) / (0.99 - 0.9)
    oracle_err = abs(extrap - 1.0)
    mesh_val = _circle_richardson(0.9, order="gauss7")
    mesh_err = abs(mesh_val - circle_fmc(1.0, 0.9)) / abs(circle_fmc(1.0, 0.9))
    ok = oracle_err < 0.02 and mesh_err < 0.05
    record_criterion(5, ok, f"(1-s)|H_s| extrapolates to {extrap:.4f} "
                     f"(tol 2%), mesh s=0.9 relerr={mesh_err:.3g} (tol 5%)")
    assert ok


def test_criterion_06_sphere_symmetry(sphere4):
    sc = build_scheme(sphere4, "gauss3")
    h = pointwise_curvature(sphere4, sc, S_HALF, kind="H", workers=8)
    spread = float((h.max() - h.min()) / abs(h.mean()))
    ok = spread < 1e-2
    record_criterion(6, ok, f"vertex H_s spread={spread:.4g} (tol 1e-2); "
                     "spread is set by the valence-5/valence-6 quadrature "
                     "imbalance, which shrinks as O(h^{1-s}) under refinement")
    assert ok


def test_criterion_07_patch_radius(sphere4):
    radii = patch_radii(sphere4, grad_bound=0.5, grid_step=0.02, rmax=0.55)
    assert not np.any(np.isnan(radii))
    target = 1.0 / np.sqrt(5.0)
    maxerr = float(np.max(np.abs(radii - target)) / target)
    spread = float((radii.max() - radii.min()) / radii.mean())
    ok = maxerr < 0.05 and spread < 0.03
    record_criterion(7, ok, f"patch radius maxerr={maxerr:.4g} (tol 5%), "
                     f"spread={spread:.4g} (tol 3%)")
    assert ok


def test_criterion_08_chord_arc(sphere4):
    gamma = chord_arc_constant(sphere4)["gamma"]
    rel = abs(gamma - np.pi / 2) / (np.pi / 2)
    gammas = [chord_arc_constant(make_primitive("dumbbell", neck_radius=r),
                                 sample_pairs=20000)["gamma"]
              for r in (0.2, 0.1, 0.05)]
    mono = gammas[0] < gammas[1] < gammas[2]
    ok = rel < 0.05 and mono
    record_criterion(8, ok, f"sphere gamma={gamma:.4f} relerr={rel:.3g} "
                     f"(tol 5%), dumbbell gammas="
                     + "/".join(f"{g:.3f}" for g in gammas)
                     + f" increasing={mono}")
    assert ok


def test_criterion_09_ahlfors():
    family = {"sphere": make_primitive("sphere_icosub", subdivisions=3),
              "ellipsoid": make_primitive("ellipsoid",
                                          semi_axes=(1.0, 1.0, 2.0),
                                          subdivisions=3),
              "icosahedron": make_primitive("sphere_icosub", subdivisions=0)}
    per_family = {}
    for name, mesh in family.items():
        rr = np.array([0.05, 0.1, 0.2]) * mesh.diameter
        per_family[name] = min(v for _, v in ahlfors_ratio(mesh, 0, rr))
    floor = min(per_family.values())
    ok = floor >= 2.0
    record_criterion(9, ok, "ahlfors min ratio "
                     + ", ".join(f"{k}={v:.3f}" for k, v in per_family.items())
                     + f"; floor={floor:.3f} (tol >= 2.0)")
    assert ok


def _ms_fields(mesh):
    """Coordinates plus a degree-3 spherical-harmonic sample."""
    dirs = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1)[:, None]
    theta = np.arccos(np.clip(dirs[:, 2], -1, 1))
    phi = np.arctan2(dirs[:, 1], dirs[:, 0])
    harm = sph_harm_y(3, 2, theta, phi).real
    return [mesh.vertices[:, 0], mesh.vertices[:, 1], mesh.vertices[:, 2],
            harm]


def _ms_ratio(mesh, vals):
    f = ScalarField(mesh, vals)
    return lq_norm(f, 4.0) / (sobolev_seminorm(f, 0.5, 2.0) + lq_norm(f, 2.0))


def test_criterion_10_michael_simon():
    level3 = {"sphere": make_primitive("sphere_icosub", subdivisions=3),
              "ellipsoid": make_primitive("ellipsoid",
                                          semi_axes=(1.0, 1.0, 2.0),
                                          subdivisions=3),
              "icosahedron": flat_icosahedron_refined(3)}
    level4 = {"sphere": make_primitive("sphere_icosub", subdivisions=4),
              "ellipsoid": make_primitive("ellipsoid",
                                          semi_axes=(1.0, 1.0, 2.0),
                                          subdivisions=4),
              "icosahedron": flat_icosahedron_refined(4)}
    lam = max(bending_energy(m, build_scheme(m), S_HALF, workers=8).energy
              for m in level3.values())
    worst_drift = 0.0
    constant = 0.0
    for name in level3:
        r3 = [_ms_ratio(level3[name], v) for v in _ms_fields(level3[name])]
        r4 = [_ms_ratio(level4[name], v) for v in _ms_fields(level4[name])]
        constant = max(constant, max(r3 + r4))
        for a, b in zip(r3, r4):
            worst_drift = max(worst_drift, b / a, a / b)
    ok = worst_drift <= 2.0
    record_criterion(10, ok, f"Sobolev-quotient constant={constant:.4f} "
                     f"(Lambda={lam:.4g}), refinement drift x{worst_drift:.3f} "
                     "(tol 2x)")
    assert ok


def test_criterion_11_flow():
    mesh = make_primitive("perturbed_sphere", amplitude=0.05, seed=3,
                          subdivisions=1)
    params = EnergyParameters(s=0.5, p=4.0)
    start = _project_area(mesh)
    e0 = bending_energy(start, build_scheme(start), params).energy
    g = energy_gradient(start, params)
    euler = abs(float(np.sum(g * start.vertices))) / e0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # p = d/s sits on the critical line
        state = minimize(mesh, params, max_iter=50, step0=1e-3,
                         grad_tol=1e-9, smoothing=True, workers=8)
    traj = np.asarray(state.trajectory)
    accepted = len(traj) - 1
    energies = traj[:, 1]
    mono = bool(np.all(np.diff(energies) < 0))
    h0, hT = traj[0, 4], traj[-1, 4]
    ok = accepted >= 50 and mono and hT <= 0.5 * h0 and euler <= 0.03
    record_criterion(11, ok, f"{accepted} accepted iters, monotone={mono}, "
                     f"hausdorff {h0:.4g}->{hT:.4g} (tol 0.5x), "
                     f"Euler residual={euler:.3g} (tol 3%)")
    assert ok


def test_criterion_12_stability():
    amps = (0.01, 0.03, 0.05, 0.1)
    reps = [stability_probe(make_primitive("perturbed_sphere", amplitude=a,
                                           seed=3, subdivisions=3))
            for a in amps]
    useal = [r.u_seminorm / r.R0 for r in reps]
    haus = [r.hausdorff for r in reps]
    mono_u = all(a < b for a, b in zip(useal, useal[1:]))
    mono_h = all(a < b for a, b in zip(haus, haus[1:]))
    ok = mono_u and mono_h
    record_criterion(12, ok, "[u]/R0="
                     + "/".join(f"{u:.3f}" for u in useal)
                     + " hausdorff=" + "/".join(f"{h:.4f}" for h in haus)
                     + f" both increasing={ok}")
    assert ok


def test_criterion_13_brute_force(sphere1, circle128):
    worst = 0.0
    det = True
    for mesh in (circle128, sphere1):
        sc = build_scheme(mesh, "gauss3")
        for kind, fn in (("H", willmore_energy), ("A", bending_energy)):
            vals = [fn(mesh, sc, S_HALF, workers=w).energy for w in (1, 4, 8)]
            det &= vals[0] == vals[1] == vals[2]
            ref = naive_energy(mesh, sc, S_HALF, kind)
            worst = max(worst, abs(vals[0] - ref) / ref)
    # tangent-point energy against its own plain loop (circle)
    sc = build_scheme(circle128, "gauss3")
    tp = [tangent_point_energy(circle128, sc, 2.0, 4.0, workers=w).energy
          for w in (1, 4, 8)]
    det &= tp[0] == tp[1] == tp[2]
    ref_tp = 0.0
    star = {}
    for m, el in enumerate(circle128.elements):
        for v in el:
            star.setdefault(int(v), set()).add(m)
    for i in range(sc.n_samples):
        ex = set()
        for v in circle128.elements[sc.element_of[i]]:
            ex |= star[int(v)]
        acc = 0.0
        for j in range(sc.n_samples):
            if int(sc.element_of[j]) in ex:
                continue
            d = sc.points[i] - sc.points[j]
            r = np.linalg.norm(d)
            dot = abs(float(d @ circle128.element_normals[sc.element_of[j]]))
            acc += dot ** 2 / r ** 2 * sc.weights[j]
        ref_tp += acc * sc.weights[i]
    worst = max(worst, abs(tp[0] - ref_tp) / ref_tp)
    # Sobolev seminorm against a plain double loop
    f = ScalarField(sphere1, sphere1.vertices[:, 2])
    got = sobolev_seminorm(f, 0.5, 2.0)
    ref = 0.0
    V, w = sphere1.vertices, sphere1.vertex_measures
    for i in range(sphere1.n_vertices):
        for j in range(sphere1.n_vertices):
            if i == j:
                continue
            r = np.linalg.norm(V[i] - V[j])
            ref += (f.values[i] - f.values[j]) ** 2 / r ** 3 * w[i] * w[j]
    worst = max(worst, abs(got - ref ** 0.5) / ref ** 0.5)
    ok = worst < 1e-12 and det
    record_criterion(13, ok, f"naive-loop worst relerr={worst:.3g} "
                     f"(tol 1e-12), workers {{1,4,8}} bitwise equal={det}")
    assert ok
