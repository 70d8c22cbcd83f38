"""Area-constrained gradient descent on the nonlocal bending energy.

A perturbed sphere flows back toward roundness: energy decreases
monotonically while the Hausdorff distance to the best-fit sphere shrinks.
Along the descent the table follows the paper's chain, energy -> patch
radius -> lower Ahlfors regularity -> stability: once the surface is
convex, Q = r_min * W^(1/(sp - d)) (r_min the smallest patch radius, W the
fractional Willmore energy; W^2 here) stays bounded below, while the
Ahlfors floor rises and the support function's seminorm [u]/R0 and the
Hausdorff distance fall.

Run:  python3 demos/descent_to_roundness.py   (about five seconds)
"""

import numpy as np

from nlcurv import (EnergyParameters, ahlfors_ratio, build_scheme,
                    convexity_check, make_primitive, minimize, patch_radii,
                    stability_probe, willmore_energy)

if __name__ == "__main__":
    mesh = make_primitive("perturbed_sphere", amplitude=0.05, seed=3,
                          subdivisions=1)
    params = EnergyParameters(s=0.5, p=5.0)
    print("minimizing B_{1/2,5} over area == 1, perturbed icosphere "
          f"({mesh.n_vertices} vertices)")
    iterates = []
    state = minimize(mesh, params, max_iter=30, step0=1e-3, grad_tol=1e-9,
                     smoothing=True, workers=4,
                     callback=lambda row, m: iterates.append((row, m)))
    print(f"{'iter':>5} {'energy':>12} {'hausdorff':>10} {'convex':>7} "
          f"{'r_min':>7} {'Q':>9} {'ahlfors':>8} {'[u]/R0':>7}")
    step = max(1, len(iterates) // 12)
    for k, (row, m) in enumerate(iterates):
        if k % step and k < len(iterates) - 1:
            continue
        convex = convexity_check(m)["is_convex"]
        r_min = patch_radii(m, grid_step=0.01, rmax=0.3, zmax=0.3).min()
        w = willmore_energy(m, build_scheme(m), params).energy
        rr = np.array([0.05, 0.1, 0.2]) * m.diameter
        ahl = min(v for x in range(m.n_vertices)
                  for _, v in ahlfors_ratio(m, x, rr))
        rep = stability_probe(m)
        print(f"{int(row[0]):5d} {row[1]:12.4f} {row[4]:10.5f} "
              f"{str(convex):>7} {r_min:7.4f} {r_min * w ** 2:9.3g} "
              f"{ahl:8.3f} {rep.u_seminorm / rep.R0:7.4f}")
    traj = np.asarray(state.trajectory)
    print(f"\nenergy {traj[0, 1]:.4f} -> {traj[-1, 1]:.4f}, "
          f"hausdorff-to-best-sphere {traj[0, 4]:.4f} -> {traj[-1, 4]:.4f}")
