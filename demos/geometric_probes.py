"""Geometric regularity probes: Monge patches, Ahlfors ratios, chord-arc
constants, and sphere stability.

Run:  python3 demos/geometric_probes.py
"""

import numpy as np

from nlcurv import (
    ahlfors_ratio,
    chord_arc_constant,
    extract_patch,
    make_primitive,
    stability_probe,
)


def patches():
    print("Monge patch on the unit sphere (sub 3), grad bound 1/2:")
    m = make_primitive("sphere_icosub", subdivisions=3)
    p = extract_patch(m, 0, grad_bound=0.5, grid_step=0.02, rmax=0.55)
    print(f"  radius = {p.radius:.4f}  (the bound |grad f| <= 1/2 is hit at "
          f"planar distance 1/sqrt(5) = {1 / np.sqrt(5):.4f})")
    print(f"  sup |grad f| = {p.grad_sup:.4f}, "
          f"[grad f]_C^0.25 = {p.grad_holder:.4f}, "
          f"{len(p.grid)} grid nodes")


def ahlfors():
    print("\nAhlfors ratios area(B(x,r) cap Sigma) / r^2, in closed form:")
    for name, mesh, exact in [
            ("sphere sub 3", make_primitive("sphere_icosub", subdivisions=3),
             f"smooth sphere pi = {np.pi:.3f}"),
            ("icosahedron", make_primitive("sphere_icosub", subdivisions=0),
             f"five pi/3 corners: 5pi/6 = {5 * np.pi / 6:.3f}")]:
        out = ahlfors_ratio(mesh, 0, [0.2, 0.4, 0.8])
        row = "  ".join(f"r={r:.1f}: {v:.3f}" for r, v in out)
        print(f"  {name:<14} {row}   ({exact})")


def chord_arc():
    print("\nchord-arc constants (intrinsic / extrinsic distance, max):")
    m = make_primitive("sphere_icosub", subdivisions=3)
    print(f"  sphere: gamma = {chord_arc_constant(m)['gamma']:.4f}  "
          f"(exact pi/2 = {np.pi / 2:.4f}, antipodal pairs)")
    for neck in (0.2, 0.1, 0.05):
        d = make_primitive("dumbbell", neck_radius=neck)
        g = chord_arc_constant(d, sample_pairs=5000)["gamma"]
        print(f"  dumbbell neck {neck:4}: gamma = {g:.4f}")


def stability():
    print("\nsphere stability: support-function statistics vs the "
          "comparison sphere S(R0):")
    for amp in (0.0, 0.03, 0.1):
        m = make_primitive("perturbed_sphere", amplitude=amp, seed=3,
                           subdivisions=3)
        rep = stability_probe(m)
        print(f"  amp={amp:4}: R0={rep.R0:.4f}  [u]_W^{{1/2,2}}="
              f"{rep.u_seminorm:.4f}  hausdorff={rep.hausdorff:.4f}  "
              f"starshaped={rep.starshaped}")


if __name__ == "__main__":
    patches()
    ahlfors()
    chord_arc()
    stability()
