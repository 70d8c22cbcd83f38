import tracemalloc

import numpy as np
import pytest

from conftest import clipped_measure_oracle
from nlcurv.errors import InvalidParams, NonGraphical
from nlcurv.probes import (
    ahlfors_ratio,
    chord_arc_constant,
    extract_patch,
    patch_radii,
    stability_probe,
)
from nlcurv.surface import make_primitive


@pytest.fixture(scope="module")
def sphere3():
    return make_primitive("sphere_icosub", subdivisions=3)


class TestPatch:
    def test_sphere_heights_match_cap(self, sphere3):
        p = extract_patch(sphere3, 0, grid_step=0.04, rmax=0.4)
        # over the unit sphere the local graph is f(x) = sqrt(1-|x|^2) - 1
        r2 = (p.grid ** 2).sum(1)
        exact = np.sqrt(1 - r2) - 1.0
        assert np.max(np.abs(p.heights - exact)) < 5e-3
        assert abs(np.linalg.norm(p.base_point) - 1.0) < 5e-3

    def test_rotation_orthogonal_and_refit(self, sphere3):
        p = extract_patch(sphere3, 7, grid_step=0.04, rmax=0.3)
        R = p.rotation
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
        # after refitting, the gradient at the base vanishes
        at0 = np.linalg.norm(p.grid, axis=1) < 1e-12
        assert at0.sum() == 1
        assert np.linalg.norm(p.gradients[at0]) < 1e-6

    def test_grad_bound_caps_radius(self, sphere3):
        # |grad f| = g on the unit sphere at planar distance g/sqrt(1+g^2)
        p = extract_patch(sphere3, 0, grad_bound=0.4, grid_step=0.02,
                          rmax=0.55)
        expect = 0.4 / np.sqrt(1 + 0.16)
        assert abs(p.radius - expect) < 0.04

    def test_grid_extent_caps_radius(self, sphere3):
        p = extract_patch(sphere3, 0, grad_bound=10.0, grid_step=0.05,
                          rmax=0.3)
        assert p.radius <= 0.3

    def test_holder_quantities(self, sphere3):
        p = extract_patch(sphere3, 0, grid_step=0.05, rmax=0.3,
                          holder_exponent=0.25)
        assert p.grad_sup > 0 and np.isfinite(p.grad_holder)
        d = p.to_dict()
        assert d["holder_exponent"] == 0.25 and d["n_nodes"] == len(p.grid)

    def test_nongraphical_on_thin_neck(self):
        m = make_primitive("dumbbell", neck_radius=0.1)
        # a vertex on the neck waist: the opposite neck wall enters the slab
        waist = int(np.argmin(np.abs(m.vertices[:, 0])
                              + np.abs(np.linalg.norm(m.vertices[:, 1:], axis=1)
                                       - 0.1)))
        with pytest.raises(NonGraphical):
            extract_patch(m, waist, grid_step=0.05, rmax=0.5, zmax=0.5)

    def test_patch_radii_batch(self, sphere3):
        r = patch_radii(sphere3, vertices=[0, 5, 9], grid_step=0.05, rmax=0.3)
        assert r.shape == (3,)
        assert np.all(np.isfinite(r)) and np.all(r > 0.1)

    def test_patch_radii_nan_on_failure(self):
        m = make_primitive("dumbbell", neck_radius=0.1)
        waist = int(np.argmin(np.abs(m.vertices[:, 0])
                              + np.abs(np.linalg.norm(m.vertices[:, 1:], axis=1)
                                       - 0.1)))
        r = patch_radii(m, vertices=[waist], grid_step=0.05, rmax=0.5,
                        zmax=0.5)
        assert np.isnan(r[0])

    def test_curve_rejected(self, circle128):
        with pytest.raises(InvalidParams):
            extract_patch(circle128, 0)


class TestAhlfors:
    def test_sphere_ratio_near_pi(self, sphere3):
        # area(B(x,r) cap sphere) = pi r^2 exactly on the round sphere
        out = ahlfors_ratio(sphere3, 0, [0.3, 0.6, 1.0])
        for r, ratio in out:
            assert abs(ratio - np.pi) < 0.05 * np.pi

    def test_whole_surface_limit(self, sphere1):
        out = ahlfors_ratio(sphere1, 0, [2.0])
        r, ratio = out[0]
        assert abs(ratio * r ** 2 - sphere1.area) < 1e-14 * sphere1.area

    def test_circle_ratio_near_two(self, circle128):
        # length(B(x,r) cap circle) ~ 2r for small r
        out = ahlfors_ratio(circle128, 0, [0.2, 0.5])
        for r, ratio in out:
            assert abs(ratio - 2.0) < 0.05

    def test_icosahedron_vertex_exact(self):
        # five equilateral corners of angle pi/3 inside the ball
        ico = make_primitive("sphere_icosub", subdivisions=0)
        for r, ratio in ahlfors_ratio(ico, 0, [0.1, 0.2, 0.4]):
            assert abs(ratio - 5 * np.pi / 6) < 1e-14

    def test_flat_square_interior_exact(self, flat_square):
        # the ball meets the plane in a disc inside the square
        x = np.array([0.5, 0.5, 0.0])
        v = int(np.argmin(np.linalg.norm(flat_square.vertices - x, axis=1)))
        assert np.array_equal(flat_square.vertices[v], x)
        for r, ratio in ahlfors_ratio(flat_square, v, [0.05, 0.2, 0.45]):
            assert abs(ratio - np.pi) < 1e-14

    def test_curves_exact_below_edge_length(self, circle128, flat_strip):
        for mesh, v in ((circle128, 0), (flat_strip, 16)):
            edge = mesh.element_measures.min()
            for r, ratio in ahlfors_ratio(mesh, v, [0.3 * edge, 0.9 * edge]):
                assert abs(ratio - 2.0) < 1e-14

    def test_matches_recursive_clipper(self, circle128):
        # the clipper costs seconds per surface radius: four radii in all
        bumpy = make_primitive("perturbed_sphere", amplitude=0.05, seed=3,
                               subdivisions=2)
        ellipsoid = make_primitive("ellipsoid", semi_axes=(1.0, 1.0, 2.0),
                                   subdivisions=2)
        for mesh, v, r in ((bumpy, 7, 0.3), (bumpy, 7, 0.9),
                           (ellipsoid, 0, 0.5), (circle128, 0, 0.5)):
            ref = clipped_measure_oracle(mesh, v, r)
            got = ahlfors_ratio(mesh, v, [r])[0][1] * r ** mesh.dim_d
            assert abs(got - ref) <= 1e-4 * ref

    def test_memory_bounded(self):
        mesh = make_primitive("sphere_icosub", subdivisions=4)
        mesh.diameter  # cached outside the trace
        tracemalloc.start()
        try:
            ahlfors_ratio(mesh, 0, [0.1, 0.5, 1.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6

    def test_invalid_radius(self, sphere1):
        for radii in ([0.0], [100.0], [np.nan, 0.5], [np.inf]):
            with pytest.raises(InvalidParams):
                ahlfors_ratio(sphere1, 0, radii)

    def test_invalid_vertex(self, sphere1):
        for vertex in (-1, sphere1.n_vertices):
            with pytest.raises(InvalidParams):
                ahlfors_ratio(sphere1, vertex, [0.5])
            with pytest.raises(InvalidParams):
                extract_patch(sphere1, vertex)


class TestChordArc:
    def test_sphere_gamma_near_half_pi(self, sphere3):
        res = chord_arc_constant(sphere3)
        # worst pair on a sphere is antipodal: arc pi vs chord 2
        assert abs(res["gamma"] - np.pi / 2) < 0.02 * np.pi / 2
        i, j = res["witness"]
        vi, vj = sphere3.vertices[i], sphere3.vertices[j]
        assert np.linalg.norm(vi + vj) < 0.1  # antipodal witness

    def test_gamma_at_least_one(self, circle128):
        res = chord_arc_constant(circle128, sample_pairs=1000)
        assert res["gamma"] >= 1.0
        assert res["n_pairs"] >= 1000

    def test_seeded_determinism(self, sphere1):
        a = chord_arc_constant(sphere1, sample_pairs=100, seed=4)
        b = chord_arc_constant(sphere1, sample_pairs=100, seed=4)
        assert a == b

    def test_dumbbell_grows_as_neck_shrinks(self):
        gammas = [chord_arc_constant(make_primitive("dumbbell", neck_radius=r),
                                     sample_pairs=4000)["gamma"]
                  for r in (0.2, 0.1)]
        assert gammas[1] > gammas[0] > 1.5


class TestStability:
    def test_round_sphere(self, sphere3):
        rep = stability_probe(sphere3)
        assert rep.starshaped
        assert np.linalg.norm(rep.center) < 1e-12
        assert abs(rep.R0 - 1.0) < 0.01
        assert rep.hausdorff < 0.01
        assert rep.u_seminorm < 0.2

    def test_perturbation_increases_both(self):
        reps = [stability_probe(make_primitive(
            "perturbed_sphere", amplitude=a, seed=3, subdivisions=2))
            for a in (0.01, 0.05, 0.1)]
        h = [r.hausdorff for r in reps]
        u = [r.u_seminorm for r in reps]
        assert h[0] < h[1] < h[2]
        assert u[0] < u[1] < u[2]

    def test_translation_invariant_center(self, sphere2):
        shifted = sphere2.with_vertices(sphere2.vertices + [3.0, -1.0, 2.0])
        a = stability_probe(sphere2)
        b = stability_probe(shifted)
        assert np.allclose(b.center - a.center, [3.0, -1.0, 2.0], atol=1e-10)
        assert abs(a.hausdorff - b.hausdorff) < 1e-10
        assert abs(a.u_seminorm - b.u_seminorm) < 1e-8

    def test_report_dict(self, sphere1):
        d = stability_probe(sphere1).to_dict()
        assert set(d) == {"center", "R0", "u_seminorm", "hausdorff",
                          "starshaped"}
