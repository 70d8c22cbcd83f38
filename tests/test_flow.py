import tracemalloc

import numpy as np
import pytest
from conftest import fd_gradient_oracle

from nlcurv.errors import DegenerateGeometry, InvalidParams, StallError
from nlcurv.flow import (
    _diameters_without,
    best_fit_sphere,
    energy_gradient,
    hausdorff_to_best_sphere,
    minimize,
    project_area,
)
from nlcurv.functionals import bending_energy
from nlcurv.quadrature import build_scheme
from nlcurv.surface import EnergyParameters, build_surface, make_primitive

PARAMS = EnergyParameters(s=0.5, p=5.0)  # subcritical: 5 > 2/0.5


@pytest.fixture(scope="module")
def bumpy():
    return make_primitive("perturbed_sphere", amplitude=0.05, seed=3,
                          subdivisions=1)


class TestGradient:
    def test_directional_derivative(self, bumpy):
        g = energy_gradient(bumpy, PARAMS, h=1e-4)
        rng = np.random.default_rng(0)
        d = rng.standard_normal(bumpy.vertices.shape)
        d /= np.linalg.norm(d)
        eps = 1e-5

        def e_at(t):
            m = bumpy.with_vertices(bumpy.vertices + t * d)
            return bending_energy(m, build_scheme(m), PARAMS).energy

        fd = (e_at(eps) - e_at(-eps)) / (2 * eps)
        assert abs(fd - float((g * d).sum())) < 1e-3 * abs(fd)

    def test_worker_determinism(self, bumpy):
        a = energy_gradient(bumpy, PARAMS, workers=1)
        b = energy_gradient(bumpy, PARAMS, workers=4)
        assert np.array_equal(a, b)

    def test_invalid_step(self, bumpy):
        with pytest.raises(InvalidParams):
            energy_gradient(bumpy, PARAMS, h=0.0)

    @pytest.mark.parametrize("order,policy", [
        ("gauss3", "skip_vertex_star"),
        ("gauss7", "skip_vertex_star"),
        ("centroid", "skip_same_element"),
    ])
    def test_matches_full_rebuild(self, bumpy, order, policy):
        g = energy_gradient(bumpy, PARAMS, order=order,
                            diagonal_policy=policy)
        ref = fd_gradient_oracle(bumpy, PARAMS, order=order,
                                 diagonal_policy=policy)
        assert np.abs(g - ref).max() <= 1e-8 * np.abs(ref).max()

    @pytest.mark.parametrize("ambient", [2, 3])
    def test_matches_full_rebuild_curves(self, ambient):
        # a bumpy 64-gon in the plane, and lifted out of it in 3-space
        n = 64
        th = 2 * np.pi * np.arange(n) / n
        r = 1.0 + 0.05 * np.random.default_rng(2).standard_normal(n)
        V = np.stack([r * np.cos(th), r * np.sin(th)], 1)
        E = np.stack([np.arange(n), (np.arange(n) + 1) % n], 1)
        if ambient == 3:
            V = np.c_[V, 0.2 * np.sin(3 * th)]
        mesh = build_surface(V, E, codim2=ambient == 3)
        params = EnergyParameters(
            s=0.5, p=5.0,
            codim_mode="projection" if ambient == 3 else "hypersurface")
        g = energy_gradient(mesh, params)
        ref = fd_gradient_oracle(mesh, params)
        assert np.abs(g - ref).max() <= 1e-8 * np.abs(ref).max()

    def test_coincident_samples_degenerate(self, circle128):
        n = circle128.n_vertices
        doubled = build_surface(np.vstack([circle128.vertices] * 2),
                                np.vstack([circle128.elements,
                                           circle128.elements + n]))
        with pytest.raises(DegenerateGeometry):
            energy_gradient(doubled, PARAMS)

    def test_diameters_without(self, bumpy, sphere1):
        # sphere1 has many tied antipodal pairs, bumpy one farthest pair
        for mesh in (bumpy, sphere1):
            V = mesh.vertices
            ref = []
            for i in range(len(V)):
                rest = np.delete(V, i, 0)
                d2 = ((rest[:, None, :] - rest[None, :, :]) ** 2).sum(-1)
                ref.append(np.sqrt(d2.max()))
            assert np.array_equal(_diameters_without(V), ref)

    def test_diameters_without_memory_bounded(self):
        # numpy reports its buffers to tracemalloc, so the peak is exact;
        # sub3 and sub4 both run in several row blocks
        peaks = []
        for sub in (3, 4):
            V = make_primitive("perturbed_sphere", amplitude=0.05, seed=3,
                               subdivisions=sub).vertices
            tracemalloc.start()
            try:
                got = _diameters_without(V)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]
        assert peaks[1] < 8e6
        d2 = ((V[:, None, :] - V[None, :, :]) ** 2).sum(-1)
        for i in range(0, len(V), 97):
            rest = d2.copy()
            rest[i] = rest[:, i] = -1.0
            assert got[i] == np.sqrt(rest.max())


class TestProjection:
    def test_unit_area_exact(self, bumpy):
        assert abs(project_area(bumpy).area - 1.0) < 1e-13

    def test_idempotent(self, bumpy):
        once = project_area(bumpy)
        twice = project_area(once)
        assert abs(twice.area - 1.0) < 1e-14
        assert np.allclose(once.vertices, twice.vertices, atol=1e-14)


class TestSphereFit:
    def test_exact_sphere(self):
        rng = np.random.default_rng(1)
        d = rng.standard_normal((200, 3))
        d /= np.linalg.norm(d, axis=1)[:, None]
        pts = np.array([1.0, -2.0, 0.5]) + 3.0 * d
        c, r = best_fit_sphere(pts)
        assert np.allclose(c, [1.0, -2.0, 0.5], atol=1e-10)
        assert abs(r - 3.0) < 1e-10

    def test_hausdorff_zero_on_sphere(self, sphere2):
        assert hausdorff_to_best_sphere(sphere2) < 1e-10


class TestMinimize:
    def test_descent_rounds_the_mesh(self, bumpy):
        state = minimize(bumpy, PARAMS, max_iter=6, step0=1e-3,
                         grad_tol=1e-6, smoothing=True)
        traj = np.asarray(state.trajectory)
        energies = traj[:, 1]
        assert len(energies) >= 3
        assert np.all(np.diff(energies) < 0)
        assert np.allclose(traj[:, 2], 1.0, atol=1e-12)  # area pinned
        assert traj[-1, 4] < traj[0, 4]  # closer to a round sphere

    def test_callback_sees_every_accepted_step(self, bumpy):
        seen = []
        state = minimize(bumpy, PARAMS, max_iter=3, step0=1e-3,
                         grad_tol=1e-6,
                         callback=lambda row, mesh: seen.append(row))
        assert tuple(seen) == state.trajectory

    def test_subcritical_warning(self, bumpy):
        crit = EnergyParameters(s=0.5, p=3.0)  # 3 <= 2/0.5
        with pytest.warns(UserWarning):
            minimize(bumpy, crit, max_iter=1, step0=1e-3, grad_tol=1e-6)

    def test_stall_on_minimum(self):
        # near-minimal sphere with a tiny step budget stalls immediately
        m = make_primitive("sphere_icosub", subdivisions=1)
        with pytest.raises(StallError):
            minimize(m, PARAMS, max_iter=2, step0=1e-30, min_step=1e-31,
                     grad_tol=1e-12)

    def test_grad_tol_stop(self, bumpy):
        state = minimize(bumpy, PARAMS, max_iter=2, step0=1e-3,
                         grad_tol=1e9)
        assert state.iteration == 1
        assert len(state.trajectory) == 1
