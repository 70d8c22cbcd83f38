import numpy as np
import pytest
from conftest import fd_gradient_oracle, make_bumpy_polygon

from nlcurv.errors import DegenerateGeometry, InvalidParams, StallError
from nlcurv.flow import (
    _FD_STEP,
    _best_fit_sphere,
    _project_area,
    energy_gradient,
    hausdorff_to_best_sphere,
    minimize,
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
        g = energy_gradient(bumpy, PARAMS)
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
        # the energies and the gradient's vertex rows split between the
        # workers as processes
        a, b = (minimize(bumpy, PARAMS, max_iter=1, step0=1e-3,
                         grad_tol=1e-6, workers=w) for w in (1, 4))
        assert a.trajectory == b.trajectory
        assert np.array_equal(a.mesh.vertices, b.mesh.vertices)

    def test_step_bounds_the_perturbed_diameter(self, bumpy):
        # the perturbed energies' pair cutoff rests on this bound
        V = bumpy.vertices
        e = bumpy.edges
        elen = np.linalg.norm(V[e[:, 0]] - V[e[:, 1]], axis=1)
        ends = e.T.ravel()
        local = np.bincount(ends, np.tile(elen, 2)) / np.bincount(ends)
        for i in range(len(V)):
            step = _FD_STEP * local[i]
            for c in range(3):
                Vp = V.copy()
                Vp[i, c] += step
                assert bumpy.with_vertices(Vp).diameter <= bumpy.diameter + step
                Vp[i, c] -= 2 * step
                assert bumpy.with_vertices(Vp).diameter <= bumpy.diameter + step

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
        mesh = make_bumpy_polygon(ambient)
        g = energy_gradient(mesh, PARAMS)
        ref = fd_gradient_oracle(mesh, PARAMS)
        assert np.abs(g - ref).max() <= 1e-8 * np.abs(ref).max()

    def test_coincident_samples_degenerate(self, circle128):
        # the base pass raises, before any fork; test_processes has the
        # error of a child's share
        n = circle128.n_vertices
        doubled = build_surface(np.vstack([circle128.vertices] * 2),
                                np.vstack([circle128.elements,
                                           circle128.elements + n]))
        for workers in (1, 2):
            with pytest.raises(DegenerateGeometry):
                energy_gradient(doubled, PARAMS, workers=workers)


class TestProjection:
    def test_unit_area_exact(self, bumpy):
        assert abs(_project_area(bumpy).area - 1.0) < 1e-13

    def test_idempotent(self, bumpy):
        once = _project_area(bumpy)
        twice = _project_area(once)
        assert abs(twice.area - 1.0) < 1e-14
        assert np.allclose(once.vertices, twice.vertices, atol=1e-14)


class TestSphereFit:
    def test_exact_sphere(self):
        rng = np.random.default_rng(1)
        d = rng.standard_normal((200, 3))
        d /= np.linalg.norm(d, axis=1)[:, None]
        pts = np.array([1.0, -2.0, 0.5]) + 3.0 * d
        c, r = _best_fit_sphere(pts)
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
        # near-minimal sphere with a step below the line search's minimum
        # step stalls immediately
        m = make_primitive("sphere_icosub", subdivisions=1)
        with pytest.raises(StallError):
            minimize(m, PARAMS, max_iter=2, step0=1e-13, grad_tol=1e-12)

    @pytest.mark.parametrize("kw", [{"step0": 0.0}, {"step0": np.nan},
                                    {"step0": np.inf}, {"grad_tol": np.nan}])
    def test_invalid_step_and_tolerance(self, bumpy, kw):
        with pytest.raises(InvalidParams):
            minimize(bumpy, PARAMS, max_iter=1, **kw)

    @pytest.mark.parametrize("max_iter", [0, -1, 1.5, 2.0, True])
    def test_invalid_max_iter(self, bumpy, max_iter):
        # a run that does nothing would report grad_norm = inf
        with pytest.raises(InvalidParams):
            minimize(bumpy, PARAMS, max_iter=max_iter)

    @pytest.mark.parametrize("step0", [1e100, 1e30])
    def test_rejects_steps_that_break_the_mesh(self, step0):
        # the first trials move coordinates past 1e76, degenerate elements
        # or bring two samples together: each is a rejected trial that
        # halves the step, until one lowers the energy
        m = make_primitive("sphere_icosub", subdivisions=1)
        state = minimize(m, PARAMS, max_iter=1, step0=step0, grad_tol=1e-12)
        energies = [row[1] for row in state.trajectory]
        assert state.iteration == 1 and energies[1] < energies[0]
        assert state.step < 1e-3

    def test_grad_tol_stop(self, bumpy):
        state = minimize(bumpy, PARAMS, max_iter=2, step0=1e-3,
                         grad_tol=1e9)
        assert state.iteration == 1
        assert len(state.trajectory) == 1
