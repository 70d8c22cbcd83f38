import numpy as np
import pytest
from conftest import fd_gradient_oracle, make_bumpy_polygon, traced_peak

from nlcurv import flow, functionals
from nlcurv.errors import (DegenerateGeometry, InvalidParams, StallError,
                           UnsupportedMode)
from nlcurv.flow import (
    _FD_STEP,
    _area_gradient,
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

    def test_memory_is_one_star_array_over_the_tiles(self, bumpy):
        # gauss7: a 6-element star has |J| = 42 samples, |out| = 518 outside
        # it and G |J| = 252 moved ones.  3.30 MB covers the base pass, the
        # moved stars and four tile buffers (the peak with one kernel pass
        # at a time); the star pass adds at most one (|out|, G |J|) array
        peak, _ = traced_peak(lambda: energy_gradient(
            bumpy, PARAMS, order="gauss7", workers=1))
        assert peak < 3.30e6 + 518 * 252 * 8 + 0.1e6

    @pytest.mark.parametrize("ambient", [2, 3])
    def test_matches_full_rebuild_curves(self, ambient):
        mesh = make_bumpy_polygon(ambient)
        g = energy_gradient(mesh, PARAMS)
        ref = fd_gradient_oracle(mesh, PARAMS)
        assert np.abs(g - ref).max() <= 1e-8 * np.abs(ref).max()

    def test_star_of_every_element(self):
        # a 2-gon: each vertex star holds both segments, so no sample lies
        # outside it and skip_vertex_star excludes every pair
        mesh = build_surface(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                             np.array([[0, 1], [1, 0]]))
        assert not energy_gradient(mesh, PARAMS).any()

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


class TestStarPass:
    """One star pass gives the sums of the three kernel passes it replaces,
    bit for bit: b (outer samples over the star J), delta (over the moved
    stars J', a weight column per group) and the rows of J' over the
    outer samples."""

    @pytest.mark.parametrize("tile_pairs", [1 << 16, 64])
    @pytest.mark.parametrize("case", ["sub1-gauss7", "bumpy3d-gauss3"])
    def test_matches_the_kernel_passes(self, monkeypatch, bumpy, case,
                                       tile_pairs):
        # 64 pairs per tile: one-row blocks and many tiles in every pass
        monkeypatch.setattr(functionals, "_TILE_PAIRS", tile_pairs)
        mesh, order = ((bumpy, "gauss7") if case == "sub1-gauss7"
                       else (make_bumpy_polygon(3), "gauss3"))
        scheme = build_scheme(mesh, order)
        Y, W, N, mode, k = functionals._inner_data(mesh, scheme)
        near = functionals._neighbourhoods(mesh, scheme.diagonal_policy)
        star_ptr, star_els = stars = functionals._stars(mesh)
        ptr, ex_row, ex_pos = flow._star_exclusions(mesh, near, stars, k)
        i = int(np.argmax(np.diff(star_ptr)))
        star = star_els[star_ptr[i]:star_ptr[i + 1]]
        J = (star[:, None] * k + np.arange(k)).ravel()
        rest = np.ones(mesh.n_elements, bool)
        rest[star] = False
        out = np.repeat(rest, k).nonzero()[0]
        G, m = 2 * mesh.ambient_n, len(star)
        rng = np.random.default_rng(0)
        ys = np.tile(Y[J], (G, 1)) + 1e-3 * rng.standard_normal((G * len(J),
                                                                 Y.shape[1]))
        ns = np.tile(N[J], (G, 1))
        Wg = np.kron(np.eye(G), W[J][:, None])  # group g's weights, column g
        block = np.zeros((m, mesh.n_elements), bool)
        block[functionals._rows(near, star)] = True
        cols = block.T[scheme.element_of[out]]
        expo = mesh.dim_d + 1 + PARAMS.s
        cut = (1e-14 * mesh.diameter, 1.1e-14 * mesh.diameter)

        def sums(X, excl, inner, c):
            return functionals._kernel_sums(X, excl, inner, c, [(expo, 1.0)],
                                            1)[0]

        want = (
            sums(Y[out], cols.nonzero(), (Y[J], W[J], N[J], mode, k),
                 cut[0]),
            sums(Y[out], np.tile(cols, G).nonzero(), (ys, Wg, ns, mode, k),
                 cut[1]),
            sums(ys, np.tile(np.repeat(block[:, rest], k, axis=0),
                             (G, 1)).nonzero(),
                 (Y[out], W[out], N[out], mode, k), cut[1]))
        got = flow._star_pass(
            (Y[out], N[out], W[out]),
            (np.concatenate([Y[J], ys]), np.concatenate([N[J], ns])), W[J],
            Wg, (ex_row[ptr[i]:ptr[i + 1]], ex_pos[ptr[i]:ptr[i + 1]]),
            mode, k, expo, cut)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


class TestProjection:
    def test_unit_area_exact(self, bumpy):
        assert abs(_project_area(bumpy).area - 1.0) < 1e-13

    def test_idempotent(self, bumpy):
        once = _project_area(bumpy)
        twice = _project_area(once)
        assert abs(twice.area - 1.0) < 1e-14
        assert np.allclose(once.vertices, twice.vertices, atol=1e-14)


    @pytest.mark.parametrize("name", ["bumpy", "polygon2", "polygon3"])
    def test_area_gradient_matches_central_differences(self, request, name):
        mesh = request.getfixturevalue("bumpy") if name == "bumpy" \
            else make_bumpy_polygon(int(name[-1]), n=16)
        h = 1e-5
        fd = np.empty_like(mesh.vertices)
        for i, c in np.ndindex(fd.shape):
            moved = [mesh.vertices.copy() for _ in range(2)]
            moved[0][i, c] += h
            moved[1][i, c] -= h
            fd[i, c] = (mesh.with_vertices(moved[0]).area
                        - mesh.with_vertices(moved[1]).area) / (2 * h)
        assert np.allclose(_area_gradient(mesh), fd, rtol=0, atol=1e-9)

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

    def test_undefined_normal_stops_the_smoothed_flow(self, bowtie):
        # every smoothed trial reads the trial's vertex normals
        with pytest.raises((DegenerateGeometry, StallError)):
            minimize(bowtie, PARAMS, max_iter=2, smoothing=True,
                     order="centroid")

    def test_smoothing_a_space_curve_fails_before_any_pass(self,
                                                           monkeypatch):
        # a curve in 3-space has no vertex normals to smooth along
        calls = []
        monkeypatch.setattr(flow, "_energies",
                            lambda *args, **kw: calls.append(args))
        curve = make_primitive("circle", n=32, ambient=3)
        with pytest.raises(UnsupportedMode, match="tangential smoothing"):
            minimize(curve, PARAMS, max_iter=1, smoothing=True)
        assert calls == []

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

    @pytest.mark.parametrize("sub,seed,iters", [(1, 3, 5), (1, 7, 5),
                                                (2, 3, 3)])
    def test_bounded_trials_match_full_passes(self, monkeypatch, sub, seed,
                                              iters):
        # a mesh's gradient is computed once: it is the same for any
        # worker count (test_worker_determinism), and a run whose trials
        # went astray reaches meshes the others never saw
        grads = {}
        gradient = flow._gradient

        def cached(mesh, *args):
            key = mesh.vertices.tobytes()
            if key not in grads:
                grads[key] = gradient(mesh, *args)
            return grads[key]

        monkeypatch.setattr(flow, "_gradient", cached)
        mesh = make_primitive("perturbed_sphere", amplitude=0.05, seed=seed,
                              subdivisions=sub)
        runs = [minimize(mesh, PARAMS, max_iter=iters, smoothing=True,
                         workers=w) for w in (1, 2)]
        monkeypatch.setattr(flow, "_energies", lambda *args, bound, **kw:
                            functionals._energies(*args, **kw))
        full = minimize(mesh, PARAMS, max_iter=iters, smoothing=True)
        for state in runs:
            assert state.trajectory == full.trajectory
            assert np.array_equal(state.mesh.vertices, full.mesh.vertices)
            assert state.step == full.step

    def test_gradient_reuses_the_latest_full_pass(self, bumpy, monkeypatch):
        # the initial energy is the one unbounded pass over all S rows: each
        # gradient's base sums are the rows of the initial or the accepted
        # trial's pass, which never stops early
        S = build_scheme(bumpy).n_samples
        full = []
        kernel = functionals._kernel_sums

        def counted(X, *args):
            if len(X) == S and (len(args) < 6 or args[5] is None):
                full.append(len(X))
            return kernel(X, *args)

        for module in (functionals, flow):
            monkeypatch.setattr(module, "_kernel_sums", counted)
        state = minimize(bumpy, PARAMS, max_iter=3, smoothing=True)
        assert state.iteration == 3 and full == [S]

    def test_topology_tables_built_once(self):
        # every mesh of a run comes from with_vertices, so a 3-iteration
        # run, its gradients and its bounded trials, builds each table once
        class Counting(dict):
            def __setitem__(self, key, value):
                stores.append(key)
                super().__setitem__(key, value)

        stores = []
        mesh = make_primitive("perturbed_sphere", amplitude=0.05, seed=3,
                              subdivisions=1)
        mesh.__dict__["_tables"] = tables = Counting()
        state = minimize(mesh, PARAMS, max_iter=3, smoothing=True)
        assert state.iteration == 3 and state.mesh._tables is tables
        assert sorted(map(str, stores)) == sorted(map(str, [
            "stars", ("neighbourhoods", "skip_vertex_star"),
            ("sample_exclusions", "skip_vertex_star", 3),
            ("star_exclusions", "skip_vertex_star", 3)]))

    def test_most_first_trials_stop_after_one_part(self, bumpy, monkeypatch):
        # the bench flow op: 12 trials, 11 of them rejected, most after
        # the first of eight parts
        parts = []
        kernel = functionals._kernel_sums

        def counted(*args):
            if len(args) > 6 and args[6] is not None:
                limit, energy = args[6]
                parts.append(0)

                def counting(a, b, sums):
                    parts[-1] += 1
                    return energy(a, b, sums)

                args = (*args[:6], (limit, counting))
            return kernel(*args)

        monkeypatch.setattr(functionals, "_kernel_sums", counted)
        minimize(bumpy, PARAMS, max_iter=1, smoothing=True)
        assert len(parts) == 12 and parts[-1] == 8
        assert sum(n == 1 for n in parts) >= 8

    def test_grad_tol_stop(self, bumpy):
        state = minimize(bumpy, PARAMS, max_iter=2, step0=1e-3,
                         grad_tol=1e9)
        assert state.iteration == 1
        assert len(state.trajectory) == 1
