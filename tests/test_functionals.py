import numpy as np
import pytest

from conftest import (
    make_trefoil,
    naive_energy,
    naive_pointwise,
    naive_tangent_point,
    traced_peak,
)
from nlcurv import functionals
from nlcurv.errors import DegenerateGeometry, InvalidParams, UnsupportedMode
from nlcurv.functionals import (
    bending_energy,
    get_workers,
    pointwise_curvature,
    tangent_point_energy,
    willmore_energy,
)
from nlcurv.oracles import circle_fmc, sphere_fmc
from nlcurv.quadrature import build_scheme
from nlcurv.surface import (
    EnergyParameters,
    build_surface,
    make_primitive,
    rescale,
)

PARAMS = EnergyParameters(s=0.5, p=4.0)


class TestPointwise:
    def test_matches_naive_circle(self, circle128):
        sc = build_scheme(circle128, order="gauss3")
        for v in (0, 17, 100):
            fast = pointwise_curvature(circle128, sc, PARAMS, [v], "H")[0]
            ref = naive_pointwise(circle128, sc, PARAMS, v, absolute=False)
            assert abs(fast - ref) < 1e-12 * abs(ref)

    def test_matches_naive_sphere(self, sphere1):
        sc = build_scheme(sphere1, order="gauss3")
        for v in (0, 11, 30):
            fast = pointwise_curvature(sphere1, sc, PARAMS, [v], "A")[0]
            ref = naive_pointwise(sphere1, sc, PARAMS, v, absolute=True)
            assert abs(fast - ref) < 1e-12 * abs(ref)

    def test_circle_toward_oracle(self):
        sc = build_scheme(make_primitive("circle", n=2048), order="gauss7")
        got = pointwise_curvature(make_primitive("circle", n=2048), sc,
                                  PARAMS, [0], "H")[0]
        assert abs(got - circle_fmc(1.0, 0.5)) < 0.1 * abs(circle_fmc(1.0, 0.5))

    def test_sphere_sign_and_symmetry(self, sphere2):
        sc = build_scheme(sphere2, order="gauss3")
        H = pointwise_curvature(sphere2, sc, PARAMS, kind="H")
        assert np.all(H < 0)  # outward normals, convex body
        # vertex classes of the icosphere share values up to symmetry
        assert np.std(H[:12]) < 0.02 * abs(np.mean(H[:12]))

    def test_abs_on_convex_equals_signed(self, sphere2):
        sc = build_scheme(sphere2, order="gauss3")
        H = pointwise_curvature(sphere2, sc, PARAMS, kind="H")
        A = pointwise_curvature(sphere2, sc, PARAMS, kind="A")
        assert np.allclose(np.abs(H), A, rtol=1e-13)

    def test_vertex_subset_matches_full(self, sphere1):
        # unsorted, repeated vertices pick the same rows as the full array
        sc = build_scheme(sphere1, order="gauss3")
        for kind in ("H", "A"):
            full = pointwise_curvature(sphere1, sc, PARAMS, kind=kind)
            some = pointwise_curvature(sphere1, sc, PARAMS, [5, 0, 5, 3],
                                       kind=kind)
            assert np.array_equal(some, full[[5, 0, 5, 3]])

    def test_worker_determinism(self, sphere2):
        sc = build_scheme(sphere2, order="gauss3")
        base = pointwise_curvature(sphere2, sc, PARAMS, kind="H", workers=1)
        for w in (2, 4, 8):
            other = pointwise_curvature(sphere2, sc, PARAMS, kind="H",
                                        workers=w)
            assert np.array_equal(base, other)

    def test_signed_needs_hypersurface(self):
        m = make_primitive("circle", n=32, ambient=3)
        sc = build_scheme(m)
        with pytest.raises(UnsupportedMode):
            pointwise_curvature(m, sc, PARAMS, kind="H")

    def test_projection_matches_hypersurface_for_plane_curve(self):
        plane = make_primitive("circle", n=256)
        space = make_primitive("circle", n=256, ambient=3)
        scp = build_scheme(plane)
        scs = build_scheme(space)
        a = pointwise_curvature(plane, scp, PARAMS, kind="A")
        b = pointwise_curvature(space, scs, PARAMS, kind="A")
        assert np.allclose(a, b, rtol=1e-12)

    def test_flat_meshes_zero(self, flat_square, flat_strip):
        # boundary vertices and curve ends fit their star on the 2-ring
        for mesh in (flat_square, flat_strip):
            h = pointwise_curvature(mesh, build_scheme(mesh), PARAMS, kind="H")
            assert np.all(h == 0.0)

    def test_too_few_neighbours_degenerate(self):
        from nlcurv.surface import build_surface

        tri = build_surface(np.eye(3), [[0, 1, 2]], allow_boundary=True)
        seg = build_surface([[0.0, 0.0], [1.0, 0.0]], [[0, 1]],
                            allow_boundary=True)
        for mesh in (tri, seg):
            with pytest.raises(DegenerateGeometry):
                pointwise_curvature(mesh, build_scheme(mesh), PARAMS, [0],
                                    kind="H")

    @pytest.mark.parametrize("vertex", [-1, 42, 10 ** 6])
    def test_vertex_outside_mesh_rejected(self, sphere1, vertex):
        sc = build_scheme(sphere1)
        with pytest.raises(InvalidParams):
            pointwise_curvature(sphere1, sc, PARAMS, vertex, kind="H")
        with pytest.raises(InvalidParams):
            pointwise_curvature(sphere1, sc, PARAMS, [0, vertex], kind="A")

    def test_coincident_samples_degenerate(self, circle128):
        # two exactly overlapping copies of the circle in one mesh: every
        # sample has a coincident twin on a non-excluded element
        from nlcurv.surface import build_surface

        n = circle128.n_vertices
        V = np.vstack([circle128.vertices, circle128.vertices])
        E = np.vstack([circle128.elements, circle128.elements + n])
        doubled = build_surface(V, E)
        sc = build_scheme(doubled)
        with pytest.raises(DegenerateGeometry):
            bending_energy(doubled, sc, PARAMS)


class TestEnergies:
    @pytest.mark.parametrize("policy", ["skip_same_element",
                                        "skip_vertex_star"])
    @pytest.mark.parametrize("name", ["sphere1", "circle128"])
    def test_matches_naive(self, request, name, policy):
        mesh = request.getfixturevalue(name)
        sc = build_scheme(mesh, order="centroid", diagonal_policy=policy)
        got = bending_energy(mesh, sc, PARAMS).energy
        ref = naive_energy(mesh, sc, PARAMS, "A")
        assert abs(got - ref) < 1e-12 * ref

    def test_willmore_matches_naive(self, circle128):
        sc = build_scheme(circle128, order="gauss3")
        got = willmore_energy(circle128, sc, PARAMS).energy
        ref = naive_energy(circle128, sc, PARAMS, "H")
        assert abs(got - ref) < 1e-12 * ref

    @pytest.mark.parametrize("s,p", [(0.3, 2.0), (0.5, 4.0), (0.7, 5.0)])
    def test_scaling_law(self, sphere1, s, p):
        params = EnergyParameters(s=s, p=p)
        sc = build_scheme(sphere1)
        e1 = willmore_energy(sphere1, sc, params).energy
        lam = 1.7
        big = rescale(sphere1, lam)
        e2 = willmore_energy(big, build_scheme(big), params).energy
        expo = sphere1.dim_d - s * p
        assert abs(e2 - lam ** expo * e1) < 1e-10 * abs(e1)

    def test_willmore_sphere_refines_toward_oracle(self, sphere1, sphere2):
        # the vertex-star exclusion shrinks with h, so the coarse energy
        # underestimates the continuum value and refinement closes the gap
        limit = abs(sphere_fmc(1.0, 0.5)) ** 4 * 4 * np.pi
        e1 = willmore_energy(sphere1, build_scheme(sphere1), PARAMS).energy
        e2 = willmore_energy(sphere2, build_scheme(sphere2), PARAMS).energy
        m3 = make_primitive("sphere_icosub", subdivisions=3)
        e3 = willmore_energy(m3, build_scheme(m3), PARAMS).energy
        assert 0 < e1 < e2 < e3 < limit
        assert limit - e3 < 0.85 * (limit - e1)

    def test_report_metadata(self, sphere1):
        sc = build_scheme(sphere1)
        rep = bending_energy(sphere1, sc, PARAMS)
        d = rep.to_dict()
        assert d["kind"] == "bending" and d["order"] == "gauss3"
        assert d["V"] == sphere1.n_vertices and d["wall_time_s"] > 0

    def test_willmore_rejects_codim2(self):
        m = make_primitive("circle", n=32, ambient=3)
        with pytest.raises(UnsupportedMode):
            willmore_energy(m, build_scheme(m), PARAMS)

    def test_worker_determinism(self, sphere1):
        sc = build_scheme(sphere1)
        vals = {bending_energy(sphere1, sc, PARAMS, workers=w).energy
                for w in (1, 4, 8)}
        assert len(vals) == 1


class TestTangentPoint:
    def test_positive_and_deterministic(self, circle128):
        sc = build_scheme(circle128)
        e1 = tangent_point_energy(circle128, sc, p=2.0, q=4.0).energy
        e2 = tangent_point_energy(circle128, sc, p=2.0, q=4.0, workers=4).energy
        assert e1 > 0 and e1 == e2

    def test_circle_closed_form(self):
        # p=2, q=4 on the unit circle: |<x-y, n(y)>|^2 / |x-y|^{q-p}
        # = (2 sin^2(t/2))^2 / (2 sin(t/2))^2 = sin^2(t/2), whose double
        # integral over the circle is 2 pi^2
        m = make_primitive("circle", n=1024)
        sc = build_scheme(m, order="gauss7", diagonal_policy="skip_same_element")
        e = tangent_point_energy(m, sc, p=2.0, q=4.0).energy
        expect = 2 * np.pi ** 2
        assert abs(e - expect) < 1e-2 * expect

    def test_invalid_exponents(self, circle128):
        sc = build_scheme(circle128)
        for p, q in ((4.0, 2.0), (4.0, 4.0), (2.0, np.inf), (np.nan, 4.0),
                     (2.0, np.nan)):
            with pytest.raises(InvalidParams):
                tangent_point_energy(circle128, sc, p=p, q=q)

    @staticmethod
    def _dense(mesh, sc, p, q):
        """T by np.power over the dense (sample, sample) arrays."""
        Y, W, N, mode, _ = functionals._inner_data(mesh, sc)
        d = sc.points[:, None] - Y
        r2 = np.einsum("ijk,ijk->ij", d, d)
        dot = np.abs(np.einsum("ijk,jk->ij", d, N))
        if mode == "projection":
            dot = np.sqrt(np.maximum(r2 - dot * dot, 0.0))
        row, el = functionals._sample_exclusions(mesh, sc)
        keep = np.ones((sc.n_samples, mesh.n_elements), bool)
        keep[row, el] = False
        keep = np.repeat(keep, sc.n_per_element, axis=1)
        r2 = np.where(keep, r2, 1.0)
        K = np.where(keep, np.power(dot, p) * np.power(r2, -(q - p) / 2), 0.0)
        return float(sc.weights @ K @ sc.weights)

    @pytest.mark.parametrize("name", ["sphere1", "trefoil"])
    def test_integer_powers_match_np_power(self, request, name):
        # integer pairing powers and integer (q - p) / 2 are products; the
        # last pair keeps np.power for both
        mesh = (make_trefoil() if name == "trefoil"
                else request.getfixturevalue(name))
        sc = build_scheme(mesh)
        pairs = [(p, p + gap) for p in (1.0, 2.0, 3.0, 4.0, 5.0)
                 for gap in (1.0, 2.0, 4.0)] + [(2.5, 3.75)]
        for p, q in pairs:
            got = tangent_point_energy(mesh, sc, p=p, q=q).energy
            ref = self._dense(mesh, sc, p, q)
            assert abs(got - ref) <= 1e-12 * ref, (p, q)

    def test_integer_powers_match_naive(self):
        m = make_primitive("circle", n=24)
        sc = build_scheme(m)
        for p, q in ((1.0, 3.0), (3.0, 4.0), (4.0, 8.0), (2.5, 3.75)):
            got = tangent_point_energy(m, sc, p=p, q=q).energy
            ref = naive_tangent_point(m, sc, p, q)
            assert abs(got - ref) <= 1e-12 * ref, (p, q)


class TestTiling:
    """The kernel splits the inner samples into tiles and the outer points
    into blocks; neither split may change a value beyond roundoff, and no
    value may depend on the worker count."""

    def test_workers_bitwise_several_blocks(self, sphere2):
        sc = build_scheme(sphere2)
        # 921,600 sample pairs: several blocks for the energies and for
        # the pointwise rows at the default budget
        assert sphere2.n_vertices * sc.n_samples > 2 * functionals._TILE_PAIRS

        def values(w):
            return [bending_energy(sphere2, sc, PARAMS, workers=w).energy,
                    willmore_energy(sphere2, sc, PARAMS, workers=w).energy,
                    tangent_point_energy(sphere2, sc, p=2.0, q=4.5,
                                         workers=w).energy,
                    *pointwise_curvature(sphere2, sc, PARAMS, kind="H",
                                         workers=w)]

        base = values(1)
        for w in (2, 4):
            assert np.array_equal(values(w), base)

    @pytest.mark.parametrize("name,order", [("sphere1", "gauss3"),
                                            ("circle128", "centroid"),
                                            ("trefoil", "gauss3")])
    def test_small_tiles_match_naive(self, request, monkeypatch, name, order):
        mesh = (make_trefoil() if name == "trefoil"
                else request.getfixturevalue(name))
        sc = build_scheme(mesh, order=order)
        k = sc.n_per_element
        verts = [0, 7, mesh.n_vertices - 1]
        kinds = ("A",) if mesh.codim2 else ("H", "A")

        def values(w):
            out = {"B": bending_energy(mesh, sc, PARAMS, workers=w).energy,
                   "T": tangent_point_energy(mesh, sc, p=2.0, q=4.5,
                                             workers=w).energy}
            if not mesh.codim2:
                out["W"] = willmore_energy(mesh, sc, PARAMS, workers=w).energy
            for kind in kinds:
                out[kind] = pointwise_curvature(mesh, sc, PARAMS, verts,
                                                kind=kind, workers=w)
            return out

        ref = {"B": naive_energy(mesh, sc, PARAMS, "A"),
               "T": naive_tangent_point(mesh, sc, 2.0, 4.5)}
        if not mesh.codim2:
            ref["W"] = naive_energy(mesh, sc, PARAMS, "H")
        for kind in kinds:
            ref[kind] = [naive_pointwise(mesh, sc, PARAMS, v, kind == "A")
                         for v in verts]
        # some sample excludes elements on both sides of a tile boundary
        excl = np.zeros((sc.n_samples, mesh.n_elements), bool)
        excl[functionals._sample_exclusions(mesh, sc)] = True
        split = 100 // k
        assert np.any(excl[:, :split].any(1) & excl[:, split:].any(1))
        # 100 pairs: one-row blocks over several tiles; 1000: one tile,
        # several rows per block
        for budget in (100, 1000):
            monkeypatch.setattr(functionals, "_TILE_PAIRS", budget)
            got = values(1)
            for key, val in ref.items():
                assert np.allclose(got[key], val, rtol=1e-12, atol=0), key
            other = values(4)
            for key in got:
                assert np.array_equal(got[key], other[key]), key

    def test_small_tiles_coincident_degenerate(self, monkeypatch, circle128):
        n = circle128.n_vertices
        doubled = build_surface(
            np.vstack([circle128.vertices, circle128.vertices]),
            np.vstack([circle128.elements, circle128.elements + n]))
        sc = build_scheme(doubled)
        monkeypatch.setattr(functionals, "_TILE_PAIRS", 100)
        for w in (1, 4):
            with pytest.raises(DegenerateGeometry):
                bending_energy(doubled, sc, PARAMS, workers=w)

    @pytest.mark.parametrize("name", ["sphere2", "trefoil"])
    def test_fused_terms_match_single_calls(self, request, monkeypatch,
                                            name):
        # several terms in one pass give each term's single-term sums bit
        # for bit; the trefoil pairs by projection, where only B and T apply
        mesh = (make_trefoil() if name == "trefoil"
                else request.getfixturevalue(name))
        sc = build_scheme(mesh)
        a, p, q = mesh.dim_d + 1 + PARAMS.s, 2.0, 4.5
        terms = [(a, 1.0), (q - p, p)]
        if not mesh.codim2:
            terms.insert(0, (a, None))
        args = (sc.points, functionals._sample_exclusions(mesh, sc),
                functionals._inner_data(mesh, sc),
                functionals._PAIR_CUTOFF * mesh.diameter)
        # the default budget gives several blocks; 100 pairs give tiles
        # with exclusions on both sides of their boundaries
        for budget in (functionals._TILE_PAIRS, 100):
            monkeypatch.setattr(functionals, "_TILE_PAIRS", budget)
            for w in (1, 4):
                fused = functionals._kernel_sums(*args, terms, w)
                assert fused.shape == (len(terms), sc.n_samples)
                for term, row in zip(terms, fused):
                    single = functionals._kernel_sums(*args, [term], w)
                    assert np.array_equal(row, single[0]), (budget, w, term)

    @pytest.mark.parametrize("name", ["sphere1", "trefoil"])
    def test_fused_integer_powers_match_single_calls(self, request, name):
        # |A|_s after H_s reuses H_s's tile, and integer powers of the
        # pairing and of r^2 are products: each still equals its own pass
        mesh = (make_trefoil() if name == "trefoil"
                else request.getfixturevalue(name))
        sc = build_scheme(mesh)
        a = mesh.dim_d + 1 + PARAMS.s
        terms = [(a, 1.0), (2.0, 4.0), (4.0, 3.0), (a, 2.0), (1.5, 2.5)]
        if not mesh.codim2:
            terms.insert(1, (a, None))
        args = (sc.points, functionals._sample_exclusions(mesh, sc),
                functionals._inner_data(mesh, sc),
                functionals._PAIR_CUTOFF * mesh.diameter)
        fused = functionals._kernel_sums(*args, terms, 1)
        for term, row in zip(terms, fused):
            single = functionals._kernel_sums(*args, [term], 1)
            assert np.array_equal(row, single[0]), term

    @pytest.mark.parametrize("name", ["sphere2", "trefoil"])
    def test_weight_columns_match_single_calls(self, request, monkeypatch,
                                               name):
        # a 2-D weight matrix gives, per column, the sums of the 1-D call
        # with that column, up to the summation order of the reduction
        mesh = (make_trefoil() if name == "trefoil"
                else request.getfixturevalue(name))
        sc = build_scheme(mesh)
        Y, W, N, mode, k = functionals._inner_data(mesh, sc)
        Wg = W[:, None] * np.random.default_rng(0).random((len(W), 3))
        terms = [(mesh.dim_d + 1 + PARAMS.s, 1.0), (2.5, 2.0)]
        args = (sc.points, functionals._sample_exclusions(mesh, sc))
        cutoff = functionals._PAIR_CUTOFF * mesh.diameter
        for budget in (functionals._TILE_PAIRS, 100):
            monkeypatch.setattr(functionals, "_TILE_PAIRS", budget)
            grouped = functionals._kernel_sums(
                *args, (Y, Wg, N, mode, k), cutoff, terms, 2)
            assert grouped.shape == (len(terms), sc.n_samples, 3)
            for g in range(3):
                single = functionals._kernel_sums(
                    *args, (Y, Wg[:, g].copy(), N, mode, k), cutoff, terms, 1)
                np.testing.assert_allclose(grouped[..., g], single,
                                           rtol=1e-13, atol=0)

    def test_requests_validated_before_the_pass(self, monkeypatch,
                                                circle128):
        def fail(*args):
            raise AssertionError("kernel ran before validation")

        monkeypatch.setattr(functionals, "_kernel_sums", fail)
        knot = make_trefoil()
        with pytest.raises(UnsupportedMode):
            functionals._energies(knot, build_scheme(knot),
                                  ["bending", "willmore"], 1, PARAMS)
        sc = build_scheme(circle128)
        with pytest.raises(InvalidParams):
            functionals._energies(circle128, sc, ["bending", "tangent_point"],
                                  1, PARAMS, 4.0, 2.0)
        with pytest.raises(InvalidParams):
            functionals._energies(circle128, sc, ["bending"], 0, PARAMS)

    def test_memory_independent_of_samples(self):
        # the diameter is computed beforehand, outside the trace
        peaks = []
        for sub in (2, 3):
            mesh = make_primitive("sphere_icosub", subdivisions=sub)
            mesh.diameter
            sc = build_scheme(mesh)
            peaks.append(traced_peak(lambda: bending_energy(
                mesh, sc, PARAMS, workers=1))[0])
        assert peaks[1] <= 1.5 * peaks[0]
        assert peaks[1] < 16e6
        # B, W and T in one pass keep the four per-worker buffers of one
        fused, _ = traced_peak(lambda: functionals._energies(
            mesh, sc, ["bending", "willmore", "tangent_point"], 1, PARAMS,
            4.0, 6.0))
        assert fused <= 1.1 * peaks[1]


class TestBound:
    """A bounded pass, the flow's line-search trial, stops once the rows
    it has summed exceed the bound; any energy it returns is the unbounded
    pass's, bit for bit."""

    @staticmethod
    def _args(mesh, order):
        sc = build_scheme(mesh, order)
        return (sc.points, functionals._sample_exclusions(mesh, sc),
                functionals._inner_data(mesh, sc), 1e-14 * mesh.diameter,
                [(mesh.dim_d + 1 + PARAMS.s, 1.0)])

    # parts of 32 rows in one 240-row block, of 72 then 45 rows in
    # 117-row blocks, of 12 rows, the sub2 blocks of 68 rows, and parts of
    # 48 rows in 170-row blocks; then regular n-gons whose one block ends
    # 1-3 rows after a whole part: 9 rows in parts of 4 (2-D), 29 in parts
    # of 4 and 73 in parts of 12 (3-D)
    @pytest.mark.parametrize("sub,order", [
        (1, "gauss3"), (1, "gauss7"), (1, "centroid"), (2, "gauss3"),
        (None, "gauss3"),
        pytest.param((9, 2), "centroid", id="9gon-2d-centroid"),
        pytest.param((29, 3), "centroid", id="29gon-3d-centroid"),
        pytest.param((73, 3), "centroid", id="73gon-3d-centroid")])
    def test_unstopped_pass_matches_unbounded(self, circle128, sub, order):
        # guards the OpenBLAS GEMV observation the parts rest on
        if sub is None:
            mesh = circle128
        elif isinstance(sub, tuple):
            mesh = make_primitive("circle", n=sub[0], ambient=sub[1])
        else:
            mesh = make_primitive("perturbed_sphere", amplitude=0.05, seed=3,
                                  subdivisions=sub)
        args = self._args(mesh, order)
        for w in (1, 2):
            parts = []
            bound = (np.inf, lambda a, b, sums: parts.append(b - a) or 0.0)
            full = functionals._kernel_sums(*args, w)
            assert np.array_equal(functionals._kernel_sums(*args, w, bound),
                                  full)
            if w == 1:
                assert sum(parts) == len(args[0])
                # no part holds only a block's last 1-3 rows
                assert min(parts) >= 4
                assert len(parts) >= (2 if isinstance(sub, tuple) else 7)

    def test_energy_at_or_within_the_margin_runs_in_full(self):
        mesh = make_primitive("perturbed_sphere", amplitude=0.05, seed=3,
                              subdivisions=1)
        sc = build_scheme(mesh)
        e = bending_energy(mesh, sc, PARAMS).energy

        def bounded(bound):
            return functionals._energies(mesh, sc, ["bending"], 1, PARAMS,
                                         bound=bound)[0].energy

        # B equal to the bound, or above it by less than the margin: the
        # full pass's B, which a line search rejects as before
        for bound in (e, e / (1 + functionals._BOUND_MARGIN / 2)):
            assert bounded(bound) == e
        assert bounded(e * 1.001) == e
        assert bounded(e * 0.999) == np.inf

    def test_coincident_samples_still_raise(self, circle128):
        # the pair check runs before a part's rows are summed
        n = circle128.n_vertices
        doubled = build_surface(
            np.vstack([circle128.vertices, circle128.vertices]),
            np.vstack([circle128.elements, circle128.elements + n]))
        sc = build_scheme(doubled)
        for w in (1, 4):
            for bound in (np.inf, 0.0):
                with pytest.raises(DegenerateGeometry):
                    functionals._energies(doubled, sc, ["bending"], w,
                                          PARAMS, bound=bound)


class TestExclusionTables:
    """The numpy tables hold exactly the pairs of the sparse incidence
    products they replace: inc.T @ inc (elements sharing a vertex), the
    identity (skip_same_element), and inc's rows (vertex stars)."""

    @staticmethod
    def _incidence(mesh):
        from scipy.sparse import csr_matrix

        el = mesh.elements
        cols = np.repeat(np.arange(len(el)), el.shape[1])
        return csr_matrix((np.ones(el.size, np.int8), (el.ravel(), cols)),
                          shape=(mesh.n_vertices, len(el)))

    @staticmethod
    def _mesh(request, name):
        if name == "trefoil":
            return make_trefoil()
        if name == "torus":
            return make_primitive("torus")
        return request.getfixturevalue(name)

    @staticmethod
    def _pairs(rows, cols):
        assert np.all(np.diff(rows) >= 0)  # row-major
        pairs = set(zip(rows.tolist(), cols.tolist()))
        assert len(pairs) == len(rows)  # no repeats
        return pairs

    @pytest.mark.parametrize("name", ["sphere2", "torus", "circle128",
                                      "trefoil"])
    @pytest.mark.parametrize("policy", ["skip_vertex_star",
                                        "skip_same_element"])
    def test_sample_pairs_match_sparse(self, request, name, policy):
        from scipy.sparse import identity

        mesh = self._mesh(request, name)
        order = "gauss3" if policy == "skip_vertex_star" else "centroid"
        sc = build_scheme(mesh, order, policy)
        inc = self._incidence(mesh)
        near = (identity(mesh.n_elements, format="csr")
                if policy == "skip_same_element" else (inc.T @ inc).tocsr())
        expect = set(zip(*(a.tolist() for a in near[sc.element_of].nonzero())))
        got = self._pairs(*functionals._sample_exclusions(mesh, sc))
        assert got == expect

    @pytest.mark.parametrize("name", ["sphere2", "torus", "circle128",
                                      "trefoil"])
    def test_vertex_rows_match_sparse(self, request, name):
        mesh = self._mesh(request, name)
        verts = np.array([0, 5, 5, mesh.n_vertices - 1, 2])
        expect = set(zip(*(a.tolist()
                           for a in self._incidence(mesh)[verts].nonzero())))
        got = self._pairs(*functionals._rows(functionals._stars(mesh), verts))
        assert got == expect


class TestWorkers:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("NLCURV_WORKERS", "7")
        assert get_workers(3) == 3
        assert get_workers() == 7

    def test_default_one(self, monkeypatch):
        monkeypatch.delenv("NLCURV_WORKERS", raising=False)
        assert get_workers() == 1

    def test_invalid(self):
        with pytest.raises(InvalidParams):
            get_workers(0)

    def test_malformed_env(self, monkeypatch):
        monkeypatch.setenv("NLCURV_WORKERS", "abc")
        with pytest.raises(InvalidParams):
            get_workers()


@pytest.mark.parametrize("kind", ["H", "A"])
@pytest.mark.parametrize("name", ["circle128", "sphere1"])
def test_pointwise_no_vertices(request, name, kind):
    mesh = request.getfixturevalue(name)
    out = pointwise_curvature(mesh, build_scheme(mesh), PARAMS, [], kind)
    assert out.shape == (0,) and out.dtype == float


def test_undefined_normal_fails_only_where_read(bowtie, capfd):
    # vertex curvature rotates the vertex normal to the vertical; B reads
    # the element normals only
    scheme = build_scheme(bowtie, "centroid")
    for kind in ("H", "A"):
        with pytest.raises(DegenerateGeometry,
                           match="undefined normal at vertex 0"):
            pointwise_curvature(bowtie, scheme, PARAMS, kind=kind)
    assert np.isfinite(bending_energy(bowtie, scheme, PARAMS).energy)
    assert capfd.readouterr().err == ""  # nothing from LAPACK either


@pytest.mark.parametrize("workers", [2.0, np.float64(2), np.bool_(True),
                                     "2.5"])
def test_worker_count_is_an_integer(workers):
    with pytest.raises(InvalidParams):
        get_workers(workers)
