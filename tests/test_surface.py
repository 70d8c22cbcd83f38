import os
import warnings

import numpy as np
import pytest
from scipy.special import sph_harm_y

from conftest import (make_bowtie, make_trefoil, save_off_with_stray_vertex,
                      subdivide_edge_loop, traced_peak)
from nlcurv import errors, functionals, surface
from nlcurv.functionals import bending_energy, pointwise_curvature
from nlcurv.geodesics import intrinsic_distances
from nlcurv.probes import ahlfors_ratio, extract_patch, patch_radii
from nlcurv.quadrature import build_scheme
from nlcurv.surface import (
    EnergyParameters,
    _harmonic_noise,
    _real_harmonic,
    _rotation_to_z,
    _signed_volume,
    _vertex_indices,
    build_surface,
    convexity_check,
    load_mesh,
    make_primitive,
    rescale,
    save_off,
)


class TestPrimitives:
    def test_icosahedron_counts(self):
        m = make_primitive("sphere_icosub", subdivisions=0)
        assert m.n_vertices == 12 and m.n_elements == 20
        assert _signed_volume(m.vertices, m.elements) > 0

    def test_icosphere_matches_edge_loop(self):
        # the whole-array subdivision numbers and sums the midpoints as
        # the per-edge loop does, so every icosphere keeps its bits
        V, F = surface._icosahedron()
        for sub in range(1, 5):
            V, F = subdivide_edge_loop(V, F)
            V /= np.linalg.norm(V, axis=1)[:, None]
            got = surface.unit_icosphere(sub)
            assert np.array_equal(got[0], V), sub
            assert np.array_equal(got[1], F), sub

    def test_circle_perimeter(self):
        m = make_primitive("circle", radius=1.0, n=4096)
        exact = 2 * 4096 * np.sin(np.pi / 4096)
        assert abs(m.area - exact) < 1e-12
        assert abs(m.area - 2 * np.pi) < 1e-5

    def test_circle_radius_two(self):
        m = make_primitive("circle", radius=2.0, n=1024)
        assert abs(m.area - 4 * np.pi) < 1e-4

    def test_sphere_area_from_below(self):
        m = make_primitive("sphere_icosub", subdivisions=5)
        assert 4 * np.pi * (1 - 0.002) < m.area < 4 * np.pi

    def test_perturbed_zero_amplitude(self):
        a = make_primitive("perturbed_sphere", amplitude=0.0, seed=7,
                           subdivisions=2)
        b = make_primitive("sphere_icosub", subdivisions=2)
        assert np.array_equal(a.vertices, b.vertices)

    def test_primitive_deterministic(self):
        a = make_primitive("perturbed_sphere", amplitude=0.1, seed=11,
                           subdivisions=2)
        b = make_primitive("perturbed_sphere", amplitude=0.1, seed=11,
                           subdivisions=2)
        assert np.array_equal(a.vertices, b.vertices)
        c = make_primitive("perturbed_sphere", amplitude=0.1, seed=12,
                           subdivisions=2)
        assert not np.array_equal(a.vertices, c.vertices)

    def test_unit_normals(self):
        for kind, kw in [("sphere_icosub", {"subdivisions": 2}),
                         ("torus", {}), ("circle", {"n": 32})]:
            m = make_primitive(kind, **kw)
            norms = np.linalg.norm(m.element_normals, axis=1)
            assert np.all(np.abs(norms - 1) < 1e-12)

    @pytest.mark.parametrize("kind", ["sphere_icosub", "ellipsoid", "torus",
                                      "perturbed_sphere", "dumbbell"])
    def test_triangle_geometry_is_np_cross(self, kind):
        # the component-wise cross product is np.cross's formula, bit for bit
        m = make_primitive(kind)
        P = m.vertices[m.elements]
        cr = np.cross(P[:, 1] - P[:, 0], P[:, 2] - P[:, 0])
        A2 = np.linalg.norm(cr, axis=1)
        assert np.array_equal(m.element_normals, cr / A2[:, None])
        assert np.array_equal(m.element_measures, A2 / 2.0)

    def test_vertex_measures_partition(self):
        m = make_primitive("torus")
        assert abs(m.vertex_measures.sum() - m.element_measures.sum()) \
            < 1e-10 * m.area

    @pytest.mark.parametrize("kind,kw", [
        ("circle", {"n": 4}),
        ("sphere_icosub", {"subdivisions": -1}),
        ("sphere_icosub", {"radius": -2.0}),
        ("torus", {"major_radius": 0.3, "minor_radius": 0.5}),
        ("ellipsoid", {"semi_axes": (1.0, -1.0, 2.0)}),
        ("dumbbell", {"neck_radius": 0.95}),
        ("nonesuch", {}),
        ("circle", {"radius": np.inf}),
        ("sphere_icosub", {"radius": np.inf}),
        ("sphere_icosub", {"radius": np.nan}),
        ("torus", {"major_radius": np.inf}),
        ("ellipsoid", {"semi_axes": (1.0, np.inf, 2.0)}),
        ("ellipsoid", {"subdivisions": -1}),
        ("perturbed_sphere", {"subdivisions": -1}),
        ("perturbed_sphere", {"radius": np.inf}),
        ("perturbed_sphere", {"amplitude": np.nan}),
        ("perturbed_sphere", {"amplitude": 0.1, "seed": -1}),
        ("perturbed_sphere", {"amplitude": 0.1, "seed": 1.5}),
        ("perturbed_sphere", {"amplitude": 0.1, "seed": True}),
        ("circle", {"ambient": 5}),
        ("circle", {"ambient": 0}),
        ("ellipsoid", {"semi_axes": (1.0, 2.0)}),
        ("circle", {"bogus": 1}),
    ])
    def test_invalid_params(self, kind, kw):
        # a typed error, never a bare numpy error or a warning first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(errors.InvalidParams):
                make_primitive(kind, **kw)


class TestHarmonics:
    @pytest.mark.parametrize("ell", [2, 3, 4])
    def test_basis_matches_scipy(self, ell):
        # the polynomial basis is the real part (m >= 0) or imaginary part
        # (m < 0) of scipy's complex harmonic, sqrt 2 and Condon-Shortley
        # phase included
        rng = np.random.default_rng(5)
        d = rng.standard_normal((200, 3))
        d = np.vstack([d / np.linalg.norm(d, axis=1)[:, None],
                       [[0, 0, 1.0], [0, 0, -1.0]]])
        theta = np.arccos(np.clip(d[:, 2], -1, 1))
        phi = np.arctan2(d[:, 1], d[:, 0])
        for m in range(-ell, ell + 1):
            Y = sph_harm_y(ell, abs(m), theta, phi)
            ref = (Y.real if m == 0 else np.sqrt(2) * (-1) ** m
                   * (Y.imag if m < 0 else Y.real))
            got = _real_harmonic(ell, m, d)
            assert np.allclose(got, ref, rtol=0, atol=1e-13), m

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_noise_unit_rms(self, seed):
        m = make_primitive("sphere_icosub", subdivisions=4)
        noise = _harmonic_noise(m.vertices, seed)
        w = m.vertex_measures
        assert abs(np.sqrt(noise ** 2 @ w / w.sum()) - 1) < 0.01


class TestValidation:
    def test_non_manifold(self):
        m = make_primitive("sphere_icosub", subdivisions=0)
        with pytest.raises(errors.NonManifoldError):
            build_surface(m.vertices, m.elements[:-1])
        # an open mesh may have boundary edges, not an edge on three faces
        fin = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
        with pytest.raises(errors.NonManifoldError, match="more than two"):
            build_surface(np.r_[np.eye(3), [[0, 0, 1], [1, 1, 1]]], fin,
                          allow_boundary=True)

    @pytest.mark.parametrize("kind, kw", [
        ("sphere_icosub", {"subdivisions": 1}), ("circle", {"n": 16})])
    def test_vertex_on_no_element(self, tmp_path, kind, kw):
        # a vertex on no element has no star, measure or normal, and
        # would still set the diameter and the pair cutoff
        m = make_primitive(kind, **kw)
        stray = f"vertex {m.n_vertices} lies on no element"
        V = np.r_[m.vertices, np.full((1, m.ambient_n), 5.0)]
        for allow_boundary in (False, True):
            with pytest.raises(errors.NonManifoldError, match=stray):
                build_surface(V, m.elements, allow_boundary=allow_boundary)
        save_off_with_stray_vertex(m, tmp_path / "stray.off")
        with pytest.raises(errors.NonManifoldError, match=stray):
            load_mesh(tmp_path / "stray.off")

    @pytest.mark.parametrize("axis", [(0, 0, 1), (1, 2, 2)])
    def test_cancelling_vertex_normals(self, axis):
        # turned off the z-axis, the cancelled sum is roundoff, not zero
        R = _rotation_to_z(np.array(axis) / np.linalg.norm(axis))
        mesh = make_bowtie(R)
        with pytest.raises(errors.DegenerateGeometry,
                           match="undefined normal at vertex 0"):
            mesh.vertex_normals

    def test_open_mesh_allowed_with_flag(self):
        m = make_primitive("sphere_icosub", subdivisions=0)
        open_mesh = build_surface(m.vertices, m.elements[:-1],
                                  allow_boundary=True)
        assert open_mesh.n_elements == 19
        assert np.array_equal(open_mesh.edges, m.edges)

    @pytest.mark.parametrize("kind, kw", [
        ("circle", {}), ("circle", {"ambient": 3}),
        ("sphere_icosub", {"subdivisions": 2}),
        ("ellipsoid", {"subdivisions": 1}), ("torus", {}),
        ("perturbed_sphere", {"amplitude": 0.05, "seed": 3, "subdivisions": 1}),
        ("dumbbell", {}),
    ])
    def test_edges_are_the_sorted_element_edges(self, kind, kw):
        # build_surface takes them from its face count; geodesics relies on
        # the lexicographic row order
        m = make_primitive(kind, **kw)
        el = m.elements
        e = el if m.dim_d == 1 else np.concatenate(
            [el[:, [0, 1]], el[:, [1, 2]], el[:, [2, 0]]])
        ref = np.unique(np.sort(e, axis=1), axis=0)
        assert m.edges.dtype == ref.dtype and np.array_equal(m.edges, ref)

    def test_inconsistent_winding(self):
        m = make_primitive("sphere_icosub", subdivisions=0)
        F = m.elements.copy()
        F[0] = F[0][::-1]
        with pytest.raises(errors.OrientationError):
            build_surface(m.vertices, F)
        c = make_primitive("circle", n=16)
        E = c.elements.copy()
        E[0] = E[0][::-1]
        with pytest.raises(errors.OrientationError, match="segment winding"):
            build_surface(c.vertices, E)

    def test_global_flip_repair(self):
        m = make_primitive("sphere_icosub", subdivisions=1)
        flipped = m.elements[:, ::-1]
        rebuilt = build_surface(m.vertices, flipped)
        assert _signed_volume(rebuilt.vertices, rebuilt.elements) > 0

    def test_codim2_circle(self):
        m = make_primitive("circle", n=64, ambient=3)
        assert m.codim2 and m.element_normals.size == 0
        assert m.element_tangents.shape == (64, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coordinates(self, bad):
        m = make_primitive("sphere_icosub", subdivisions=0)
        V = m.vertices.copy()
        V[3, 1] = bad
        with pytest.raises(errors.ParseError):
            build_surface(V, m.elements)
        with pytest.raises(errors.ParseError):
            m.with_vertices(V)

    def test_with_vertices_keeps_elements(self):
        m = make_primitive("sphere_icosub", subdivisions=1)
        mirrored = m.with_vertices(-m.vertices)
        assert np.array_equal(mirrored.elements, m.elements)
        assert mirrored.edges is m.edges
        assert _signed_volume(mirrored.vertices, mirrored.elements) < 0
        for V in (m.vertices[:-1], m.vertices[:, :2], m.vertices.ravel()):
            with pytest.raises(errors.ParseError):
                m.with_vertices(V)

    def test_topology_tables_follow_the_elements(self):
        # with_vertices and rescale share the elements array and its
        # tables; a mesh built on its own builds its own, read-only too
        m = make_primitive("sphere_icosub", subdivisions=1)
        tables = [functionals._stars(m),
                  functionals._neighbourhoods(m, "skip_vertex_star"),
                  functionals._sample_exclusions(m, build_scheme(m))]
        for derived in (m.with_vertices(-m.vertices), rescale(m, 2.0)):
            assert derived.elements is m.elements
            assert derived._tables is m._tables
            assert functionals._stars(derived) is tables[0]
        twin = build_surface(m.vertices, m.elements)
        assert np.array_equal(twin.elements, m.elements)
        assert twin._tables is not m._tables
        assert functionals._stars(twin) is not tables[0]
        for table in tables:
            for a in table:
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 0


class TestVertexIndices:
    def test_keeps_shape(self, sphere1):
        assert _vertex_indices(sphere1, np.int64(3)).shape == ()
        idx = _vertex_indices(sphere1, [[0], [41]])
        assert idx.dtype == np.intp and idx.tolist() == [[0], [41]]
        assert _vertex_indices(sphere1, []).shape == (0,)

    @pytest.mark.parametrize("bad", [0.5, [1.7], [0, 2.0], [True], "3",
                                     -1, [0, 42], np.uint64(2 ** 63)])
    def test_rejected(self, sphere1, bad):
        with pytest.raises(errors.InvalidParams):
            _vertex_indices(sphere1, bad)

    def test_every_caller_rejects_a_fractional_index(self, sphere1):
        sc = build_scheme(sphere1)
        params = EnergyParameters(s=0.5, p=4.0)
        calls = [lambda: intrinsic_distances(sphere1, [1.7]),
                 lambda: pointwise_curvature(sphere1, sc, params, [2.9]),
                 lambda: patch_radii(sphere1, [0.5]),
                 lambda: extract_patch(sphere1, 0.5),
                 lambda: ahlfors_ratio(sphere1, 0.5, [0.5])]
        for call in calls:
            with pytest.raises(errors.InvalidParams):
                call()


class TestIO:
    def test_off_roundtrip(self, tmp_path, sphere1):
        p = os.path.join(tmp_path, "s.off")
        save_off(sphere1, p)
        m = load_mesh(p)
        assert np.allclose(m.vertices, sphere1.vertices)
        assert np.array_equal(m.elements, sphere1.elements)

    def test_space_curve_roundtrip(self, tmp_path):
        # a non-planar curve loads as a curve in 3-space (codimension 2)
        knot = make_trefoil()
        p = os.path.join(tmp_path, "knot.off")
        save_off(knot, p)
        m = load_mesh(p)
        assert m.codim2 and np.array_equal(m.vertices, knot.vertices)
        params = EnergyParameters(s=0.5, p=4.0)
        assert bending_energy(m, build_scheme(m), params).energy \
            == bending_energy(knot, build_scheme(knot), params).energy
        p = os.path.join(tmp_path, "knot.obj")
        with open(p, "w") as fh:
            for v in knot.vertices:
                fh.write("v %.17g %.17g %.17g\n" % tuple(v))
            n = knot.n_vertices
            fh.write("l " + " ".join(str(i % n + 1) for i in range(n + 1)))
        assert np.array_equal(load_mesh(p).elements, knot.elements)

    def test_obj_cube_inward_flipped(self, tmp_path):
        # all faces wound inward: loader flips to positive volume
        V = np.array([[x, y, z] for x in (0, 1) for y in (0, 1)
                      for z in (0, 1)], float)
        F = [(0, 1, 3), (0, 3, 2), (4, 6, 7), (4, 7, 5), (0, 4, 5),
             (0, 5, 1), (2, 3, 7), (2, 7, 6), (0, 2, 6), (0, 6, 4),
             (1, 5, 7), (1, 7, 3)]
        # that winding is outward; invert it to get an inward cube
        F = [f[::-1] for f in F]
        p = os.path.join(tmp_path, "cube.obj")
        with open(p, "w") as fh:
            for v in V:
                fh.write("v %g %g %g\n" % tuple(v))
            for f in F:
                fh.write("f %d %d %d\n" % tuple(i + 1 for i in f))
        m = load_mesh(p)
        assert _signed_volume(m.vertices, m.elements) > 0

    def test_parse_error(self, tmp_path):
        p = os.path.join(tmp_path, "bad.off")
        with open(p, "w") as fh:
            fh.write("not a mesh\n")
        with pytest.raises(errors.ParseError):
            load_mesh(p)

    @pytest.mark.parametrize("name,text", [
        ("ragged.off", "OFF\n3 1 0\n0 0 0\n1 0\n0 1 0\n3 0 1 2\n"),
        ("ragged.obj", "v 0 0 0\nv 1 0\nv 0 1 0\nf 1 2 3\n"),
    ], ids=["off", "obj"])
    def test_ragged_vertex_line(self, tmp_path, name, text):
        p = os.path.join(tmp_path, name)
        with open(p, "w") as fh:
            fh.write(text)
        with pytest.raises(errors.ParseError):
            load_mesh(p)

    @pytest.mark.parametrize("name,text", [
        ("missing.off", None),
        ("no_faces.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\n"),
    ], ids=["missing", "no_faces"])
    def test_file_without_a_mesh(self, tmp_path, name, text):
        if text is not None:
            (tmp_path / name).write_text(text)
        with pytest.raises(errors.ParseError):
            load_mesh(tmp_path / name)

    def test_fuzzed_files_raise_only_nlcurv_errors(self, tmp_path):
        # one to three tokens of an icosahedron OFF or OBJ replaced,
        # deleted or inserted; load_mesh may raise nothing but an
        # NlcurvError
        V, F = surface._icosahedron()
        off = [["OFF"], [str(len(V)), str(len(F)), "0"]] \
            + [["%.17g" % x for x in v] for v in V] \
            + [["3", *map(str, f)] for f in F]
        obj = [["v", *("%.17g" % x for x in v)] for v in V] \
            + [["f", *(str(i + 1) for i in f)] for f in F]
        pool = ["x", "-1", "0", "2", "99", "1e999", "nan", "1/2", "f", "v",
                "l", "OFF", "3", "#", "1.5", "1e300", "9" * 23]
        rng = np.random.default_rng(0)
        for case in range(300):
            name, lines = ("m.off", off) if case % 2 else ("m.obj", obj)
            lines = [list(line) for line in lines]
            for _ in range(rng.integers(1, 4)):
                line = lines[rng.integers(len(lines))]
                k, op = rng.integers(len(line) + 1), rng.integers(3)
                token = pool[rng.integers(len(pool))]
                if op == 0:
                    line.insert(k, token)
                elif k < len(line):
                    line[k:k + 1] = [token] if op == 1 else []
            path = tmp_path / name
            path.write_text("\n".join(map(" ".join, lines)) + "\n")
            try:
                load_mesh(path)
            except errors.NlcurvError:
                pass


class TestGeometry:
    @pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
    def test_rescale_area(self, sphere2, lam):
        r = rescale(sphere2, lam)
        assert abs(r.area - lam ** 2 * sphere2.area) \
            < 1e-12 * lam ** 2 * sphere2.area

    def test_rescale_identity(self, sphere2):
        r = rescale(sphere2, 1.0)
        assert np.array_equal(r.vertices, sphere2.vertices)

    def test_rescale_norms(self):
        m = rescale(make_primitive("circle", n=64), 3.0)
        assert np.allclose(np.linalg.norm(m.vertices, axis=1), 3.0)

    def test_rescale_invalid(self, sphere2):
        with pytest.raises(errors.InvalidParams):
            rescale(sphere2, -1.0)

    @pytest.mark.parametrize("sub", [0, 1, 2, 3])
    def test_icosphere_convex(self, sub):
        m = make_primitive("sphere_icosub", subdivisions=sub)
        res = convexity_check(m)
        assert res["is_convex"] and res["max_violation"] <= 1e-12

    def test_torus_not_convex(self):
        res = convexity_check(make_primitive("torus"))
        assert not res["is_convex"] and res["max_violation"] > 0

    def test_dented_sphere_matches_brute_force(self):
        m = make_primitive("perturbed_sphere", amplitude=0.3, seed=1,
                           subdivisions=2)
        res = convexity_check(m)
        V, C, N = m.vertices, m.element_centroids, m.element_normals
        brute = max(max(float((x - c) @ n) for c, n in zip(C, N)) for x in V)
        assert not res["is_convex"]
        assert abs(res["max_violation"] - brute) < 1e-14

    def test_diameter_matches_pdist(self):
        from scipy.spatial.distance import pdist

        # over 2048 vertices, several row blocks of the diameter search
        m = make_primitive("perturbed_sphere", amplitude=0.2, seed=1,
                           subdivisions=4)
        ref = pdist(m.vertices).max()
        assert m.n_vertices > 2048
        assert abs(m.diameter - ref) <= 1e-15 * ref

    def test_convexity_memory_bounded(self):
        m = make_primitive("sphere_icosub", subdivisions=4)
        m.diameter, m.element_centroids  # cached outside the trace
        peak, res = traced_peak(lambda: convexity_check(m))
        assert res["is_convex"]
        assert peak <= 8e6  # 512-vertex blocks of all elements took 105 MB

    def test_blocks_do_not_change_diameter_or_convexity(self, monkeypatch):
        def both():
            m = make_primitive("perturbed_sphere", amplitude=0.3, seed=1,
                               subdivisions=2)
            return m.diameter, convexity_check(m)["max_violation"]

        ref = both()
        monkeypatch.setattr(surface, "_PAIR_BUDGET", 100)
        assert both() == ref

    def test_tangents_need_a_curve(self, sphere1):
        with pytest.raises(errors.UnsupportedMode):
            sphere1.element_tangents

    def test_convexity_codim2_unsupported(self):
        with pytest.raises(errors.UnsupportedMode):
            convexity_check(make_primitive("circle", n=32, ambient=3))


class TestEnergyParameters:
    def test_defaults_and_subcritical(self):
        p = EnergyParameters(s=0.5, p=5.0)
        assert p.c_s == 1.0
        assert p.subcritical(2) and not EnergyParameters(s=0.5, p=4.0).subcritical(2)

    def test_limit_normalized(self):
        assert EnergyParameters(s=0.75, normalization="limit_normalized").c_s \
            == 0.25

    @pytest.mark.parametrize("kw", [
        {"s": 0.0}, {"s": 1.0}, {"s": 0.5, "p": 0.0},
        {"s": 0.5, "p": -4.0},
        {"s": 0.5, "normalization": "weird"},
        {"s": 0.5, "p": np.nan}, {"s": 0.5, "p": np.inf},
        {"s": np.nan}, {"s": -0.5},
    ])
    def test_invalid(self, kw):
        with pytest.raises(errors.InvalidParams):
            EnergyParameters(**kw)


class TestParameterDomains:
    """One check per domain: integer counts, positive scales, the mode."""

    @pytest.mark.parametrize("kind, kw", [
        ("circle", {"n": 8.5}), ("circle", {"n": 9.0}),
        ("sphere_icosub", {"subdivisions": True}),
    ])
    def test_integer_counts(self, kind, kw):
        # rejected, not rounded or read as 1
        with pytest.raises(errors.InvalidParams):
            make_primitive(kind, **kw)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_rescale_non_finite(self, sphere2, lam):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(errors.InvalidParams):
                rescale(sphere2, lam)

    def test_no_elements(self):
        with pytest.raises(errors.ParseError):
            build_surface(np.zeros((3, 3)), np.empty((0, 3), int))

    def test_mode_from_array_widths(self):
        plane = make_primitive("circle", n=16)
        space = build_surface(np.c_[plane.vertices, np.zeros(16)],
                              plane.elements)
        assert not plane.codim2 and space.codim2
        assert space.element_normals.shape == (0, 3)
        sphere = make_primitive("sphere_icosub", subdivisions=0)
        for V, E in [(sphere.vertices[:, :2], sphere.elements),
                     (np.c_[space.vertices, np.ones(16)], plane.elements),
                     (plane.vertices[:, :1], plane.elements)]:
            with pytest.raises(errors.InvalidParams):
                build_surface(V, E)
