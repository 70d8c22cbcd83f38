import dataclasses

import numpy as np
import pytest

from conftest import (
    clipped_measure_oracle,
    make_trefoil,
    patch_radius_oracle,
    raycast_heights_oracle,
    segment_distance_oracle,
    traced_peak,
    triangle_distance_oracle,
)
from nlcurv import probes, surface
from nlcurv.errors import InvalidParams, NonGraphical
from nlcurv.probes import (
    _MAX_REFIT,
    _dist_to_surface,
    _fibonacci_sphere,
    ahlfors_ratio,
    chord_arc_constant,
    extract_patch,
    patch_radii,
    stability_probe,
)
from nlcurv.seminorms import graph_linearization_functional, morrey_check
from nlcurv.surface import _ball_pairs, make_primitive


@pytest.fixture(scope="module")
def sphere3():
    return make_primitive("sphere_icosub", subdivisions=3)


def _perturbed(sub, seed=3):
    return make_primitive("perturbed_sphere", amplitude=0.05, seed=seed,
                          subdivisions=sub)


def _chart_bits(chart):
    """Every field of a PatchChart as bytes, or a NonGraphical's message."""
    if isinstance(chart, NonGraphical):
        return str(chart)
    return tuple(np.asarray(getattr(chart, f.name)).tobytes()
                 for f in dataclasses.fields(chart))


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
        p = extract_patch(sphere3, 0, grid_step=0.05, rmax=0.3)
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

    @pytest.mark.parametrize("seed", [3, 7])
    def test_patch_radii_match_extract_patch(self, seed):
        mesh = _perturbed(1, seed)
        one = [extract_patch(mesh, v).radius
               for v in range(mesh.n_vertices)]
        assert np.array_equal(patch_radii(mesh), one)

    @pytest.mark.parametrize("sub, seed, step", [(1, 3, 1), (1, 11, 1),
                                                 (2, 7, 8)])
    def test_patch_radii_match_unbatched_oracle(self, sub, seed, step):
        mesh = _perturbed(sub, seed)
        vs = np.arange(0, mesh.n_vertices, step)
        ref = [patch_radius_oracle(mesh, v) for v in vs]
        assert np.array_equal(patch_radii(mesh, vs), ref, equal_nan=True)

    def test_blocks_do_not_change_results(self, monkeypatch):
        # every chart field, bit for bit, at blocks of one vertex and at the
        # default blocks (all of sub1, two blocks of sub2)
        for sub in (1, 2):
            mesh = _perturbed(sub)
            together = list(probes._patch_charts(
                mesh, np.arange(mesh.n_vertices)))
            assert len(together) == mesh.n_vertices
            for v, chart in enumerate(together):
                alone, = probes._patch_charts(mesh, [v])
                assert _chart_bits(alone) == _chart_bits(chart)
        mesh = _perturbed(1)
        radii = patch_radii(mesh, grid_step=0.05)
        p = extract_patch(mesh, 5, grid_step=0.05)
        p.grad_holder  # computed when first read: here, at the full budget
        monkeypatch.setattr(surface, "_PAIR_BUDGET", 300)
        assert np.array_equal(patch_radii(mesh, grid_step=0.05), radii)
        q = extract_patch(mesh, 5, grid_step=0.05)
        assert np.array_equal(q.gradients, p.gradients)
        assert q.grad_holder == p.grad_holder

    @pytest.mark.parametrize("kind", ["random", "sliver", "on_nodes",
                                      "fan"])
    def test_raycast_matches_dense_oracle(self, kind):
        # rows expanded into nodes, cut to a disc, and hits aggregated per
        # chunk give every height and validity of the per-triangle oracle
        # bit for bit, with slivers and corners on grid nodes and lines
        rng = np.random.default_rng(["random", "sliver", "on_nodes",
                                     "fan"].index(kind))
        for delta, nh in ((0.02, 10), (0.05, 4), (0.013, 12)):
            k, ext = 120, nh * delta
            TP = rng.uniform(-1.2 * ext, 1.2 * ext, (k, 1, 3)) \
                + 10 ** rng.uniform(-3, 0, (k, 1, 1)) * ext \
                * rng.standard_normal((k, 3, 3))
            if kind == "sliver":  # third corner near the first edge's line
                t = rng.uniform(-0.5, 1.5, (k, 1))
                TP[:, 2] = TP[:, 0] + t * (TP[:, 1] - TP[:, 0]) \
                    + 10 ** rng.uniform(-14, -4, (k, 1)) \
                    * rng.standard_normal((k, 3))
            elif kind == "on_nodes":
                TP[..., :2] = np.round(TP[..., :2] / delta) * delta
            elif kind == "fan":  # half-cell corners around the origin
                TP[..., :2] = np.round(TP[..., :2] / (delta / 2)) * delta / 2
                TP[:, 0, :2] = 0.0
            owner = np.sort(rng.integers(0, 3, k))
            for zmax, tol, disc in ((0.3, 1e-6, np.inf), (10.0, 1.0, np.inf),
                                    (0.3, 1e-6, 0.77 * nh)):
                got = probes._raycast_heights(TP, owner, 3, delta, nh, zmax,
                                              tol, disc)
                ref = raycast_heights_oracle(TP, owner, 3, delta, nh, zmax,
                                             tol, disc)
                assert got[0].tobytes() == ref[0].tobytes()
                assert np.array_equal(got[1], ref[1])

    def test_refit_reported(self, sphere3):
        mesh = _perturbed(1)
        charts = [extract_patch(mesh, v)
                  for v in range(mesh.n_vertices)]
        assert any(c.refit_rounds == _MAX_REFIT and c.refit_residual > 1e-10
                   for c in charts)
        d = extract_patch(sphere3, 0).to_dict()
        assert 1 <= d["refit_rounds"] < _MAX_REFIT
        assert d["refit_residual"] <= 1e-10

    def test_holder_quotient_matches_dense(self, sphere3):
        p = extract_patch(sphere3, 7, grid_step=0.02, rmax=0.3)
        r = np.linalg.norm(p.grid[:, None] - p.grid[None], axis=-1)
        np.fill_diagonal(r, np.inf)
        dg = np.linalg.norm(p.gradients[:, None] - p.gradients[None], axis=-1)
        assert len(p.grid) ** 2 > surface._PAIR_BUDGET
        assert p.grad_holder == np.max(dg / r ** 0.25)

    def test_holder_memory_bounded(self):
        mesh = make_primitive("sphere_icosub", subdivisions=4)
        mesh.diameter, mesh.vertex_normals, mesh.element_centroids
        peak, p = traced_peak(lambda: extract_patch(mesh, 0, grid_step=0.02,
                                                     rmax=0.55))
        assert len(p.grid) == 1557
        assert peak <= 8e6  # the dense K x K quotient took 130 MB
        # their dense K x K arrays took 116 and 129 MB
        for call in (lambda: graph_linearization_functional(p, 0.5, 4.0),
                     lambda: morrey_check(p, 0.6, 5.0)):
            assert traced_peak(call)[0] <= 8e6

    def test_patch_radii_memory_independent_of_vertex_count(self):
        peaks = []
        for sub in (1, 2):  # 42 and 162 vertices
            mesh = _perturbed(sub)
            mesh.diameter, mesh.vertex_normals, mesh.element_centroids
            peaks.append(traced_peak(lambda: patch_radii(mesh))[0])
        assert peaks[1] <= 1.25 * peaks[0]


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

    def test_circle_ratio_exact_at_tiny_radii(self):
        # far below the edge length the clip is measured from the vertex
        # end, so |d|^4 no longer cancels against |d|^4
        circle = make_primitive("circle", n=64)
        for r, ratio in ahlfors_ratio(circle, 0, [1e-8, 1e-9, 1e-12]):
            assert abs(ratio - 2.0) <= 1e-9

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
        peak, _ = traced_peak(lambda: ahlfors_ratio(mesh, 0, [0.1, 0.5, 1.0]))
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

    @pytest.mark.parametrize("key", ["grad_bound", "grid_step", "rmax",
                                     "zmax"])
    def test_invalid_patch_sizes(self, sphere1, key):
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(InvalidParams):
                extract_patch(sphere1, 0, **{key: bad})


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

    @pytest.mark.parametrize("n", [0, 0.5, np.nan, np.inf])
    def test_invalid_sample_pairs(self, sphere1, n):
        with pytest.raises(InvalidParams):
            chord_arc_constant(sphere1, sample_pairs=n)

    @pytest.mark.parametrize("seed", [-1, 0.5, "3", None, True])
    def test_invalid_seed(self, sphere1, seed):
        with pytest.raises(InvalidParams):
            chord_arc_constant(sphere1, sample_pairs=100, seed=seed)

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

    def test_regular_polygon_closed_form(self):
        # the 2048 circle samples include every edge midpoint of the 256-gon,
        # the points of the unit circle farthest from it
        rep = stability_probe(make_primitive("circle", n=256))
        assert abs(rep.R0 - 1.0) <= 1e-10
        exact = 2 * np.sin(np.pi / 512) ** 2
        assert abs(rep.hausdorff - exact) <= 1e-10 * exact

    def test_report_dict(self, sphere1):
        d = stability_probe(sphere1).to_dict()
        assert set(d) == {"center", "R0", "u_seminorm", "hausdorff",
                          "starshaped"}


def _queries(mesh, rng):
    """Comparison-sphere samples, vertices, points within 0.01 of the
    surface's edges, element centroids and far points."""
    V = mesh.vertices
    c = V.mean(0)
    R = np.linalg.norm(V - c, axis=1).mean()
    if mesh.ambient_n == 3:
        S = _fibonacci_sphere(2048)
    else:
        th = 2 * np.pi * np.arange(2048) / 2048
        S = np.stack([np.cos(th), np.sin(th)], 1)
    a, b = V[mesh.edges[:, 0]], V[mesh.edges[:, 1]]
    on_edges = a + rng.random((len(a), 1)) * (b - a)
    step = rng.standard_normal(a.shape)
    step *= 0.01 * rng.random((len(a), 1)) / np.linalg.norm(step, axis=1,
                                                            keepdims=True)
    far = 10 * mesh.diameter * rng.standard_normal((64, V.shape[1]))
    return np.concatenate([c + R * S, V, on_edges + step,
                           mesh.element_centroids, c + far])


class TestSurfaceDistance:
    def test_matches_triangle_reference(self):
        mesh = make_primitive("perturbed_sphere", amplitude=0.05, seed=3,
                              subdivisions=2)
        P = _queries(mesh, np.random.default_rng(0))
        got = _dist_to_surface(P, mesh)
        ref = triangle_distance_oracle(P, mesh)
        assert np.abs(got - ref).max() <= 1e-14 * mesh.diameter

    @pytest.mark.parametrize("ambient", [2, 3])
    def test_polylines_match_segment_brute_force(self, ambient):
        mesh = (make_primitive("circle", n=64) if ambient == 2
                else make_trefoil())
        P = _queries(mesh, np.random.default_rng(1))
        got = _dist_to_surface(P, mesh)
        ref = segment_distance_oracle(P, mesh)
        assert np.abs(got - ref).max() <= 1e-14 * mesh.diameter

    def test_memory_independent_of_mesh_size(self):
        peaks = []
        for sub in (2, 3):
            mesh = _perturbed(sub)
            mesh.element_centroids, mesh.element_normals
            P = mesh.vertices.mean(0) + _fibonacci_sphere(2048)
            peaks.append(traced_peak(lambda: _dist_to_surface(P, mesh))[0])
        assert peaks[1] <= 1.1 * peaks[0]

    def test_slices_do_not_change_distances(self, monkeypatch):
        mesh = _perturbed(2)
        P = _queries(mesh, np.random.default_rng(2))
        d = _dist_to_surface(P, mesh)
        monkeypatch.setattr(surface, "_PAIR_BUDGET", 64)
        assert np.array_equal(_dist_to_surface(P, mesh), d)

    def test_zero_at_vertices(self, circle128):
        bumpy = make_primitive("perturbed_sphere", amplitude=0.05, seed=3,
                               subdivisions=2)
        for mesh in (bumpy, circle128, make_trefoil()):
            assert _dist_to_surface(mesh.vertices, mesh).max() <= 1e-15


def _all_pairs(P, C, reach):
    return np.divmod(np.arange(len(P) * len(C)), len(C))


def _exactness_meshes():
    return [_perturbed(1), make_primitive("circle", n=64)]


class TestBallPairs:
    @pytest.mark.parametrize("budget", [64, 1 << 14])
    def test_pairs_match_brute_force(self, monkeypatch, budget):
        # a 64-pair budget gives each 80-centroid row a slice of its own;
        # on the integer lattice many pairs lie exactly at the reach
        monkeypatch.setattr(surface, "_PAIR_BUDGET", budget)
        rng = np.random.default_rng(4)
        lattice = np.indices((5, 4, 4)).reshape(3, -1).T.astype(float)
        cases = [(_queries(m, rng), m.element_centroids)
                 for m in _exactness_meshes()] + [(lattice, lattice[::3])]
        for P, C in cases:
            d2 = sum((P[:, None, c] - C[:, c]) ** 2
                     for c in range(P.shape[1]))
            for reach in (0.3, 1.5, 2.0):
                assert np.array_equal(np.stack(_ball_pairs(P, C, reach)),
                                      np.nonzero(d2 <= reach * reach))
            got = _ball_pairs(P, C, lambda near: np.sqrt(near) + 1.0)
            r = np.sqrt(d2.min(axis=1, keepdims=True)) + 1.0
            assert np.array_equal(np.stack(got), np.nonzero(d2 <= r * r))

    def test_no_points_no_pairs(self, sphere1):
        i, j = _ball_pairs(np.empty((0, 3)), sphere1.element_centroids, 1.0)
        assert i.shape == j.shape == (0,) and i.dtype == j.dtype == np.intp

    def test_pruned_distances_equal_the_all_element_minimum(self, monkeypatch):
        # the same per-pair formula over every element: pruning never drops
        # the element that holds the nearest point
        rng = np.random.default_rng(5)
        for mesh in _exactness_meshes():
            P = _queries(mesh, rng)
            d = _dist_to_surface(P, mesh)
            with monkeypatch.context() as m:
                m.setattr(probes, "_ball_pairs", _all_pairs)
                assert np.array_equal(_dist_to_surface(P, mesh), d)


@pytest.mark.parametrize("kw", [{"grid_step": 1e-300}, {"grid_step": 1e300},
                                {"grid_step": 0.7}, {"rmax": 1e300},
                                {"grid_step": 1e-4}])
def test_patch_grid_size_checked(kw):
    # a grid with no fit window or with tens of millions of nodes
    mesh = make_primitive("sphere_icosub", subdivisions=1)
    with pytest.raises(InvalidParams):
        extract_patch(mesh, 0, **kw)
    with pytest.raises(InvalidParams):
        patch_radii(mesh, [0], **kw)


@pytest.mark.parametrize("kind, kw", [("sphere_icosub", {"subdivisions": 1}),
                                      ("circle", {"n": 64})])
def test_ahlfors_radius_whose_square_underflows(kind, kw):
    with pytest.raises(InvalidParams):
        ahlfors_ratio(make_primitive(kind, **kw), 0, [0.5, 1e-200])
