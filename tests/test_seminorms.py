import numpy as np
import pytest

from conftest import traced_peak
from nlcurv import seminorms, surface
from nlcurv.errors import DegeneratePatch, InvalidParams
from nlcurv.geodesics import intrinsic_distances
from nlcurv.seminorms import (
    DISTANCE_MODES,
    ScalarField,
    _seminorms,
    graph_linearization_functional,
    holder_seminorm,
    lq_norm,
    morrey_check,
    sobolev_seminorm,
)
from nlcurv.surface import make_primitive


class FakePatch:
    """Minimal stand-in for a Monge patch: disc grid with known f and Df."""

    def __init__(self, fn, grad, radius=1.0, grid_step=0.1):
        ax = np.arange(-radius, radius + grid_step / 2, grid_step)
        X, Y = np.meshgrid(ax, ax, indexing="ij")
        P = np.stack([X.ravel(), Y.ravel()], 1)
        keep = np.linalg.norm(P, axis=1) <= radius + 1e-12
        self.grid = P[keep]
        self.heights = np.array([fn(x, y) for x, y in self.grid])
        self.gradients = np.array([grad(x, y) for x, y in self.grid])
        self.radius = radius
        self.grid_step = grid_step


def naive_sobolev(field, alpha, q):
    mesh = field.mesh
    f = field.values
    w = mesh.vertex_measures
    total = 0.0
    for i in range(mesh.n_vertices):
        for j in range(mesh.n_vertices):
            if i == j:
                continue
            r = np.linalg.norm(mesh.vertices[i] - mesh.vertices[j])
            total += (abs(f[i] - f[j]) ** q / r ** (mesh.dim_d + alpha * q)
                      * w[i] * w[j])
    return total ** (1.0 / q)


class TestScalarField:
    def test_validation(self, circle128):
        with pytest.raises(InvalidParams):
            ScalarField(circle128, np.zeros(5))
        with pytest.raises(InvalidParams):
            ScalarField(circle128, np.full(128, np.nan))

    def test_values_frozen(self, circle128):
        f = ScalarField(circle128, np.zeros(128))
        with pytest.raises(ValueError):
            f.values[0] = 1.0


class TestSobolev:
    def test_constant_field_vanishes(self, sphere1):
        f = ScalarField(sphere1, np.ones(sphere1.n_vertices))
        assert sobolev_seminorm(f, 0.5, 2.0) == 0.0
        assert holder_seminorm(f, 0.5) == 0.0

    def test_matches_naive(self, sphere1):
        f = ScalarField(sphere1, sphere1.vertices[:, 2])
        got = sobolev_seminorm(f, 0.5, 2.0)
        ref = naive_sobolev(f, 0.5, 2.0)
        assert abs(got - ref) < 1e-12 * ref

    def test_translation_invariant(self, sphere1):
        a = ScalarField(sphere1, sphere1.vertices[:, 0])
        b = ScalarField(sphere1, sphere1.vertices[:, 0] + 5.0)
        assert abs(sobolev_seminorm(a, 0.3, 3.0)
                   - sobolev_seminorm(b, 0.3, 3.0)) < 1e-12

    def test_homogeneous_in_field(self, sphere1):
        f = sphere1.vertices[:, 1]
        a = sobolev_seminorm(ScalarField(sphere1, f), 0.5, 2.0)
        b = sobolev_seminorm(ScalarField(sphere1, 3.0 * f), 0.5, 2.0)
        assert abs(b - 3.0 * a) < 1e-12 * a

    def test_intrinsic_smaller_kernel(self, sphere1):
        # intrinsic distances are larger, so the seminorm can only shrink
        f = ScalarField(sphere1, sphere1.vertices[:, 2])
        ext = sobolev_seminorm(f, 0.5, 2.0, distance_mode="extrinsic")
        intr = sobolev_seminorm(f, 0.5, 2.0, distance_mode="intrinsic")
        assert 0 < intr < ext

    @pytest.mark.parametrize("kw", [{"alpha": 0.0, "q": 2.0},
                                    {"alpha": 1.5, "q": 2.0},
                                    {"alpha": 0.5, "q": 1.0},
                                    {"alpha": 0.5, "q": np.nan},
                                    {"alpha": 0.5, "q": np.inf}])
    def test_invalid(self, sphere1, kw):
        f = ScalarField(sphere1, np.zeros(sphere1.n_vertices))
        with pytest.raises(InvalidParams):
            sobolev_seminorm(f, **kw)

    def test_unknown_distance_mode(self, sphere1):
        f = ScalarField(sphere1, np.zeros(sphere1.n_vertices))
        with pytest.raises(InvalidParams):
            sobolev_seminorm(f, 0.5, 2.0, distance_mode="astral")


class TestLqHolder:
    def test_lq_constant(self, sphere1):
        f = ScalarField(sphere1, 2.0 * np.ones(sphere1.n_vertices))
        assert abs(lq_norm(f, 2.0) - 2.0 * np.sqrt(sphere1.area)) < 1e-12

    def test_holder_linear_on_circle(self, circle128):
        # f = x with beta = 1: the sup ratio is attained on a chord and is 1
        f = ScalarField(circle128, circle128.vertices[:, 0])
        got = holder_seminorm(f, 1.0)
        assert abs(got - 1.0) < 1e-10

    def test_invalid(self, circle128):
        f = ScalarField(circle128, np.zeros(128))
        for q in (0.5, np.nan, np.inf):
            with pytest.raises(InvalidParams):
                lq_norm(f, q)
        with pytest.raises(InvalidParams):
            holder_seminorm(f, 0.0)


class TestOnePass:
    @pytest.mark.parametrize("mode", ["extrinsic", "intrinsic"])
    def test_matches_public_calls_bitwise(self, sphere2, mode):
        f = ScalarField(sphere2, sphere2.vertices[:, 2] ** 2)
        sob, hol = _seminorms(f, 0.25, 3.0, 0.75, mode)
        assert sob == sobolev_seminorm(f, 0.25, 3.0, mode)
        assert hol == holder_seminorm(f, 0.75, mode)

    @pytest.mark.parametrize("kw", [{"alpha": 0.0}, {"q": 1.0},
                                    {"q": np.nan}, {"beta": 2.0},
                                    {"beta": 0.0},
                                    {"distance_mode": "astral"}])
    def test_validated_before_the_distances(self, monkeypatch, sphere1, kw):
        def fail(*args):
            raise AssertionError("distances built before validation")

        monkeypatch.setattr(seminorms, "_search", fail)
        f = ScalarField(sphere1, sphere1.vertices[:, 0])
        args = {"alpha": 0.5, "q": 2.0, "beta": 0.5,
                "distance_mode": "intrinsic", **kw}
        with pytest.raises(InvalidParams):
            _seminorms(f, **args)


class TestGraphLinearization:
    def test_affine_vanishes(self):
        patch = FakePatch(lambda x, y: 2.0 + 3.0 * x - y,
                          lambda x, y: (3.0, -1.0))
        assert graph_linearization_functional(patch, 0.5, 4.0) < 1e-40

    def test_quadratic_positive(self):
        patch = FakePatch(lambda x, y: x * x + y * y,
                          lambda x, y: (2 * x, 2 * y))
        assert graph_linearization_functional(patch, 0.5, 4.0) > 0.0

    def test_scaling_homogeneity(self):
        s, p = 0.5, 4.0
        base = FakePatch(lambda x, y: x * x, lambda x, y: (2 * x, 0.0))
        lam = 2.0
        # rescale the patch: x -> lam x, f -> lam f (graph dilation)
        scaled = FakePatch(lambda x, y: (x * x) / lam,
                           lambda x, y: (2 * x / lam, 0.0),
                           radius=lam * base.radius,
                           grid_step=lam * base.grid_step)
        a = graph_linearization_functional(base, s, p)
        b = graph_linearization_functional(scaled, s, p)
        assert abs(b - lam ** (2 - s * p) * a) < 1e-10 * a

    def test_small_patch_rejected(self):
        patch = FakePatch(lambda x, y: 0.0, lambda x, y: (0.0, 0.0),
                          radius=0.1, grid_step=0.1)
        with pytest.raises(DegeneratePatch):
            graph_linearization_functional(patch, 0.5, 4.0)

    def test_invalid(self):
        patch = FakePatch(lambda x, y: x * x, lambda x, y: (2 * x, 0.0))
        for s, p in ((0.0, 4.0), (0.5, 0.0), (0.5, -1.0), (0.5, np.nan),
                     (0.5, np.inf)):
            with pytest.raises(InvalidParams):
                graph_linearization_functional(patch, s, p)
        for p in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(InvalidParams):
                morrey_check(patch, 0.6, p)


class TestMorrey:
    def test_quadratic_patch(self):
        patch = FakePatch(lambda x, y: x * x + 0.5 * y * y,
                          lambda x, y: (2 * x, y), grid_step=0.05)
        res = morrey_check(patch, 0.6, 5.0)
        assert res["lhs"] > 0 and res["rhs"] > 0

    def test_regime_guard(self):
        patch = FakePatch(lambda x, y: x, lambda x, y: (1.0, 0.0))
        with pytest.raises(InvalidParams):
            morrey_check(patch, 0.4, 4.0)

    def test_inner_disc_needs_two_nodes(self):
        # twelve nodes on the rim and one at the centre: enough for a patch,
        # but the inner disc of 0.75 times the radius holds one
        patch = FakePatch(lambda x, y: 0.0, lambda x, y: (0.0, 0.0))
        t = 2 * np.pi * np.arange(12) / 12
        patch.grid = np.r_[[[0.0, 0.0]], np.c_[np.cos(t), np.sin(t)]]
        patch.heights, patch.gradients = np.zeros(13), np.zeros((13, 2))
        with pytest.raises(DegeneratePatch, match="inner disc"):
            morrey_check(patch, 0.6, 5.0)


def _quadratic_patch():
    return FakePatch(lambda x, y: x * x + 0.5 * y * y,
                     lambda x, y: (2 * x, y), grid_step=0.05)


class TestPairBlocks:
    @pytest.mark.parametrize("mode", DISTANCE_MODES)
    def test_matches_dense(self, sphere2, mode):
        V = sphere2.vertices
        f = ScalarField(sphere2, V[:, 0] ** 2 + V[:, 2])
        assert len(V) ** 2 > surface._PAIR_BUDGET
        D = (np.linalg.norm(V[:, None] - V[None], axis=-1)
             if mode == "extrinsic" else intrinsic_distances(sphere2))
        np.fill_diagonal(D, np.inf)
        df = np.abs(f.values[:, None] - f.values[None])
        assert holder_seminorm(f, 0.75, mode) == np.max(df / D ** 0.75)
        w = sphere2.vertex_measures
        ref = np.einsum("ij,i,j->", df ** 3 / D ** 2.75, w, w) ** (1 / 3)
        assert abs(sobolev_seminorm(f, 0.25, 3.0, mode) - ref) <= 1e-12 * ref

    def test_morrey_lhs_matches_dense(self):
        patch = _quadratic_patch()
        inner = np.linalg.norm(patch.grid, axis=1) <= 0.75 * patch.radius
        X, G = patch.grid[inner], patch.gradients[inner]
        r = np.linalg.norm(X[:, None] - X[None], axis=-1)
        np.fill_diagonal(r, np.inf)
        dg = np.linalg.norm(G[:, None] - G[None], axis=-1)
        assert morrey_check(patch, 0.6, 5.0)["lhs"] == np.max(dg / r ** 0.2)

    def test_blocks_do_not_change_results(self, monkeypatch, sphere2):
        f = ScalarField(sphere2, sphere2.vertices[:, 1] ** 3)
        patch = _quadratic_patch()

        def results():
            maxima = [holder_seminorm(f, 0.5, m) for m in DISTANCE_MODES]
            sums = [sobolev_seminorm(f, 0.5, 2.0, m) for m in DISTANCE_MODES]
            morrey = morrey_check(patch, 0.6, 5.0)
            maxima.append(morrey["lhs"])
            sums += [morrey["rhs"],
                     graph_linearization_functional(patch, 0.5, 4.0)]
            return maxima, np.array(sums)

        maxima, sums = results()
        monkeypatch.setattr(surface, "_PAIR_BUDGET", 200)
        small_maxima, small_sums = results()
        assert small_maxima == maxima
        assert np.all(np.abs(small_sums - sums) <= 1e-15 * sums)

    def test_memory_bounded(self):
        mesh = make_primitive("perturbed_sphere", amplitude=0.05, seed=3,
                              subdivisions=4)
        f = ScalarField(mesh, mesh.vertices[:, 2] ** 2)
        # the dense V x V distance matrix took 420 MB
        for call in (lambda: sobolev_seminorm(f, 0.5, 2.0),
                     lambda: holder_seminorm(f, 0.5)):
            assert traced_peak(call)[0] <= 8e6
