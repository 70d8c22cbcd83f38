import numpy as np
import pytest

from nlcurv.errors import DisconnectedMesh
from nlcurv.geodesics import _triangle_graph, check_connected, intrinsic_distances
from nlcurv.surface import build_surface, make_primitive


def test_circle_arc_lengths(circle128):
    d = intrinsic_distances(circle128, sources=[0])[0]
    n = circle128.n_vertices
    seg = 2 * np.sin(np.pi / n)
    hops = np.minimum(np.arange(n), n - np.arange(n))
    assert np.allclose(d, seg * hops, atol=1e-12)


def test_symmetry_and_triangle_inequality(sphere1):
    d = intrinsic_distances(sphere1, sources=None)
    assert d.shape == (42, 42)
    assert np.allclose(d, d.T, atol=1e-12)
    assert np.all(np.diag(d) == 0)
    # spot-check the triangle inequality
    rng = np.random.default_rng(0)
    for _ in range(200):
        i, j, k = rng.integers(0, 42, 3)
        assert d[i, j] <= d[i, k] + d[k, j] + 1e-12


def test_at_least_chord(sphere2):
    d = intrinsic_distances(sphere2, sources=[0])[0]
    chords = np.linalg.norm(sphere2.vertices - sphere2.vertices[0], axis=1)
    assert np.all(d >= chords - 1e-12)


def test_sphere_antipodal_near_pi(sphere2):
    # vertex 1 of the icosahedron construction is antipodal to vertex 0
    d = intrinsic_distances(sphere2, sources=[0])[0]
    far = d.max()
    assert np.pi * 0.98 < far < np.pi * 1.05


def test_refinement_tightens(sphere2):
    coarse = intrinsic_distances(sphere2, sources=[0], refine=False)[0]
    fine = intrinsic_distances(sphere2, sources=[0], refine=True)[0]
    assert np.all(fine <= coarse + 1e-12)
    assert fine.max() < coarse.max()


def test_disconnected_rejected(circle128):
    n = circle128.n_vertices
    V = np.vstack([circle128.vertices, circle128.vertices * 2.0])
    E = np.vstack([circle128.elements, circle128.elements + n])
    two = build_surface(V, E)
    with pytest.raises(DisconnectedMesh):
        check_connected(two)
    with pytest.raises(DisconnectedMesh):
        intrinsic_distances(two, sources=[0])


def test_torus_connected():
    check_connected(make_primitive("torus"))


def _triangle_graph_loop(mesh):
    """Refined-graph arcs by the per-face loop with a midpoint dict."""
    V = mesh.vertices
    e = mesh.edges
    nv = mesh.n_vertices
    mid_id = {tuple(ed): nv + i for i, ed in enumerate(map(tuple, e))}
    P = np.vstack([V, (V[e[:, 0]] + V[e[:, 1]]) / 2])
    rows, cols = [], []
    for a, b, c in mesh.elements:
        mab = mid_id[(a, b) if a < b else (b, a)]
        mbc = mid_id[(b, c) if b < c else (c, b)]
        mca = mid_id[(c, a) if c < a else (a, c)]
        rows += [a, mab, b, mbc, c, mca, mab, mbc, mca, a, b, c]
        cols += [mab, b, mbc, c, mca, a, mbc, mca, mab, mbc, mca, mab]
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    w = np.linalg.norm(P[rows] - P[cols], axis=1)
    return rows, cols, w, len(P)


@pytest.mark.parametrize("name", ["sphere2", "torus"])
def test_refined_graph_matches_loop(request, name):
    mesh = (make_primitive("torus", n_major=16, n_minor=8) if name == "torus"
            else request.getfixturevalue(name))
    got = _triangle_graph(mesh, refine=True)
    ref = _triangle_graph_loop(mesh)
    for g, r in zip(got[:3], ref[:3]):
        assert np.array_equal(g, r)
    assert got[3] == ref[3]
