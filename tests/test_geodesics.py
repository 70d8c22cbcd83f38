import numpy as np
import pytest
from conftest import (make_bumpy_polygon, make_flat_strip, make_trefoil,
                      traced_peak)
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import dijkstra

from nlcurv.errors import DisconnectedMesh, InvalidParams
from nlcurv.geodesics import _triangle_graph, intrinsic_distances
from nlcurv.surface import build_surface, make_primitive


def _graph(mesh):
    """The scipy reference: the CSR matrix of the refined graph with both
    arcs of every edge, a curve's edges or those of _triangle_graph."""
    if mesh.dim_d == 1:
        V, (rows, cols) = mesh.vertices, mesh.edges.T
        w, n = np.linalg.norm(V[rows] - V[cols], axis=1), len(V)
    else:
        rows, cols, w, n = _triangle_graph(mesh)
    rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    order = np.lexsort((cols, rows))
    return csr_matrix((np.concatenate([w, w])[order], cols[order],
                       np.searchsorted(rows[order], np.arange(n + 1))),
                      shape=(n, n))


def _sliver():
    """The sub2 icosphere with one edge shrunk to 1e-4 of its length: one
    arc far shorter than the rest."""
    mesh = make_primitive("sphere_icosub", subdivisions=2)
    V = mesh.vertices.copy()
    a, b = mesh.edges[0]
    V[b] = V[a] + 1e-4 * (V[b] - V[a])
    return build_surface(V, mesh.elements)


_MESHES = {
    "torus": lambda: make_primitive("torus"),
    "trefoil": make_trefoil,
    "perturbed3": lambda: make_primitive("perturbed_sphere", amplitude=0.05,
                                         seed=3, subdivisions=3),
    # pole vertices of valence 12: a third degree group of arcs
    "dumbbell": lambda: make_primitive("dumbbell", n_profile=12,
                                       n_theta=12),
    "sliver": _sliver,
    "strip": make_flat_strip,  # an open curve: its graph is one path
    # unequal segments: labels straddle bucket edges on degree-2 arcs
    "bumpy2": lambda: make_bumpy_polygon(2),
    "bumpy3": lambda: make_bumpy_polygon(3),
}


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
    e = sphere2.edges
    w = np.linalg.norm(sphere2.vertices[e[:, 0]] - sphere2.vertices[e[:, 1]],
                       axis=1)
    edge_graph = coo_matrix((w, (e[:, 0], e[:, 1])),
                            shape=(sphere2.n_vertices,) * 2)
    coarse = dijkstra(edge_graph, directed=False, indices=[0])[0]
    fine = intrinsic_distances(sphere2, sources=[0])[0]
    assert np.all(fine <= coarse + 1e-12)
    assert fine.max() < coarse.max()


@pytest.mark.parametrize("name", ["sphere1", "circle128"])
def test_sources_outside_vertices_rejected(request, name):
    # on a triangle mesh, nodes V .. V + E - 1 of the refined graph are
    # edge midpoints, not vertices
    mesh = request.getfixturevalue(name)
    n = mesh.n_vertices
    for source in (-1, n, n + 57, 10 ** 6):
        with pytest.raises(InvalidParams):
            intrinsic_distances(mesh, sources=[0, source])


@pytest.mark.parametrize("name", ["sphere2", "torus", "circle128", "trefoil",
                                  "perturbed3", "dumbbell", "sliver",
                                  "strip", "bumpy2", "bumpy3"])
def test_directed_search_matches_undirected(request, name):
    mesh = _MESHES[name]() if name in _MESHES \
        else request.getfixturevalue(name)
    # the undirected search re-symmetrises a graph that is already symmetric
    nv = mesh.n_vertices
    ref = dijkstra(_graph(mesh), directed=False,
                   indices=np.arange(nv))[:, :nv]
    got = intrinsic_distances(mesh)
    assert np.array_equal(got, ref)
    sources = [nv - 1, 0, 3, 3]
    assert np.array_equal(intrinsic_distances(mesh, sources), ref[sources])


@pytest.mark.parametrize("name", ["perturbed2", "circle128"])
def test_relabelled_vertices_give_relabelled_distances(request, name):
    # the search renumbers the graph's nodes by degree and settles them in
    # any order: neither may move a bit
    mesh = make_primitive("perturbed_sphere", amplitude=0.05, seed=3,
                          subdivisions=2) if name == "perturbed2" \
        else request.getfixturevalue(name)
    perm = np.random.default_rng(1).permutation(mesh.n_vertices)
    new = np.empty_like(perm)
    new[perm] = np.arange(len(perm))
    relabelled = build_surface(mesh.vertices[perm], new[mesh.elements])
    got = intrinsic_distances(relabelled)
    assert np.array_equal(got, intrinsic_distances(mesh)[np.ix_(perm, perm)])


@pytest.mark.parametrize("name", ["sphere1", "circle128"])
def test_no_sources_give_no_rows(request, name):
    mesh = request.getfixturevalue(name)
    assert intrinsic_distances(mesh, []).shape == (0, mesh.n_vertices)


def test_memory_holds_only_the_vertex_columns():
    # the whole-graph search kept all V + E refined-graph columns per
    # source.  The mesh caches its edge table, which is built outside the
    # trace.
    def overhead(sub):
        mesh = make_primitive("sphere_icosub", subdivisions=sub)
        mesh.edges
        peak, d = traced_peak(lambda: intrinsic_distances(mesh))
        return peak - d.nbytes

    small, big = overhead(2), overhead(3)
    assert big <= 5 * small  # linear in V (x4), not quadratic (x16)
    assert big < 4e6


def test_disconnected_rejected(circle128):
    n = circle128.n_vertices
    V = np.vstack([circle128.vertices, circle128.vertices * 2.0])
    E = np.vstack([circle128.elements, circle128.elements + n])
    two = build_surface(V, E)
    for sources in ([0], [n + 5], None):
        with pytest.raises(DisconnectedMesh):
            intrinsic_distances(two, sources=sources)


def test_torus_connected():
    assert np.isfinite(intrinsic_distances(make_primitive("torus"),
                                           sources=[0])).all()


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
    # the same arcs with the same weights; the loop emits each half edge
    # once per adjacent face, _triangle_graph once
    got = _triangle_graph(mesh)
    ref = _triangle_graph_loop(mesh)

    def arcs(rows, cols, w, n):
        return n, set(zip([*rows.tolist(), *cols.tolist()],
                          [*cols.tolist(), *rows.tolist()], 2 * w.tolist()))

    assert arcs(*got) == arcs(*ref)
    assert len(arcs(*got)[1]) == 2 * len(got[0])
