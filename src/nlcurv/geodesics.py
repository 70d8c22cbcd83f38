"""Intrinsic (geodesic) distances via shortest paths on a refined edge graph.

The plain edge graph overestimates geodesics badly (paths must follow
edges).  One round of midpoint refinement plus the median chords of every
triangle brings the overestimate on a sphere down to well under a percent.
"""

from __future__ import annotations

import numpy as np

from .errors import DisconnectedMesh
from .surface import DiscreteHypersurface, _fork_map, _vertex_indices

__all__ = ["intrinsic_distances"]

# Dijkstra sources per search: bounds the (block, V + E) scratch array of
# refined-graph distances, of which only the V vertex columns are kept
_SOURCE_BLOCK = 128


def _triangle_graph(mesh):
    """Arcs (rows, cols, weights) and node count of the refined graph of a
    triangle mesh, each once: the two halves of every edge k, split at
    node V + k, its midpoint, and per face the medial triangle and the
    three median chords."""
    V = mesh.vertices
    e = mesh.edges
    # midpoint nodes, one per undirected edge; edges are sorted rows, so
    # their keys lo * V + hi are sorted too
    nv = mesh.n_vertices
    P = np.vstack([V, (V[e[:, 0]] + V[e[:, 1]]) / 2])
    a, b, c = mesh.elements.T
    keys = e[:, 0] * nv + e[:, 1]

    def mid(u, v):
        return nv + np.searchsorted(keys, np.minimum(u, v) * nv
                                    + np.maximum(u, v))

    mab, mbc, mca = mid(a, b), mid(b, c), mid(c, a)
    m = nv + np.arange(len(e))
    rows = np.concatenate([e[:, 0], m, mab, mbc, mca, a, b, c])
    cols = np.concatenate([m, e[:, 1], mbc, mca, mab, mbc, mca, mab])
    w = np.linalg.norm(P[rows] - P[cols], axis=1)
    return rows, cols, w, len(P)


def _graph(mesh):
    """The CSR matrix of the refined graph with both arcs of every edge: a
    curve's edges, or those of _triangle_graph."""
    from scipy.sparse import csr_matrix

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


def _search(mesh, sources, reduce, width, workers):
    """The (len(sources), width) array of reduce(block, rows) over blocks of
    at most _SOURCE_BLOCK sources: block slices `sources`, and rows are its
    (len(block), V) graph distances.  An infinite one raises DisconnectedMesh.

    `_graph` stores both arcs of every edge, so the search treats it as
    directed, which skips scipy's symmetrising pass.  scipy's `dijkstra`
    holds the interpreter lock, so shares of the sources run in up to
    `workers` processes (`_fork_map`); each row is its own search.
    """
    from scipy.sparse.csgraph import dijkstra

    nv = mesh.n_vertices
    g = _graph(mesh)

    def rows(block):
        d = dijkstra(g, directed=True, indices=sources[block])[:, :nv]
        if np.isinf(d).any():
            raise DisconnectedMesh("the mesh edge graph is disconnected")
        return d

    def share(sl):
        out = np.empty((sl.stop - sl.start, width))
        for a in range(0, len(out), _SOURCE_BLOCK):
            b = min(a + _SOURCE_BLOCK, len(out))
            block = slice(sl.start + a, sl.start + b)
            out[a:b] = reduce(block, rows(block))
        return out

    return _fork_map(share, np.full(len(sources), g.shape[0]), width, workers)


def intrinsic_distances(mesh: DiscreteHypersurface,
                        sources=None) -> np.ndarray:
    """Graph-geodesic distances from each source vertex to every vertex.

    Returns an owned (len(sources), V) array.  Distances are an upper
    bound on the true polyhedral geodesic distance and at least the chord
    length.  Each row covers every vertex, so an infinite entry means the
    edge graph is disconnected, which raises DisconnectedMesh.

    This is the identity reduction of the search the seminorms stream
    their rows from, run in one process: `sobolev --distance intrinsic`
    reduces each block of rows as it comes and never holds this array.
    """
    sources = np.arange(mesh.n_vertices) if sources is None \
        else np.atleast_1d(_vertex_indices(mesh, sources))
    return _search(mesh, sources, lambda block, rows: rows, mesh.n_vertices,
                   1)
