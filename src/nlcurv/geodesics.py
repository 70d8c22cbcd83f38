"""Intrinsic (geodesic) distances via shortest paths on a refined edge graph.

The plain edge graph overestimates geodesics badly (paths must follow
edges).  One round of midpoint refinement plus the median chords of every
triangle brings the overestimate on a sphere down to well under a percent.

The search is exact to the bit.  With positive arc weights the float
distances are the unique fixpoint d(s) = 0, d(v) = min_u fl(d(u) + w(u, v)):
a label is only ever lowered to some fl(d(u) + w), float addition is
monotone, and fl(d + w) > d unless w is below about 1e-16 d, so a
smallest label that differed between two fixpoints would have to come from
a smaller one that differs too.  Any label-correcting search that stops at
the fixpoint therefore returns the bits of Dijkstra's algorithm (Numer.
Math. 1959), whatever order it settles nodes in and however the nodes are
numbered.  On a triangle mesh this one is bucketed Delta-stepping (Meyer
& Sanders, J. Algorithms 2003) in numpy, run in lockstep over a block of
sources.  A curve's graph is one cycle (or path), whose fixpoint is the
smaller of the two running sums of segment lengths from the source.
"""

from __future__ import annotations

import numpy as np

from .errors import DisconnectedMesh
from .surface import DiscreteHypersurface, _fork_map, _vertex_indices

__all__ = ["intrinsic_distances"]

# Sources per search block: bounds the (block, V + E) float labels of the
# refined graph, of which only the V vertex columns are copied out, before
# the caller reduces them
_SOURCE_BLOCK = 64
# Candidate arcs per relaxation pass: bounds the pass's index, label and
# mask scratch (about 25 bytes an arc)
_RELAX_ARCS = 1 << 14


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


def _arc_tables(mesh):
    """(vertex_nodes, groups, n, width) of the search over both arcs of
    every edge of _triangle_graph.  The n nodes are renumbered by tail
    degree, so that each degree is one contiguous range: 8 at a midpoint
    of a closed surface, twice the valence at a vertex.  groups holds, per
    range [lo, hi), (lo, hi, heads, weights) with one row of arcs per node.
    A range of few rows is padded to the next range's degree with arcs of
    infinite weight, which never lower a label, and joins it: a pass costs
    more than the padding.  vertex_nodes are the new numbers of the
    vertices, and width, twice the median arc, the bucket width."""
    rows, cols, w, n = _triangle_graph(mesh)
    half = len(w) // 2  # np.median would import numpy.ma
    width = 2.0 * np.partition(w, half)[half]
    tails, heads = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    deg = np.bincount(tails, minlength=n)
    order = np.argsort(deg, kind="stable")
    new = np.empty(n, np.intp)
    new[order] = np.arange(n)
    arcs = np.argsort(new[tails], kind="stable")
    heads, w = new[heads[arcs]], np.concatenate([w, w])[arcs]
    deg = deg[order]
    lo = np.flatnonzero(np.diff(deg, prepend=-1)).tolist()
    first = np.concatenate([[0], np.cumsum(deg)])
    groups = []  # by falling degree
    for a, b in reversed(list(zip(lo, lo[1:] + [n]))):
        H = heads[first[a]:first[b]].reshape(b - a, deg[a])
        W = w[first[a]:first[b]].reshape(b - a, deg[a])
        pad = groups[-1][2].shape[1] - deg[a] if groups else 0
        if groups and 16 * (b - a) * pad <= groups[-1][2].size:
            _, b, H2, W2 = groups.pop()
            H = np.vstack([np.pad(H, ((0, 0), (0, pad))), H2])
            W = np.vstack([np.pad(W, ((0, 0), (0, pad)),
                                  constant_values=np.inf), W2])
        groups.append((a, b, H, W))
    groups.reverse()
    return new[:mesh.n_vertices], groups, n, width


def _relax(D, t, c, tables):
    """Relax every arc out of the labelled nodes (t, c): t are flat
    (source, node) indices into the block's labels D, c their labels.
    Lowers D to fl(c + w) where that is smaller and returns the arcs'
    flat heads and new labels where it was, at the time of the pass."""
    _, groups, n, _ = tables
    base = t // n * n
    v = t - base
    heads, labels = [], []
    for lo, hi, H, W in groups:
        i = ((v >= lo) & (v < hi)).nonzero()[0]
        step = max(1, _RELAX_ARCS // H.shape[1])
        for a in range(0, len(i), step):
            k = i[a:a + step]
            row = v.take(k) - lo
            h = H.take(row, axis=0)
            h += base.take(k)[:, None]
            w = W.take(row, axis=0)
            w += c.take(k)[:, None]
            j = (w < D.take(h)).ravel().nonzero()[0]
            h, w = h.take(j), w.take(j)
            np.minimum.at(D, h, w)
            heads.append(h)
            labels.append(w)
    return np.concatenate(heads), np.concatenate(labels)


def _where(t, c, keep):
    """The labelled nodes (t, c) where keep holds."""
    i = keep.nonzero()[0]
    return t.take(i), c.take(i)


def _vertex_rows(tables, sources):
    """The (len(sources), V) graph distances from the vertices `sources`
    by Delta-stepping in lockstep: each bucket [m, m + width] starts at the
    smallest pending label m, so empty buckets are skipped, and its nodes
    are relaxed in rounds until no label in it changes.  Labels
    that a round lowers past the bucket wait for a later one; a label that
    was lowered again since is stale and dropped."""
    vertex_nodes, _, n, width = tables
    D = np.full(len(sources) * n, np.inf)
    t = np.arange(len(sources)) * n + vertex_nodes[sources]
    D[t] = 0.0
    waiting = [(t, np.zeros(len(t)))]
    while True:
        t, c = map(np.concatenate, zip(*waiting))
        t, c = _where(t, c, c == D.take(t))
        if not len(t):
            return D.reshape(len(sources), n)[:, vertex_nodes]
        top = c.min() + width
        waiting = [_where(t, c, c > top)]
        t, c = _where(t, c, c <= top)
        while len(t):
            t, c = _relax(D, t, c, tables)
            waiting.append(_where(t, c, c > top))
            t, c = _where(t, c, (c <= top) & (c == D.take(t)))


def _curve_walk(mesh):
    """(order, lengths, V) of a curve: its vertices in the order its
    segments join them, from a boundary vertex if it has one, the length
    of the segment from each to the next, +inf past the end of an open
    curve, and the vertex count, which order falls short of if the curve
    has more than one component."""
    E = mesh.elements
    after = np.full(mesh.n_vertices, -1)
    after[E[:, 0]] = E[:, 1]
    first = np.ones(mesh.n_vertices, bool)
    first[E[:, 1]] = False
    after, order = after.tolist(), [int(first.argmax())]
    while len(order) < len(after) and after[order[-1]] not in (-1, order[0]):
        order.append(after[order[-1]])
    order = np.array(order)
    V = mesh.vertices
    lengths = np.linalg.norm(V[order] - V[np.roll(order, -1)], axis=1)
    if first.any():
        lengths[-1] = np.inf
    return order, lengths, len(after)


def _curve_rows(walk, sources):
    """The (len(sources), V) graph distances from the vertices `sources` of
    a curve: per row the smaller of the running sums of segment lengths
    from the source, one each way round, which is the fixpoint of the
    module docstring.  The rows are infinite if the curve has more than
    one component."""
    order, lengths, nv = walk
    if len(order) < nv:
        return np.full((len(sources), nv), np.inf)
    at = np.empty(nv, np.intp)
    at[order] = np.arange(nv)
    p = at[sources]

    def runs(steps, start):
        """Running sums of nv - 1 steps from each start, round the cycle."""
        window = np.lib.stride_tricks.sliding_window_view(
            np.concatenate([steps, steps]), nv - 1)
        return np.cumsum(window[start % nv], axis=1)

    # from each source: the distance to the vertex r + 1 places ahead
    ahead = np.minimum(runs(lengths, p), runs(lengths[::-1], -p)[:, ::-1])
    ahead = np.concatenate([np.zeros((len(p), 1)), ahead], axis=1)
    return np.take_along_axis(ahead, at - p[:, None], axis=1)  # wraps


def _search(mesh, sources, reduce, width, workers):
    """The (len(sources), width) array of reduce(block, rows) over blocks of
    at most _SOURCE_BLOCK sources: block slices `sources`, and rows are its
    (len(block), V) graph distances.  An infinite one raises DisconnectedMesh.

    The search is numpy steps over whole blocks, which hold the interpreter
    lock, so shares of the sources run in up to `workers` processes
    (`_fork_map`); each row is its own search.  A share splits into blocks
    of nearly equal size, and a block's labels are freed before its rows
    are reduced.
    """
    curve = mesh.dim_d == 1
    tables = _curve_walk(mesh) if curve else _arc_tables(mesh)
    search = _curve_rows if curve else _vertex_rows
    nodes = mesh.n_vertices + (0 if curve else len(mesh.edges))

    def rows(block):
        d = search(tables, sources[block])
        if np.isinf(d).any():
            raise DisconnectedMesh("the mesh edge graph is disconnected")
        return d

    def share(sl):
        n = sl.stop - sl.start
        out = np.empty((n, width))
        k = max(1, -(-n // _SOURCE_BLOCK))
        cuts = [n * i // k for i in range(k + 1)]
        for a, b in zip(cuts[:-1], cuts[1:]):
            block = slice(sl.start + a, sl.start + b)
            out[a:b] = reduce(block, rows(block))
        return out

    return _fork_map(share, np.full(len(sources), nodes), width, workers)


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
