"""Nonlocal curvature quantities: pointwise H_s and |A|_s and the energies
W_{s,p}, B_{s,p} and T_{p,q}.

All double sums share one kernel driver, tiled by sample-pair count so
that worker memory does not depend on the mesh size; one pass evaluates
several kernels over the same pairs, as `eval` does for B, W and T.  Tiles
and blocks do not depend on the worker count and each block writes its own
output rows, so results are bitwise reproducible for any number of worker
processes.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry, InvalidParams, UnsupportedMode
from .quadrature import _gauss_legendre_01
from .surface import (_PAIR_BUDGET, _check_int, _fork_map, _rotation_to_z,
                      _vertex_indices)

__all__ = [
    "EnergyReport",
    "pointwise_curvature",
    "willmore_energy",
    "bending_energy",
    "tangent_point_energy",
    "get_workers",
]

_TILE_PAIRS = 1 << 16  # sample pairs per kernel tile (fixed for determinism)
_FORK_PAIRS = 1 << 18  # kernel pairs per process that pay for its fork
_PAIR_CUTOFF = 1e-14  # times diameter: closer non-excluded pairs are an error
# A bounded pass (_kernel_sums) stops once its summed rows exceed
# bound (1 + _BOUND_MARGIN).  The rows' terms w_x |c_s a_x|^p are >= 0, so
# the running sum over parts of rows and the final dot over all S rows are
# each within a relative gamma_S = S u / (1 - S u) (u = 2^-53) of the exact
# sum, plus a few ulps where np.power rounds a term differently in the two:
# a partial sum above bound (1 + 2 gamma_S + 8 u) proves that the final
# energy is above the bound.  1e-6 covers that for S up to 10^9 samples,
# where 2 gamma_S is 2.3e-7.
_BOUND_MARGIN = 1e-6


def get_workers(workers=None) -> int:
    """Worker-process count: explicit argument, else NLCURV_WORKERS, else 1.

    A bool or a float raises InvalidParams rather than being truncated.
    """
    if workers is None:
        workers = os.environ.get("NLCURV_WORKERS", "1")
    if isinstance(workers, str) and workers.strip().isdecimal():
        workers = int(workers)
    _check_int("worker count", workers, 1)
    return int(workers)


@dataclass(frozen=True)
class EnergyReport:
    """One evaluated energy with enough metadata to reproduce it."""

    kind: str
    energy: float
    params: dict
    mesh: dict
    scheme: dict
    wall_time_s: float

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "energy": self.energy}
        d.update(self.params)
        d.update(self.mesh)
        d.update(self.scheme)
        d["wall_time_s"] = self.wall_time_s
        return d


def _mesh_descriptor(mesh):
    return {"V": mesh.n_vertices, "M": mesh.n_elements,
            "area": mesh.area, "diameter": mesh.diameter}


# --------------------------------------------------------------------------
# exclusion tables and kernel driver
# --------------------------------------------------------------------------

def _stars(mesh):
    """Vertex stars as CSR (indptr, element indices), each star in
    increasing element order."""
    corners = mesh.elements.ravel()
    order = np.argsort(corners, kind="stable")
    indptr = np.searchsorted(corners[order], np.arange(mesh.n_vertices + 1))
    return indptr, order // mesh.elements.shape[1]


def _rows(table, keys):
    """Row-major (position in keys, entry) pairs of the CSR table's rows
    keys."""
    indptr, indices = table
    count = indptr[keys + 1] - indptr[keys]
    first = np.repeat(indptr[keys] - np.cumsum(count) + count, count)
    return (np.repeat(np.arange(len(keys)), count),
            indices[first + np.arange(len(first))])


def _unique(a):
    """np.unique(a) of non-negative integers by sort and diff: the flagless
    np.unique of numpy 2.4 imports numpy.ma on its first call."""
    a = np.sort(a)
    return a[np.diff(a, prepend=-1) != 0]


def _neighbourhoods(mesh, policy):
    """Per element, the inner elements its samples exclude, as CSR: the
    element itself, or every element sharing a vertex with it."""
    M, n = mesh.elements.shape
    if policy == "skip_same_element":
        return np.arange(M + 1), np.arange(M)
    at, near = _rows(_stars(mesh), mesh.elements.ravel())
    pairs = _unique(at // n * M + near)
    return np.searchsorted(pairs // M, np.arange(M + 1)), pairs % M


def _sample_exclusions(mesh, scheme):
    """Row-major (sample, excluded inner element) pairs."""
    return _rows(_neighbourhoods(mesh, scheme.diagonal_policy),
                 scheme.element_of)


def _inner_data(mesh, scheme):
    """Sample positions, weights, the pairing-direction data n(y) (element
    normals, or unit tangents for a curve in 3-space: projection mode) and
    the samples per element."""
    if mesh.codim2:
        N, mode = mesh.element_tangents, "projection"
    else:
        N, mode = mesh.element_normals, "hypersurface"
    return (scheme.points, scheme.weights, N[scheme.element_of], mode,
            scheme.n_per_element)


def _int_power(base, m, out):
    """base**m for an integer m >= 1 by left-to-right squaring, which only
    reads base: base itself for m = 1, else out."""
    src = base
    for bit in bin(m)[3:]:
        np.multiply(src, src, out=out)
        src = out
        if bit == "1":
            out *= base
    return src


def _inv_power(r2, e, out):
    """r^-e from r^2, into out: integer powers of r^2 by squarings and one
    reciprocal, other powers by np.power."""
    half = e / 2
    if half == int(half):
        return np.reciprocal(_int_power(r2, int(half), out), out=out)
    return np.power(r2, -half, out=out)


def _blocks(n, S, k):
    """(tile, rows) of a pass of n outer points over S inner samples, k per
    element: tiles of whole elements and at most _TILE_PAIRS samples, and
    blocks of at most _TILE_PAIRS // tile outer rows.  The sums depend on
    this split, so every pass that must match another's sums bit for bit
    takes it from here."""
    tile = max(1, min(S, max(k, _TILE_PAIRS // k * k)))
    return tile, max(1, min(n, _TILE_PAIRS // tile))


def _kernel_sums(X, excl, inner, cutoff, terms, workers, bound=None):
    """Per term (expo_r, power) and outer point x:  Sum_y |pairing|^power
    / r^expo_r * w(y), or the signed pairing when power is None, over the
    inner samples y outside x's excluded inner elements, given as the
    row-major (outer row, inner element) pairs excl; returns a
    (len(terms), len(X)) array.  A 2-D W, one weight column per group of
    inner samples, gives one sum per group: a (len(terms), len(X), G)
    array from the same pass, as each tile's sums are tile @ W.
    The pairing is <x-y, n(y)>, or in projection mode |x-y - <t,x-y> t|,
    the part of x-y normal to the curve at y.

    inner is (Y, W, N, mode, k) from _inner_data, ordered by element with
    k samples each.  A kept pair closer than cutoff raises
    DegenerateGeometry.  Tiles of at most _TILE_PAIRS inner samples (whole
    elements) and blocks of _TILE_PAIRS // tile outer points keep each
    process in four (rows, tile) buffers whatever S is.  The geometry, the
    exclusions and the cutoff check are done once per tile for all terms,
    and r^-expo_r is recomputed only where the exponent changes.  Integer
    powers of r^2 and of the pairing are taken by squarings and products
    (then one reciprocal for r), other powers by np.power; the signed
    terms run first, so that |pairing| can then be taken in place, and
    |A|_s right after H_s with the same exponent is |H_s's tile|, bit for
    bit, as r^-expo_r >= 0.
    Excluded pairs are parked at r^2 = +inf, where r^-expo_r is an exact
    zero.
    Each block sums its tiles in a fixed order into its own rows, so the
    result does not depend on the worker count.  The blocks split between
    up to `workers` processes (surface._fork_map) only when each process
    gets more than _FORK_PAIRS pairs, what a fork and its wait cost.

    A bound (limit, energy) runs each block in parts of 4 ceil(n / 32)
    rows, about 8 chances to stop: a share adds energy(a, b, sums), the
    non-negative energy of rows a:b, to its partial sum after each part
    and, once that exceeds limit, fills its rows with +inf and stops.  A
    part starts a multiple of 4 rows into its block, and the block's last
    part takes its last full group of 4 rows together with the 1-3 rows
    after it: so split, OpenBLAS's GEMV sums a row as it does over the
    whole block, and a bounded pass that never stops returns the unbounded
    sums.
    """
    Y, W, N, mode, k = inner
    n, S = len(X), len(W)
    tile, rows = _blocks(n, S, k)
    part = rows if bound is None else min(rows, -(-n // 32) * 4)
    Yt, Nt = Y.T.copy(), N.T.copy()
    ex_row, ex_el = excl
    order = sorted(range(len(terms)), key=lambda i: terms[i][1] is not None)

    def parts(sl):
        # the row ranges (a, b) of sl's blocks, split into parts if bounded
        for lo in range(sl.start, sl.stop, rows):
            hi = min(lo + rows, n)
            cuts = [*range(lo, max(lo + 1, hi - 3), part), hi]
            yield from zip(cuts[:-1], cuts[1:])

    def share(sl):
        # the rows of outer points sl, terms then weight columns per row
        out = np.zeros((sl.stop - sl.start, len(terms)) + W.shape[1:])
        buf = np.empty((4, rows * tile))
        partial = 0.0
        for a, b in parts(sl):
            lo, hi = np.searchsorted(ex_row, (a, b))
            ex_r, ex_e = ex_row[lo:hi] - a, ex_el[lo:hi]
            dest = out[a - sl.start:b - sl.start]
            for c in range(0, S, tile):
                d = min(c + tile, S)
                r2, dot, kern, tmp = (v.reshape(b - a, d - c)
                                      for v in buf[:, :(b - a) * (d - c)])
                for j, (x, y, t) in enumerate(zip(X[a:b].T, Yt[:, c:d],
                                                  Nt[:, c:d])):
                    np.subtract(x[:, None], y, out=kern)
                    if j == 0:
                        np.multiply(kern, t, out=dot)
                        np.multiply(kern, kern, out=r2)
                    else:
                        dot += np.multiply(kern, t, out=tmp)
                        r2 += np.multiply(kern, kern, out=tmp)
                if mode == "projection":
                    np.subtract(r2, np.multiply(dot, dot, out=tmp), out=tmp)
                    np.sqrt(np.maximum(tmp, 0.0, out=tmp), out=dot)
                here = (ex_e >= c // k) & (ex_e < d // k)
                r2.reshape(b - a, -1, k)[ex_r[here],
                                         ex_e[here] - c // k] = np.inf
                if r2.min() < cutoff * cutoff:
                    raise DegenerateGeometry("non-excluded sample pair "
                                             "closer than the cutoff")
                # signed: dot still holds the signed pairing; product: tmp
                # holds the signed kern * dot of this exponent
                expo, signed, product = None, True, False
                for i in order:
                    e, power = terms[i]
                    if e != expo:
                        expo, product = e, False
                        _inv_power(r2, e, kern)
                    if power == 1 and product:
                        np.abs(tmp, out=tmp)
                    elif power is None or power == int(power):
                        m = 1 if power is None else int(power)
                        np.multiply(_int_power(dot, m, tmp), kern, out=tmp)
                        if power is not None and m % 2:
                            np.abs(tmp, out=tmp)
                    else:
                        if signed:
                            signed = False
                            np.abs(dot, out=dot)
                        np.power(dot, power, out=tmp)
                        tmp *= kern
                    product = power is None
                    dest[:, i] += tmp @ W[c:d]
            if bound is not None:
                partial += bound[1](a, b, dest)
                if partial > bound[0]:
                    out[:] = np.inf
                    break
        return out.reshape(len(out), -1)

    # each block's pairs, in _fork_map's units, on its first row, so that
    # every share starts at a block
    cost = np.zeros(n)
    cost[::rows] = np.minimum(rows, n - np.arange(0, n, rows)) \
        * (S / _FORK_PAIRS * _PAIR_BUDGET)
    sums = _fork_map(share, cost, len(terms) * (W.size // S), workers)
    return np.ascontiguousarray(
        sums.reshape((n, len(terms)) + W.shape[1:]).swapaxes(0, 1))


# --------------------------------------------------------------------------
# near field of the excluded vertex star
# --------------------------------------------------------------------------

_GL_T, _GL_W = _gauss_legendre_01(16)


def _adjacency(mesh):
    """Vertex adjacency as CSR (indptr, neighbour indices)."""
    e = mesh.edges
    both = np.concatenate([e, e[:, ::-1]])
    both = both[np.lexsort((both[:, 1], both[:, 0]))]
    indptr = np.searchsorted(both[:, 0], np.arange(mesh.n_vertices + 1))
    return indptr, both[:, 1]


def _fit_rings(adj, v):
    """The 1-ring of v, then its 2-ring (for too few neighbours)."""
    indptr, nbr = adj
    one = nbr[indptr[v]:indptr[v + 1]]
    yield one
    two = _unique(np.concatenate([one] + [nbr[indptr[w]:indptr[w + 1]]
                                          for w in one]))
    yield two[two != v]


def _shape_operator(mesh, v, frame, adj):
    """A from the least-squares fit z = u^T A u / 2 + b.u in v's frame."""
    x = mesh.vertices[v]
    for ring in _fit_rings(adj, v):
        u, w, z = frame @ (mesh.vertices[ring] - x).T
        design = np.stack([u, w, 0.5 * u * u, u * w, 0.5 * w * w], 1)
        coef, _, rank, _ = np.linalg.lstsq(design, z, rcond=None)
        if rank == 5:
            return np.array([[coef[2], coef[3]], [coef[3], coef[4]]])
    raise DegenerateGeometry(
        f"vertex {v}: too few neighbours to fit the shape operator")


def _surface_star_terms(mesh, s, kind, verts, corners, owner, adj):
    """Per star triangle (x, a, b): (a x b) / (2(1-s)) times
    int_0^1 p^T A p |p|^{-3-s} dt.

    p = a + t(b - a) runs along the opposite edge projected into the
    tangent plane; this is the polar-coordinate integral of the leading
    term u^T A u / 2 |u|^{-3-s} over the triangle.
    """
    frames = _rotation_to_z(mesh.vertex_normals[verts])
    A = np.array([_shape_operator(mesh, v, f, adj)
                  for v, f in zip(verts, frames)])
    T = frames[owner, :2]
    x = mesh.vertices[verts][owner]
    pa = np.einsum("cij,cj->ci", T, mesh.vertices[corners[:, 1]] - x)
    pb = np.einsum("cij,cj->ci", T, mesh.vertices[corners[:, 2]] - x)
    cross = pa[:, 0] * pb[:, 1] - pa[:, 1] * pb[:, 0]
    p = pa[:, None, :] + _GL_T[None, :, None] * (pb - pa)[:, None, :]
    quad = np.einsum("cti,cij,ctj->ct", p, A[owner], p)
    if kind == "A":
        quad = np.abs(quad)
    r2 = np.einsum("cti,cti->ct", p, p)
    return cross * ((quad * r2 ** (-(3.0 + s) / 2.0)) @ _GL_W) \
        / (2.0 * (1.0 - s))


def _curve_star_terms(mesh, s, kind, verts, corners, owner, adj):
    """Per incident segment: kappa rho^{1-s} / (2(1-s)).

    kappa is the curvature of the circle through the vertex and its two
    neighbours (the next two vertices at an open end), signed by the
    vertex normal for H; rho is the segment projected on that circle's
    tangent at the vertex.
    """
    P = mesh.vertices
    if mesh.ambient_n == 2:
        P = np.c_[P, np.zeros(len(P))]
    fit = []
    for v in verts:
        ring = next((r for r in _fit_rings(adj, v) if len(r) == 2), None)
        if ring is None:
            raise DegenerateGeometry(
                f"vertex {v}: too few neighbours to fit a circle")
        fit.append(ring)
    fit = np.asarray(fit)
    x = P[verts]
    u, w = P[fit[:, 0]] - x, P[fit[:, 1]] - x
    uu, ww = np.einsum("ck,ck->c", u, u), np.einsum("ck,ck->c", w, w)
    chord2 = np.einsum("ck,ck->c", u - w, u - w)
    # curvature vector of the circle through x, x+u, x+w: points at the
    # centre, length 1/R; exactly zero for collinear points
    kvec = 2.0 * np.cross(uu[:, None] * w - ww[:, None] * u, np.cross(u, w)) \
        / (uu * ww * chord2)[:, None]
    if kind == "H":
        n = mesh.vertex_normals[verts]
        kappa = np.einsum("ck,ck->c", kvec[:, :n.shape[1]], n)
    else:
        kappa = np.linalg.norm(kvec, axis=1)
    # inversion about x maps the circle to a line parallel to its tangent
    t = u / uu[:, None] - w / ww[:, None]
    t /= np.linalg.norm(t, axis=1)[:, None]
    rho = np.abs(np.einsum("ck,ck->c", P[corners[:, 1]] - x[owner], t[owner]))
    return kappa[owner] * rho ** (1.0 - s) / (2.0 * (1.0 - s))


def _near_field(mesh, params, vertices, kind):
    """Leading-order kernel integral over each vertex's excluded star.

    The surface is modelled by its osculating quadric (surfaces) or circle
    (curves) at the vertex; the result still has to be multiplied by c_s.
    """
    verts, inv = np.unique(vertices, return_inverse=True)
    pos = np.full(mesh.n_vertices, -1)
    pos[verts] = np.arange(len(verts))
    el = mesh.elements
    # every element once per vertex, rotated to start there (cyclic
    # rotation keeps the orientation of triangles)
    corners = np.concatenate([np.roll(el, -j, axis=1)
                              for j in range(el.shape[1])])
    owner = pos[corners[:, 0]]
    corners, owner = corners[owner >= 0], owner[owner >= 0]
    terms = _surface_star_terms if mesh.dim_d == 2 else _curve_star_terms
    per = terms(mesh, params.s, kind, verts, corners, owner, _adjacency(mesh))
    return np.bincount(owner, weights=per, minlength=len(verts))[inv]


# --------------------------------------------------------------------------
# pointwise curvature
# --------------------------------------------------------------------------

def pointwise_curvature(mesh, scheme, params, vertices=None, kind="H",
                        workers=None):
    """H_s (signed) or |A|_s at mesh vertices; returns an array.

    The quadrature sum leaves out the vertex star (flat incident elements
    pair to an exact zero at the vertex, so summing them only injects 0/0
    noise) and adds the star's leading-order integral instead, taken over
    the star projected into the tangent plane with the shape operator
    fitted to the vertex's 1-ring (the circle through its neighbours for
    curves).  The residual error still decays as O(h^{1-s}), so two-level
    Richardson extrapolation still applies.
    """
    if kind not in ("H", "A"):
        raise InvalidParams("kind must be 'H' or 'A'")
    if kind == "H" and mesh.codim2:
        raise UnsupportedMode("H_s is signed and needs a hypersurface; "
                              "use kind='A' in projection mode")
    workers = get_workers(workers)
    vertices = np.arange(mesh.n_vertices) if vertices is None \
        else np.atleast_1d(_vertex_indices(mesh, vertices))
    if not len(vertices):
        return np.empty(0)
    X = mesh.vertices[vertices]
    expo = mesh.dim_d + 1 + params.s
    power = None if kind == "H" else 1.0
    near = _near_field(mesh, params, vertices, kind)
    sums = _kernel_sums(X, _rows(_stars(mesh), vertices),
                        _inner_data(mesh, scheme),
                        _PAIR_CUTOFF * mesh.diameter, [(expo, power)],
                        workers)[0]
    return params.c_s * (sums + near)


# --------------------------------------------------------------------------
# energies
# --------------------------------------------------------------------------

def _energies(mesh, scheme, kinds, workers, params=None, p=None, q=None,
              bound=None, rows=False):
    """Reports of the energies named in kinds ('bending' and 'willmore'
    from params, 'tangent_point' from p and q), all from one kernel pass
    over the sample pairs, whose wall time every report carries.

    B and W are |A|_s^p and |H_s|^p evaluated at the quadrature points
    themselves.  Every request is validated before the pass.  With a
    bound, the first kind's energy (B or W) is +inf once the rows summed so
    far exceed bound (1 + _BOUND_MARGIN), else the unbounded pass's.  With
    rows, returns (reports, the pass's kernel sums, one row per kind).
    """
    if "willmore" in kinds and mesh.codim2:
        raise UnsupportedMode("W_{s,p} needs a hypersurface; "
                              "use bending_energy in projection mode")
    if "tangent_point" in kinds and not (0 < p < q < np.inf):
        raise InvalidParams("tangent-point energy needs finite q > p > 0")
    workers = get_workers(workers)
    t0 = time.perf_counter()
    terms = [(q - p, p) if kind == "tangent_point" else
             (mesh.dim_d + 1 + params.s, None if kind == "willmore" else 1.0)
             for kind in kinds]
    w = scheme.weights

    def energy(row, weights):  # B or W from its kernel row
        return np.abs(params.c_s * row) ** params.p @ weights

    if bound is not None:
        bound = (bound * (1 + _BOUND_MARGIN),
                 lambda a, b, sums: energy(sums[:, 0], w[a:b]))
    sums = _kernel_sums(scheme.points, _sample_exclusions(mesh, scheme),
                        _inner_data(mesh, scheme),
                        _PAIR_CUTOFF * mesh.diameter, terms, workers, bound)
    done = []
    for kind, row in zip(kinds, sums):
        if kind == "tangent_point":
            e = float(row @ w)
            pd = {"s": None, "p": p, "q": q, "normalization": None}
        else:
            e = float(energy(row, w))
            pd = {"s": params.s, "p": params.p, "q": None,
                  "normalization": params.normalization}
        done.append((kind, e, pd))
    wall = time.perf_counter() - t0
    reports = [EnergyReport(kind, e, pd, _mesh_descriptor(mesh),
                            scheme.descriptor(), wall) for kind, e, pd in done]
    return (reports, sums) if rows else reports


def willmore_energy(mesh, scheme, params, workers=None) -> EnergyReport:
    """W_{s,p} = integral of |H_s|^p over the surface."""
    return _energies(mesh, scheme, ["willmore"], workers, params)[0]


def bending_energy(mesh, scheme, params, workers=None) -> EnergyReport:
    """B_{s,p} = integral of |A|_s^p over the surface."""
    return _energies(mesh, scheme, ["bending"], workers, params)[0]


def tangent_point_energy(mesh, scheme, p, q, workers=None) -> EnergyReport:
    """T_{p,q}: double integral of |<x-y, n(y)>|^p / |x-y|^{q-p}.

    T has no c_s, so it takes no normalization.
    """
    return _energies(mesh, scheme, ["tangent_point"], workers, p=p, q=q)[0]

