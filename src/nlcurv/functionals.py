"""Nonlocal curvature quantities: pointwise H_s and |A|_s, the energies
W_{s,p}, B_{s,p}, T_{p,q}, and the tangent-point radius.

All double sums share one chunked kernel driver.  Outer points are split
into fixed-size chunks regardless of worker count and every chunk writes
into a preallocated slot, so results are bitwise reproducible for any
number of threads.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix, identity, issparse

from .errors import DegenerateGeometry, InvalidParams, UnsupportedMode
from .probes import _rotation_to_z

__all__ = [
    "EnergyReport",
    "pointwise_curvature",
    "fractional_mean_curvature",
    "nonlocal_second_fundamental",
    "willmore_energy",
    "bending_energy",
    "tangent_point_energy",
    "tangent_point_radius",
    "get_workers",
]

_CHUNK = 128          # outer points per work unit (fixed for determinism)
_PAIR_CUTOFF = 1e-14  # times diameter: closer non-excluded pairs are an error


def get_workers(workers=None) -> int:
    """Worker-thread count: explicit argument, else NLCURV_WORKERS, else 1."""
    if workers is None:
        workers = os.environ.get("NLCURV_WORKERS", "1")
    try:
        workers = int(workers)
    except ValueError:
        raise InvalidParams(
            f"worker count must be an integer, got {workers!r}") from None
    if workers < 1:
        raise InvalidParams("worker count must be >= 1")
    return workers


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

def _incidence(mesh):
    """Sparse (V, M) vertex-element incidence: 1 where v is a corner of m."""
    el = mesh.elements
    rows = el.ravel()
    cols = np.repeat(np.arange(len(el)), el.shape[1])
    return csr_matrix((np.ones(el.size), (rows, cols)),
                      shape=(mesh.n_vertices, len(el)))


def _sample_exclusions(mesh, scheme):
    """Per quadrature sample, its excluded inner elements as a sparse row:
    its own element, or every element sharing a vertex with it."""
    if scheme.diagonal_policy == "skip_same_element":
        near = identity(mesh.n_elements, format="csr")
    else:
        inc = _incidence(mesh)
        near = (inc.T @ inc).tocsr()
    return near[scheme.element_of]


def _inner_data(mesh, scheme, codim_mode):
    """Sample positions, weights, and the pairing-direction data n(y)."""
    Y = scheme.points
    W = scheme.weights
    if mesh.codim2 or codim_mode == "projection":
        if mesh.dim_d != 1 or mesh.ambient_n != 3:
            raise UnsupportedMode("projection mode is for curves in 3-space; "
                                  "embed plane curves with ambient=3")
        N = mesh.element_tangents[scheme.element_of]
        mode = "projection"
    else:
        if mesh.element_normals.size == 0:
            raise UnsupportedMode("mesh has no normals; use projection mode")
        N = mesh.element_normals[scheme.element_of]
        mode = "hypersurface"
    return Y, W, N, mode


def _pairing(diff, r2, N, mode):
    """|pairing| and signed pairing of x-y with the normal data at y.

    hypersurface: <x-y, n(y)>.  projection: |x-y - <t,x-y> t| (length of
    the component of x-y in the normal plane of the curve at y); the sign
    is meaningless there and the magnitude is returned for both slots.
    """
    if mode == "hypersurface":
        dot = np.einsum("bsk,sk->bs", diff, N)
        return np.abs(dot), dot
    tang = np.einsum("bsk,sk->bs", diff, N)
    mag = np.sqrt(np.maximum(r2 - tang * tang, 0.0))
    return mag, mag


def _kernel_sums(X, excl, inner, cutoff, expo_r, power, workers):
    """Per outer point x:  Sum_y |pairing|^power / r^expo_r * w(y), or the
    signed pairing when power is None, over the inner samples y outside
    the inner elements marked in x's row of the table excl (sparse, or
    a dense array for small tables).

    inner is (Y, W, N, mode) as from _inner_data, ordered by inner
    element with the same number of samples each; excl has one column
    per inner element.  A kept pair closer than cutoff raises
    DegenerateGeometry.  Outer points go in fixed chunks, each written to
    its own slot, so the result does not depend on the worker count.
    """
    Y, W, N, mode = inner
    k = len(W) // excl.shape[1]
    n = len(X)
    out = np.empty(n)

    def do(a):
        b = min(a + _CHUNK, n)
        rows = excl[a:b]
        skip = np.repeat((rows.toarray() if issparse(rows) else rows) > 0,
                         k, 1)
        diff = X[a:b, None, :] - Y[None, :, :]
        r2 = np.einsum("bsk,bsk->bs", diff, diff)
        if np.any((r2 < cutoff * cutoff) & ~skip):
            raise DegenerateGeometry(
                "non-excluded sample pair closer than the degeneracy cutoff")
        # park excluded pairs at a harmless distance, zero them at the end
        r2[skip] = 1.0
        absdot, dot = _pairing(diff, r2, N, mode)
        r = np.sqrt(r2)
        if power is None:
            terms = dot / r ** expo_r
        else:
            terms = absdot ** power / r ** expo_r
        terms[skip] = 0.0
        out[a:b] = terms @ W

    starts = range(0, n, _CHUNK)
    if workers == 1 or n <= _CHUNK:
        for a in starts:
            do(a)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(do, starts))
    return out


# --------------------------------------------------------------------------
# near field of the excluded vertex star
# --------------------------------------------------------------------------

_GL_T, _GL_W = np.polynomial.legendre.leggauss(16)
_GL_T = (_GL_T + 1.0) / 2.0   # nodes and weights on [0, 1]
_GL_W = _GL_W / 2.0


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
    two = np.unique(np.concatenate([one] + [nbr[indptr[w]:indptr[w + 1]]
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
    frames = np.array([_rotation_to_z(n) for n in mesh.vertex_normals[verts]])
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
    if kind == "H" and (mesh.codim2 or params.codim_mode == "projection"):
        raise UnsupportedMode("H_s is signed and needs a hypersurface; "
                              "use kind='A' in projection mode")
    workers = get_workers(workers)
    if vertices is None:
        vertices = np.arange(mesh.n_vertices)
    vertices = np.atleast_1d(np.asarray(vertices, int))
    X = mesh.vertices[vertices]
    expo = mesh.dim_d + 1 + params.s
    power = None if kind == "H" else 1.0
    near = _near_field(mesh, params, vertices, kind)
    sums = _kernel_sums(X, _incidence(mesh)[vertices],
                        _inner_data(mesh, scheme, params.codim_mode),
                        _PAIR_CUTOFF * mesh.diameter, expo, power, workers)
    return params.c_s * (sums + near)


def fractional_mean_curvature(mesh, scheme, vertex, params, workers=None):
    """Signed fractional mean curvature at one vertex."""
    return float(pointwise_curvature(mesh, scheme, params, [vertex], "H",
                                     workers)[0])


def nonlocal_second_fundamental(mesh, scheme, vertex, params, workers=None):
    """Nonlocal second-fundamental-form magnitude at one vertex (>= 0)."""
    return float(pointwise_curvature(mesh, scheme, params, [vertex], "A",
                                     workers)[0])


# --------------------------------------------------------------------------
# energies
# --------------------------------------------------------------------------

def _energy_outer(mesh, scheme, params, kind, workers):
    """|H_s|^p or |A|_s^p evaluated at the quadrature points themselves."""
    expo = mesh.dim_d + 1 + params.s
    power = None if kind == "H" else 1.0
    vals = params.c_s * _kernel_sums(
        scheme.points, _sample_exclusions(mesh, scheme),
        _inner_data(mesh, scheme, params.codim_mode),
        _PAIR_CUTOFF * mesh.diameter, expo, power, workers)
    return float(np.abs(vals) ** params.p @ scheme.weights)


def _report(kind, energy, mesh, scheme, pdict, t0):
    return EnergyReport(kind, energy, pdict, _mesh_descriptor(mesh),
                        scheme.descriptor(), time.perf_counter() - t0)


def willmore_energy(mesh, scheme, params, workers=None) -> EnergyReport:
    """W_{s,p} = integral of |H_s|^p over the surface."""
    if mesh.codim2 or params.codim_mode == "projection":
        raise UnsupportedMode("W_{s,p} needs a hypersurface; "
                              "use bending_energy in projection mode")
    t0 = time.perf_counter()
    e = _energy_outer(mesh, scheme, params, "H", get_workers(workers))
    pd = {"s": params.s, "p": params.p, "q": None,
          "normalization": params.normalization}
    return _report("willmore", e, mesh, scheme, pd, t0)


def bending_energy(mesh, scheme, params, workers=None) -> EnergyReport:
    """B_{s,p} = integral of |A|_s^p over the surface."""
    t0 = time.perf_counter()
    e = _energy_outer(mesh, scheme, params, "A", get_workers(workers))
    pd = {"s": params.s, "p": params.p, "q": None,
          "normalization": params.normalization}
    return _report("bending", e, mesh, scheme, pd, t0)


def tangent_point_energy(mesh, scheme, p, q, codim_mode="hypersurface",
                         workers=None) -> EnergyReport:
    """T_{p,q}: double integral of |<x-y, n(y)>|^p / |x-y|^{q-p}.

    T has no c_s, so it takes no normalization.
    """
    if not (q > p > 0):
        raise InvalidParams("tangent-point energy needs q > p > 0")
    if codim_mode not in ("hypersurface", "projection"):
        raise InvalidParams(f"unknown codim mode {codim_mode!r}")
    t0 = time.perf_counter()
    per_outer = _kernel_sums(scheme.points, _sample_exclusions(mesh, scheme),
                             _inner_data(mesh, scheme, codim_mode),
                             _PAIR_CUTOFF * mesh.diameter, q - p, p,
                             get_workers(workers))
    e = float(per_outer @ scheme.weights)
    pd = {"s": None, "p": p, "q": q, "normalization": None}
    return _report("tangent_point", e, mesh, scheme, pd, t0)


def tangent_point_radius(x, y, n_y):
    """Radius of the smallest sphere through x tangent to the surface at y."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    d = x - y
    r2 = float(d @ d)
    if r2 == 0.0:
        raise InvalidParams("tangent-point radius needs x != y")
    denom = abs(float(np.asarray(n_y, float) @ d))
    if denom < 1e-14 * r2:
        return np.inf
    return r2 / denom
