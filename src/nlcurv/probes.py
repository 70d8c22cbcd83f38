"""Geometric diagnostics: Monge-patch extraction, Ahlfors regularity,
chord-arc constant, and the sphere-stability probe.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParams,
    NonGraphical,
)
from .functionals import get_workers
from .geodesics import intrinsic_distances
from .seminorms import ScalarField, _holder_max, sobolev_seminorm
from .surface import (
    DiscreteHypersurface,
    _PAIR_BUDGET,
    _ball_pairs,
    _budget_slices,
    _check_int,
    _fork_map,
    _positive,
    _rotation_to_z,
    _square_distances,
    _vertex_indices,
)

__all__ = [
    "PatchChart",
    "StabilityReport",
    "extract_patch",
    "patch_radii",
    "ahlfors_ratio",
    "chord_arc_constant",
    "stability_probe",
]


# --------------------------------------------------------------------------
# Monge patch extraction
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PatchChart:
    """Local graph representation over the rotated tangent plane.

    grid/heights/gradients hold only validated nodes inside the disc of
    the reported radius; grid coordinates are in the rotated frame.
    """

    base_vertex: int
    base_point: np.ndarray
    rotation: np.ndarray
    radius: float
    grid_step: float
    grid: np.ndarray
    heights: np.ndarray
    gradients: np.ndarray
    grad_sup: float
    refit_rounds: int
    refit_residual: float

    def __post_init__(self):
        for a in (self.base_point, self.rotation, self.grid, self.heights,
                  self.gradients):
            a.setflags(write=False)

    @functools.cached_property
    def grad_holder(self) -> float:
        """The gradient's Hölder quotient of exponent _HOLDER_EXPONENT over
        the grid, computed when first read."""
        return _holder_max(self.grid, self.gradients, _HOLDER_EXPONENT)

    def to_dict(self) -> dict:
        return {"base_vertex": self.base_vertex, "radius": self.radius,
                "grid_step": self.grid_step, "n_nodes": len(self.grid),
                "grad_sup": self.grad_sup, "grad_holder": self.grad_holder,
                "holder_exponent": _HOLDER_EXPONENT,
                "refit_rounds": self.refit_rounds,
                "refit_residual": self.refit_residual}


_STENCIL = 3  # half-width of the quadratic-fit window, in grid cells
_HOLDER_EXPONENT = 0.25  # of the gradient Hölder quotient grad_holder
_MAX_REFIT = 12  # base point and rotation refits before the final raycast


def _raycast_heights(TP, owner, nb, delta, nh, zmax, tol, disc=np.inf):
    """Vertical-ray heights of nb patches over the regular (2nh+1)^2 grid
    with spacing delta.  TP holds triangle corners, each in the local frame
    of the patch `owner` names.  Node (i, j) sits at ((i-nh)d, (j-nh)d) and
    has flat index i*(2nh+1)+j.  Nodes farther than disc steps from the
    origin are left out (not valid).

    Each triangle is rasterized onto the grid nodes inside its bbox, row by
    row: in chunks of at most _PAIR_BUDGET (triangle, row) pairs, each cut
    into chunks of at most _PAIR_BUDGET (triangle, node) pairs.  The
    barycentric terms that depend only on the row are taken once per
    (triangle, row).  Hits are aggregated per node by count, max and min,
    which ignore order.  valid means at least one hit within the |z| <= zmax
    slab with all hits clustered within tol (one sheet).
    """
    n = 2 * nh + 1
    T = TP.transpose(1, 2, 0)  # (corner, coordinate, triangle)
    lo, hi = functools.reduce(np.minimum, T), functools.reduce(np.maximum, T)
    near = (lo[2] <= zmax) & (hi[2] >= -zmax)
    T = T[:, :, near]
    (ax, ay, _), (bx, by, _), (cx, cy, _) = T
    den = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    # grid-node candidates per triangle from its 2-D bbox, as (x, y) rows
    i0 = np.clip(np.ceil(lo[:2, near] / delta + nh - 1e-9).astype(int), 0,
                 n - 1)
    i1 = np.clip(np.floor(hi[:2, near] / delta + nh + 1e-9).astype(int), -1,
                 n - 1)
    ok = (np.abs(den) > 1e-14) & (i1[0] >= i0[0]) & (i1[1] >= i0[1])
    # per-triangle scalars as contiguous rows, for the gathers below
    ax, ay, z0, bx, by, z1, cx, cy, z2, den = np.concatenate(
        [T.reshape(9, -1), den[None]])[:, ok]
    (x0, y0), (x1, y1) = i0[:, ok], i1[:, ok]
    off = owner[near][ok] * (n * n)
    nx, ny = x1 - x0 + 1, y1 - y0 + 1

    grid = (np.arange(n) - nh) * delta
    count = np.zeros(nb * n * n, int)
    zhi = np.full(nb * n * n, -np.inf)
    zlo = np.full(nb * n * n, np.inf)
    eps = 1e-9
    for sl in _budget_slices(nx):
        # (triangle, row) pairs, each with its nodes j0..j1; a row's i, like
        # a node's j below, is its first index plus its rank
        c = nx[sl]
        t = np.repeat(np.arange(sl.start, sl.stop), c)
        i = np.arange(len(t)) + np.repeat(x0[sl] - np.cumsum(c) + c, c)
        u = i - nh
        j0, j1 = y0[t], y1[t]
        if disc < nh * 2 ** 0.5:  # the disc leaves out the grid's corners
            d2 = disc * disc - u * u
            hw = np.where(d2 < 0, -1, (np.sqrt(np.maximum(d2, 0.0)) + 1e-9)
                          .astype(int))
            j0, j1 = np.maximum(j0, nh - hw), np.minimum(j1, nh + hw)
        cnt = np.maximum(j1 - j0 + 1, 0)
        for rs in _budget_slices(cnt):
            # the rows' (triangle, node) pairs
            tr, c = t[rs], cnt[rs]
            px = grid[i[rs]]
            dax, dbx, dcx = (np.repeat(v[tr] - px, c) for v in (ax, bx, cx))
            rep = np.repeat(tr, c)
            j = np.arange(len(rep)) + np.repeat(j0[rs] - np.cumsum(c) + c, c)
            py = grid[j]
            dy_a, dy_b, dy_c = ay[rep] - py, by[rep] - py, cy[rep] - py
            dr = den[rep]
            w0 = (dbx * dy_c - dy_b * dcx) / dr
            w1 = (dcx * dy_a - dy_c * dax) / dr
            w2 = 1.0 - w0 - w1
            on = np.flatnonzero((w0 >= -eps) & (w1 >= -eps) & (w2 >= -eps))
            q = rep[on]
            zz = w0[on] * z0[q] + w1[on] * z1[q] + w2[on] * z2[q]
            slab = np.abs(zz) <= zmax
            lin = (j + np.repeat(off[tr] + i[rs] * n, c))[on[slab]]
            zz = zz[slab]
            np.add.at(count, lin, 1)
            np.maximum.at(zhi, lin, zz)
            np.minimum.at(zlo, lin, zz)
    valid = (count >= 1) & (zhi - zlo <= tol)
    return (np.where(valid, zhi, np.nan).reshape(nb, -1),
            valid.reshape(nb, -1))


def _grid_half(grad_bound, grid_step, rmax, zmax):
    """Grid nodes on each side of a patch's origin, once the patch options
    are checked: 1 to _PAIR_BUDGET / 16, so that a grid has a fit window
    and at most a few million nodes."""
    _positive("grad_bound, grid_step, rmax and zmax", grad_bound, grid_step,
              rmax, zmax)
    half = np.floor(rmax / grid_step + 1e-12)
    if not 1 <= half <= _PAIR_BUDGET // 16:
        raise InvalidParams(f"rmax / grid_step gives {half:g} grid nodes on "
                            f"each side, not 1 to {_PAIR_BUDGET // 16}")
    return int(half)


def _cols(ufunc, a):
    """ufunc.reduce(a, axis=1) as a[:, 0] op a[:, 1] op ...: over a few
    columns, ten times faster than the reduction."""
    return functools.reduce(ufunc, np.moveaxis(a, 1, 0))


def _in_frames(P, owner, base, R):
    """Points P (k, 3) in the frames of their patches, (P - base) @ R.T with
    the base and axes (rows of R) of patch owner, where owner is ascending.
    Each patch's rows are one product, so that their BLAS bits do not
    depend on the other patches; slicing them costs less than padding the
    patches into one batched product."""
    out = np.empty((len(P), R.shape[1]))
    a = 0
    for o, b in enumerate(np.cumsum(np.bincount(owner, minlength=len(base)))
                          .tolist()):
        if b > a:
            out[a:b] = (P[a:b] - base[o]) @ R[o].T
        a = b
    return out


def _corners(X, F, owner, base, R):
    """Corners (k, 3, 3) of triangles F in the frames of patches owner."""
    return _in_frames(X[F].reshape(-1, 3), np.repeat(owner, 3), base,
                      R).reshape(-1, 3, 3)


def _patch_charts(mesh, vertices, grad_bound=0.5, grid_step=0.02, rmax=0.6,
                  zmax=0.6):
    """Generate, per vertex in order, its PatchChart without the Hölder
    quotient, or the NonGraphical error extract_patch raises for it.

    A vertex's candidate triangles are those whose centroid lies in a ball
    around it, from _ball_pairs scans of the element centroids over at most
    _PAIR_BUDGET (vertex, element) pairs each.  The ball holds every
    triangle with a point in the |z| <= zmax slab above the grid of any
    frame whose base lies within margin of the vertex, whatever the frame's
    tilt, so margin only has to cover the refits' shift of the base.  The
    hit test and the raycast's slab decide each pair exactly, so a further
    candidate changes no bit.  Vertices run in blocks of consecutive scans
    with at most _PAIR_BUDGET candidate pairs in all, unless one scan alone
    has more, and each step of a block runs on whole arrays: every refit
    round is one hit test, one raycast and one batched update of the
    vertices still refitting, and the final raycasts, prefix sums and radii
    run in slices of at most _PAIR_BUDGET (vertex, grid node) pairs.  Only
    the rotations into a patch's frame (_in_frames) and the gradient fits
    are one BLAS product per vertex, over the rows that vertex alone gives
    them, so that their bits do not depend on the other vertices.
    """
    if mesh.dim_d != 2:
        raise InvalidParams("patch extraction expects a surface in 3-space")
    nh = _grid_half(grad_bound, grid_step, rmax, zmax)
    vertices = np.atleast_1d(_vertex_indices(mesh, vertices))
    X, elements = mesh.vertices, mesh.elements

    ax = grid_step * np.arange(-nh, nh + 1)
    GX, GY = np.meshgrid(ax, ax, indexing="ij")
    nodes = np.stack([GX.ravel(), GY.ravel()], 1)
    dist = np.hypot(nodes[:, 0], nodes[:, 1])
    n, w = 2 * nh + 1, 2 * _STENCIL + 1
    ctr, ctr_small = (n * n) // 2, (w * w) // 2
    diam = mesh.diameter
    tol = 1e-6 * diam
    gtol = 1e-10
    # quadratic least squares on a w x w window: one (6, w*w) pseudoinverse
    oi, oj = np.indices((w, w)).reshape(2, -1) - _STENCIL
    dx, dy = grid_step * oi, grid_step * oj
    pinv = np.linalg.pinv(np.stack([np.ones_like(dx), dx, dy, dx * dx,
                                    dx * dy, dy * dy], 1))

    # candidate elements for all raycasts: a point in the slab above the
    # grid lies within sqrt(2 rmax^2 + zmax^2) of the frame's base, the
    # base within margin of the vertex, and the point's triangle's centroid
    # within rho (the largest centroid-to-corner distance) of the point
    margin = 0.25 * max(rmax, zmax)
    cen = mesh.element_centroids
    rho = np.sqrt(((X[elements] - cen[:, None]) ** 2).sum(-1).max())
    reach = (np.sqrt(2 * rmax * rmax + zmax * zmax) + margin + rho) \
        * (1 + 1e-9)
    R0 = _rotation_to_z(mesh.vertex_normals[vertices])

    def blocks():
        # consecutive scans with at most _PAIR_BUDGET candidate pairs in all,
        # unless one scan alone has more
        held = []
        for sl in _budget_slices(np.full(len(vertices), len(cen))):
            q, e = _ball_pairs(X[vertices[sl]], cen, reach)
            scan = sl, q + sl.start, e
            if held and sum(len(h[2]) for h in held) + len(scan[2]) \
                    > _PAIR_BUDGET:
                yield held
                held = []
            held.append(scan)
        if held:
            yield held

    for held in blocks():
        blk = slice(held[0][0].start, held[-1][0].stop)
        fq = np.concatenate([h[1] for h in held]) - blk.start
        fe = np.concatenate([h[2] for h in held])
        held.clear()  # the scans' arrays, which blocks() also holds
        vs = vertices[blk]
        base, R = X[vs].copy(), R0[blk].copy()
        # centroids in the first frames: a later frame (base, R) moves one
        # within reach of X by at most |R - R0| reach + |base - X|, in the
        # Frobenius norm
        m0 = _cols(np.maximum, np.abs(_in_frames(cen[fe], fq, base,
                                                 R[:, :2])))
        cnt = np.bincount(fq, minlength=len(vs))
        del fq  # a block keeps only fe, m0 and cnt per candidate pair

        def hits(bs, half, disc):
            # the (patch, triangle) pairs of patches vs[bs] whose centroid
            # meets the grid, or the disc of radius disc, widened by rho: no
            # other triangle meets them, and the slack covers the
            # barycentric eps
            lim = (half * grid_step + rho) * (1 + 1e-6)
            drift = np.sqrt(((R - R0[blk]) ** 2).sum(axis=(1, 2))) * reach \
                + np.sqrt(((base - X[vs]) ** 2).sum(axis=1)) + 1e-9 * diam
            rank = np.full(len(vs), -1)
            rank[bs] = np.arange(len(bs))
            q = np.repeat(rank, cnt)
            near = np.flatnonzero((q >= 0)
                                  & (m0 <= lim + np.repeat(drift, cnt)))
            q, f = q[near], fe[near]
            C = _in_frames(cen[f], q, base[bs], R[bs, :2])
            hit = _cols(np.logical_and, np.abs(C) <= lim) & (
                np.sqrt(_cols(np.add, C * C)) <= (disc + rho) * (1 + 1e-6))
            return q[hit], f[hit]

        def raycast(bs, half, disc=np.inf):
            q, f = hits(bs, half, disc * grid_step)
            return _raycast_heights(_corners(X, elements[f], q, base[bs],
                                             R[bs]),
                                    q, len(bs), grid_step, half, zmax, tol,
                                    disc)

        out = [NonGraphical(f"surface is not single-valued above vertex {v}")
               for v in vs]
        rounds = np.zeros(len(vs), int)
        resid = np.zeros(len(vs))
        # base point and rotation refits on the 7x7 window around the origin
        active, done = np.arange(len(vs)), np.zeros(len(vs), bool)
        for it in range(_MAX_REFIT):
            if not len(active):
                break
            hs, valid = raycast(active, _STENCIL)
            on = valid[:, ctr_small]
            b, hs, valid = active[on], hs[on], valid[on]
            base[b] = base[b] + hs[:, ctr_small, None] * R[b, 2]
            g0 = np.zeros((len(b), 2))
            full = valid.all(axis=1)
            D = hs[full] - hs[full][:, ctr_small, None]
            g0[full] = np.matmul(pinv, D[..., None])[:, 1:3, 0]
            rounds[b], resid[b] = it + 1, np.hypot(g0[:, 0], g0[:, 1])
            met = resid[b] <= gtol
            done[b[met]] = True
            active, g0 = b[~met], g0[~met]
            m = np.stack([-g0[:, 0], -g0[:, 1], np.ones(len(g0))], 1)
            # each row over its norm as np.linalg.norm takes it: one dot
            m /= np.sqrt(np.matmul(m[:, None], m[..., None]))[:, 0]
            R[active] = _rotation_to_z(m) @ R[active]
        done[active] = True

        # the full grid, in slices of at most _PAIR_BUDGET nodes
        done, sent = np.flatnonzero(done), 0
        for sub in _budget_slices(np.full(len(done), n * n)):
            # the radius is at most nh - _STENCIL + 1 steps, at the nearest
            # node whose fit window leaves the grid, so only nodes up to
            # _STENCIL sqrt(2) steps further bear on the chart
            hs, valid = raycast(done[sub], nh,
                                nh - _STENCIL + 1 + _STENCIL * 2 ** 0.5)
            on = valid[:, ctr]
            b, hs, valid = done[sub][on], hs[on], valid[on]
            base[b] = base[b] + hs[:, ctr, None] * R[b, 2]
            H = hs - hs[:, ctr, None]
            # nodes whose whole fit window is valid, by prefix sums; the
            # outer _STENCIL rings never are, so `bad` is never empty
            S = np.zeros((len(b), n + 1, n + 1), int)
            S[:, 1:, 1:] = valid.reshape(-1, n, n).cumsum(1).cumsum(2)
            full = np.zeros((len(b), n, n), bool)
            full[:, _STENCIL:n - _STENCIL, _STENCIL:n - _STENCIL] = \
                S[:, w:, w:] - S[:, :-w, w:] - S[:, w:, :-w] \
                + S[:, :-w, :-w] == w * w
            bad = ~full.reshape(len(b), -1)
            # the radius is the nearest bad node, so only nodes nearer
            # than the nearest invalid one need a gradient
            radii = np.where(bad, dist, np.inf).min(axis=1)
            # a grid narrower than a fit window has every radius 0
            win = np.lib.stride_tricks.sliding_window_view(
                H.reshape(-1, n, n), (w, w), axis=(1, 2)) if n >= w else None
            for k, v in enumerate(b):
                radius = radii[k]
                if radius > grid_step:
                    fit = np.flatnonzero(~bad[k] & (dist < radius))
                    fi, fj = np.divmod(fit - _STENCIL * (n + 1), n)
                    # all six coefficients, though only the gradient's two
                    # are read: a (K, 49) @ (49, 2) product is not bitwise
                    # equal to these columns at most row counts K
                    coef = win[k, fi, fj].reshape(-1, w * w) @ pinv.T
                    gn = np.hypot(coef[:, 1], coef[:, 2])
                    steep = dist[fit][gn > grad_bound]
                    radius = float(min(radius, steep.min(initial=np.inf)))
                if radius <= grid_step:
                    out[v] = NonGraphical(f"no graphical disc above vertex "
                                          f"{vs[v]} at this grid step")
                    continue
                keep = dist[fit] < radius
                out[v] = PatchChart(
                    int(vs[v]), base[v].copy(), R[v].copy(), radius,
                    grid_step, nodes[fit[keep]], H[k, fit[keep]],
                    coef[keep, 1:3], float(gn[keep].max()), int(rounds[v]),
                    float(resid[v]))
            # the block's charts up to this slice's last vertex are final:
            # hand them out, so that a block holds one slice of charts
            for v in range(sent, done[sub][-1] + 1):
                yield out[v]
                out[v] = None
            sent = done[sub][-1] + 1
        yield from out[sent:]


def extract_patch(mesh: DiscreteHypersurface, vertex, grad_bound=0.5,
                  grid_step=0.02, rmax=0.6, zmax=0.6) -> PatchChart:
    """Largest validated Monge patch around a vertex.

    The vertex normal is rotated to the vertical; heights over a Cartesian
    grid come from vertical ray casting (exactly one surface sheet per
    node required); gradients from local quadratic fits.  The base point
    and rotation are refitted toward f(0) = 0 and Df(0) = 0 until
    |Df(0)| <= 1e-10 or for _MAX_REFIT rounds, which can end above that
    (a few 1e-8 on perturbed sub-1 spheres); refit_rounds and
    refit_residual report the count and the last |Df(0)|.  The radius is
    the distance to the nearest node that is multi-sheet, uncovered, or has
    |grad f| > grad_bound; it is capped by the grid extent.
    """
    chart = next(_patch_charts(mesh, int(_vertex_indices(mesh, vertex)),
                               grad_bound, grid_step, rmax, zmax))
    if isinstance(chart, NonGraphical):
        raise chart
    return chart


def patch_radii(mesh, vertices=None, workers=None, **kwargs):
    """extract_patch radius for many vertices (all by default), computed
    together; NaN where NonGraphical.  kwargs are extract_patch's.

    The probe's many small numpy steps hold the interpreter lock, so shares
    of the vertices run in up to `workers` processes (get_workers) once
    their (vertex, grid node) pairs exceed _PAIR_BUDGET per process; each
    vertex is its own computation, so the radii do not depend on the count.
    """
    vertices = np.arange(mesh.n_vertices) if vertices is None \
        else np.atleast_1d(_vertex_indices(mesh, vertices))
    opts = inspect.signature(_patch_charts).bind(mesh, vertices, **kwargs)
    opts.apply_defaults()
    # the final raycast of each vertex covers (2 nh + 1)^2 grid nodes
    nodes = (2 * _grid_half(*opts.args[2:]) + 1) ** 2

    def share(sl):
        return np.array([np.nan if isinstance(c, NonGraphical) else c.radius
                         for c in _patch_charts(mesh, vertices[sl], **kwargs)]
                        ).reshape(-1, 1)

    return _fork_map(share, np.full(len(vertices), nodes), 1,
                     get_workers(workers))[:, 0]


# --------------------------------------------------------------------------
# Ahlfors regularity
# --------------------------------------------------------------------------

def _clip_roots(p, q, r2):
    """Where segments p -> q enter and leave the ball |.|^2 <= r2: the
    points P1, P2 in order from p and the parameter length t2 - t1 between
    them (P1 == P2 and 0 where the line misses the ball).  The roots of
    |e + t d|^2 = r2 are taken from the end e nearer the centre, with the
    discriminant a r2 - |e x d|^2 = a (r2 - h^2) for h the distance to the
    line, so that neither cancels when the ball is small."""
    flip = ((q * q).sum(-1) < (p * p).sum(-1))[..., None]
    e, d = np.where(flip, q, p), np.where(flip, p - q, q - p)
    a, b = (d * d).sum(-1), (e * d).sum(-1)
    ed = e[..., :, None] * d[..., None, :]
    cross2 = ((ed - np.swapaxes(ed, -1, -2)) ** 2).sum((-1, -2)) / 2
    s = np.sqrt(np.maximum(a * r2 - cross2, 0.0))
    t1 = np.clip((-b - s) / a, 0.0, 1.0)
    t2 = np.clip((-b + s) / a, t1, 1.0)
    E1, E2 = e + t1[..., None] * d, e + t2[..., None] * d
    return np.where(flip, E2, E1), np.where(flip, E1, E2), t2 - t1


def _ball_measure(mesh, x, r):
    """Exact measure of the mesh inside the closed ball B(x, r).

    A segment keeps its parameter interval [t1, t2] inside the ball.  A
    triangle meets the ball in the disc of radius rho about c, the
    projection of x onto its plane.  Each directed edge (p, q), taken
    relative to c, adds the signed area of (c, p, q) cap disc: the sector
    from p to the first crossing p1, the triangle (c, p1, p2) and the
    sector from the last crossing p2 to q.  Angles are signed about the
    element normal and vanish at p = 0, where x is a vertex.
    """
    T = mesh.vertices[mesh.elements] - x
    if mesh.dim_d == 1:
        dt = _clip_roots(T[:, 0], T[:, 1], r * r)[2]
        return float((dt * np.linalg.norm(T[:, 1] - T[:, 0], axis=1)).sum())
    n = mesh.element_normals[:, None, :]
    h = (T[:, :1] * n).sum(-1)
    P = T - h[..., None] * n
    rho2 = np.maximum(r * r - h * h, 0.0)
    Q = np.roll(P, -1, axis=1)
    P1, P2, _ = _clip_roots(P, Q, rho2)

    def angle(u, v):
        return np.arctan2((np.cross(u, v) * n).sum(-1), (u * v).sum(-1))

    inner = (np.cross(P1, P2) * n).sum(-1)
    return float((rho2 * (angle(P, P1) + angle(P2, Q)) + inner).sum()) / 2


def ahlfors_ratio(mesh: DiscreteHypersurface, vertex, radii):
    """[(r, measure(mesh within the closed ball B(x, r)) / r^d) for each r].

    The measure is exact, in closed form per segment or triangle.
    """
    radii = np.atleast_1d(np.asarray(radii, float))
    # the measure takes r^2, which must not underflow to 0
    if not np.all((radii <= mesh.diameter)
                  & (np.clip(radii, 0, mesh.diameter) ** 2 > 0)):
        raise InvalidParams("radii must lie in (0, diameter], with r^2 > 0")
    x = mesh.vertices[int(_vertex_indices(mesh, vertex))]
    return [(r, _ball_measure(mesh, x, r) / r ** mesh.dim_d)
            for r in radii.tolist()]


# --------------------------------------------------------------------------
# chord-arc constant
# --------------------------------------------------------------------------

def chord_arc_constant(mesh: DiscreteHypersurface, sample_pairs=20000, seed=0):
    """Max sampled ratio of intrinsic to extrinsic distance.

    Sources are seeded random vertices; each source contributes all V
    pairs, so gamma is a max over >= sample_pairs pairs (or all of them).
    """
    _check_int("sample_pairs", sample_pairs, 1)
    _check_int("seed", seed, 0)
    V = mesh.n_vertices
    n_src = min(V, max(1, -(-sample_pairs // V)))
    rng = np.random.default_rng(seed)
    sources = np.sort(rng.choice(V, size=n_src, replace=False))
    D = intrinsic_distances(mesh, sources)
    chord = np.empty_like(D)
    for sl, d2 in _square_distances(mesh.vertices[sources], mesh.vertices):
        chord[sl] = np.sqrt(d2)
    ratio = np.where(chord > 1e-12 * mesh.diameter, D / np.maximum(chord, 1e-300),
                     1.0)
    k = int(np.argmax(ratio))
    i, j = divmod(k, V)
    return {"gamma": float(ratio[i, j]),
            "witness": (int(sources[i]), int(j)),
            "n_pairs": int(n_src * V)}


# --------------------------------------------------------------------------
# sphere stability
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityReport:
    center: np.ndarray
    R0: float
    u_seminorm: float
    hausdorff: float
    starshaped: bool

    def to_dict(self) -> dict:
        return {"center": list(map(float, self.center)), "R0": self.R0,
                "u_seminorm": self.u_seminorm, "hausdorff": self.hausdorff,
                "starshaped": self.starshaped}


def _dist_to_surface(P, mesh):
    """Exact distance from each query point x to the polyhedral surface.

    The nearest element centroid is a surface point, so the nearest point
    lies in an element whose centroid is within that centroid's distance
    plus the largest centroid-to-corner distance (with 1e-9 relative
    slack).  _ball_pairs finds those (point, element) pairs in one scan,
    and they are measured in slices of at most _PAIR_BUDGET pair corner
    coordinates.  Per pair, D = T - x are the corners and E = roll(T, -1)
    - T the edges (a segment's second edge is its first reversed).  Edge k
    is nearest at D_k + t_k E_k, t_k = clip(-<D_k, E_k> / |E_k|^2, 0, 1).
    A triangle also offers <D_0, n>^2 when the foot of the perpendicular
    falls inside, that is when every <D_k, E_k x n> = <D_k x D_k+1, n> is
    >= 0.
    """
    X, elements = mesh.vertices, mesh.elements
    cen = mesh.element_centroids
    rho = np.sqrt(((X[elements] - cen[:, None]) ** 2).sum(-1).max())
    pq, pe = _ball_pairs(P, cen, lambda d2: (np.sqrt(d2) + rho) * (1 + 1e-9))
    best = np.full(len(P), np.inf)
    # a pair's temporaries grow with its corner coordinates
    for sl in _budget_slices(np.full(len(pq), elements.shape[1] * X.shape[1])):
        q, e = pq[sl], pe[sl]
        T = X[elements[e]].transpose(2, 1, 0)                # (n, k, pairs)
        E = np.roll(T, -1, axis=1) - T
        E2 = (E * E).sum(0)
        D = [Tc - Qc for Tc, Qc in zip(T, P[q].T)]
        t = np.clip(-sum(Dc * Ec for Dc, Ec in zip(D, E)) / E2, 0.0, 1.0)
        d2 = sum(np.square(Dc + t * Ec) for Dc, Ec in zip(D, E)).min(axis=0)
        if mesh.dim_d == 2:
            n = mesh.element_normals[e].T
            F = np.cross(E, n[:, None], axis=0)
            inside = np.all(sum(Dc * Fc for Dc, Fc in zip(D, F)) >= 0, axis=0)
            h = sum(Dc[0] * nc for Dc, nc in zip(D, n))
            d2 = np.where(inside, np.minimum(d2, h * h), d2)
        np.minimum.at(best, q, d2)
    return np.sqrt(best)


def _fibonacci_sphere(n):
    k = np.arange(n) + 0.5
    phi = np.arccos(1 - 2 * k / n)
    theta = np.pi * (1 + 5 ** 0.5) * k
    return np.stack([np.cos(theta) * np.sin(phi),
                     np.sin(theta) * np.sin(phi), np.cos(phi)], 1)


_SPHERE_SAMPLES = 2048  # points on the comparison sphere (circle)


def _support_function(mesh):
    """Measure-weighted vertex centroid c and u = <x - c, n(x)> per vertex."""
    w = mesh.vertex_measures
    X = mesh.vertices
    center = (X * w[:, None]).sum(0) / w.sum()
    return center, np.einsum("ik,ik->i", X - center, mesh.vertex_normals)


def stability_probe(mesh: DiscreteHypersurface, alpha=0.5,
                    q=2.0) -> StabilityReport:
    """Support-function statistics against the comparison sphere S(R0).

    center = measure-weighted vertex centroid; u = <x - center, n(x)>;
    R0 = weighted mean of u; hausdorff = max(largest vertex distance to
    S(R0), largest distance from S(R0) samples to the polyhedral surface).
    """
    center, u = _support_function(mesh)
    w = mesh.vertex_measures
    R0 = float(u @ w / w.sum())
    useminorm = sobolev_seminorm(ScalarField(mesh, u), alpha, q, "extrinsic")
    radial = np.linalg.norm(mesh.vertices - center, axis=1)
    term1 = float(np.max(np.abs(radial - R0)))
    if mesh.ambient_n == 3:
        S = center + R0 * _fibonacci_sphere(_SPHERE_SAMPLES)
    else:
        th = 2 * np.pi * np.arange(_SPHERE_SAMPLES) / _SPHERE_SAMPLES
        S = center + R0 * np.stack([np.cos(th), np.sin(th)], 1)
    term2 = float(_dist_to_surface(S, mesh).max())
    return StabilityReport(center, R0, float(useminorm),
                           max(term1, term2), bool(np.all(u > 0)))
