"""Geometric diagnostics: Monge-patch extraction, Ahlfors regularity,
chord-arc constant, and the sphere-stability probe.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateGeometry,
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


def _raycast_heights(TP, owner, nb, delta, nh, zmax, tol):
    """Vertical-ray heights of nb patches over the regular (2nh+1)^2 grid
    with spacing delta.  TP holds triangle corners, each in the local frame
    of the patch `owner` names.  Node (i, j) sits at ((i-nh)d, (j-nh)d) and
    has flat index i*(2nh+1)+j.

    Each triangle is rasterized onto the few grid nodes inside its bbox, in
    chunks of at most _PAIR_BUDGET (triangle, node) pairs; hits are
    aggregated per node by count, max and min, which ignore order.  valid
    means at least one hit within the |z| <= zmax slab with all hits
    clustered within tol (one sheet).
    """
    n = 2 * nh + 1
    fz = TP[:, :, 2]
    near = (fz.min(axis=1) <= zmax) & (fz.max(axis=1) >= -zmax)
    A, B, C = (TP[near, c, :2] for c in range(3))
    zT, owner = fz[near], owner[near]
    den = (B[:, 0] - A[:, 0]) * (C[:, 1] - A[:, 1]) \
        - (B[:, 1] - A[:, 1]) * (C[:, 0] - A[:, 0])
    ok = np.abs(den) > 1e-14

    # grid-node candidates per triangle from its 2-D bbox
    fxy = np.stack([A, B, C], 1)
    lo = fxy.min(axis=1) / delta + nh
    hi = fxy.max(axis=1) / delta + nh
    i0 = np.clip(np.ceil(lo - 1e-9).astype(int), 0, n - 1)
    i1 = np.clip(np.floor(hi + 1e-9).astype(int), -1, n - 1)
    ok &= (i1[:, 0] >= i0[:, 0]) & (i1[:, 1] >= i0[:, 1])
    A, B, C, zT, den, i0, i1, owner = (
        a[ok] for a in (A, B, C, zT, den, i0, i1, owner))
    ny = i1[:, 1] - i0[:, 1] + 1
    cnt = (i1[:, 0] - i0[:, 0] + 1) * ny
    count = np.zeros(nb * n * n, int)
    zhi = np.full(nb * n * n, -np.inf)
    zlo = np.full(nb * n * n, np.inf)
    eps = 1e-9
    for sl in _budget_slices(cnt):
        c = cnt[sl]
        rep = np.repeat(np.arange(sl.start, sl.stop), c)
        k = np.arange(c.sum()) - np.repeat(np.cumsum(c) - c, c)
        ny_r = ny[rep]
        gi = i0[rep, 0] + k // ny_r
        gj = i0[rep, 1] + k % ny_r
        px = (gi - nh) * delta
        py = (gj - nh) * delta

        Ar, Br, Cr, dr = A[rep], B[rep], C[rep], den[rep]
        w0 = ((Br[:, 0] - px) * (Cr[:, 1] - py)
              - (Br[:, 1] - py) * (Cr[:, 0] - px)) / dr
        w1 = ((Cr[:, 0] - px) * (Ar[:, 1] - py)
              - (Cr[:, 1] - py) * (Ar[:, 0] - px)) / dr
        w2 = 1.0 - w0 - w1
        zz = w0 * zT[rep, 0] + w1 * zT[rep, 1] + w2 * zT[rep, 2]
        inside = (w0 >= -eps) & (w1 >= -eps) & (w2 >= -eps) \
            & (np.abs(zz) <= zmax)
        lin = (owner[rep] * (n * n) + gi * n + gj)[inside]
        zz = zz[inside]
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


def _local_corners(X, F, base, R):
    """Corners of triangles F in the frame at base with axes R (rows)."""
    return ((X[F].reshape(-1, 3) - base) @ R.T).reshape(-1, 3, 3)


def _patch_charts(mesh, vertices, grad_bound=0.5, grid_step=0.02, rmax=0.6,
                  zmax=0.6):
    """Generate, per vertex in order, its PatchChart without the Hölder
    quotient, or the NonGraphical error extract_patch raises for it.

    Vertices run in blocks of at most _PAIR_BUDGET (vertex, triangle)
    pairs.  Each refit round of a block is one raycast over all its
    vertices still refitting; the final raycast and the gradient fits run
    in slices of at most _PAIR_BUDGET (vertex, grid node) pairs.  A
    block's candidate triangles come from one _ball_pairs scan of the
    element centroids: a triangle whose local bbox meets the box has its
    centroid within the box half-diagonal plus sqrt(3) times the largest
    centroid-to-corner distance rho.
    """
    if mesh.dim_d != 2:
        raise InvalidParams("patch extraction expects a surface in 3-space")
    nh = _grid_half(grad_bound, grid_step, rmax, zmax)
    vertices = np.atleast_1d(_vertex_indices(mesh, vertices))
    normals = mesh.vertex_normals[vertices]
    undefined = ~np.all(np.isfinite(normals), axis=1)
    if undefined.any():
        raise DegenerateGeometry(
            f"undefined normal at vertex {vertices[undefined][0]}")
    X, elements = mesh.vertices, mesh.elements

    ax = grid_step * np.arange(-nh, nh + 1)
    GX, GY = np.meshgrid(ax, ax, indexing="ij")
    nodes = np.stack([GX.ravel(), GY.ravel()], 1)
    dist = np.hypot(nodes[:, 0], nodes[:, 1])
    n, w = 2 * nh + 1, 2 * _STENCIL + 1
    ctr, ctr_small = (n * n) // 2, (w * w) // 2
    tol = 1e-6 * mesh.diameter
    gtol = 1e-10
    # quadratic least squares on a w x w window: one (6, w*w) pseudoinverse
    oi, oj = np.indices((w, w)).reshape(2, -1) - _STENCIL
    dx, dy = grid_step * oi, grid_step * oj
    pinv = np.linalg.pinv(np.stack([np.ones_like(dx), dx, dy, dx * dx,
                                    dx * dy, dy * dy], 1))
    window = oi * n + oj  # flat offsets of a fit window's nodes

    # candidate elements for all raycasts, with slack for the refit tilt
    margin = 0.25 * max(rmax, zmax)
    box = np.array([rmax + margin, rmax + margin, zmax + margin])
    cen = mesh.element_centroids
    rho = np.sqrt(((X[elements] - cen[:, None]) ** 2).sum(-1).max())
    reach = (np.linalg.norm(box) + 3 ** 0.5 * rho) * (1 + 1e-9)

    for blk in _budget_slices(np.full(len(vertices), len(cen))):
        vs = vertices[blk]
        base = X[vs].copy()
        R = np.stack([_rotation_to_z(m) for m in normals[blk]])
        q, e = _ball_pairs(X[vs], cen, reach)
        F = []
        for b, c in enumerate(np.split(e, np.searchsorted(
                q, np.arange(1, len(vs))))):
            TV0 = _local_corners(X, elements[c], base[b], R[b])
            F.append(c[np.all(TV0.min(axis=1) <= box, axis=1)
                       & np.all(TV0.max(axis=1) >= -box, axis=1)])

        def raycast(active, half):
            # a triangle meets the grid only if its centroid meets it
            # widened by rho; the slack covers the barycentric eps
            lim = (half * grid_step + rho) * (1 + 1e-6)
            hit = [F[b][np.all(np.abs((cen[F[b]] - base[b]) @ R[b, :2].T)
                               <= lim, axis=1)] for b in active]
            TP = np.concatenate([_local_corners(X, elements[f], base[b], R[b])
                                 for f, b in zip(hit, active)])
            owner = np.repeat(np.arange(len(active)), [len(f) for f in hit])
            return _raycast_heights(TP, owner, len(active), grid_step, half,
                                    zmax, tol)

        out = [NonGraphical(f"surface is not single-valued above vertex {v}")
               for v in vs]
        rounds = np.zeros(len(vs), int)
        resid = np.zeros(len(vs))
        # base point and rotation refits on the 7x7 window around the origin
        active, done = list(range(len(vs))), []
        for it in range(_MAX_REFIT):
            if not active:
                break
            hs, valid = raycast(active, _STENCIL)
            refit = []
            for k, b in enumerate(active):
                if not valid[k, ctr_small]:
                    continue
                base[b] = base[b] + hs[k, ctr_small] * R[b, 2]
                g0 = (pinv @ (hs[k] - hs[k, ctr_small]))[1:3] \
                    if valid[k].all() else np.zeros(2)
                rounds[b], resid[b] = it + 1, np.hypot(*g0)
                if resid[b] <= gtol:
                    done.append(b)
                    continue
                m = np.array([-g0[0], -g0[1], 1.0])
                m /= np.linalg.norm(m)
                R[b] = _rotation_to_z(m) @ R[b]
                refit.append(b)
            active = refit
        done = sorted(done + active)

        # the full grid, in slices of at most _PAIR_BUDGET nodes
        for sub in _budget_slices(np.full(len(done), n * n)):
            hs, valid = raycast(done[sub], nh)
            for k, b in enumerate(done[sub]):
                if not valid[k, ctr]:
                    continue
                base[b] = base[b] + hs[k, ctr] * R[b, 2]
                H = (hs[k] - hs[k, ctr]).reshape(n, n)
                # nodes whose whole fit window is valid, by a prefix sum; the
                # outer _STENCIL rings never are, so `bad` is never empty
                S = np.zeros((n + 1, n + 1), int)
                S[1:, 1:] = valid[k].reshape(n, n).cumsum(0).cumsum(1)
                full = np.zeros((n, n), bool)
                full[_STENCIL:n - _STENCIL, _STENCIL:n - _STENCIL] = \
                    S[w:, w:] - S[:-w, w:] - S[w:, :-w] + S[:-w, :-w] == w * w
                bad = ~full.ravel()
                # the radius is the nearest bad node, so only nodes nearer
                # than the nearest invalid one need a gradient
                radius = dist[bad].min()
                fit = np.flatnonzero(~bad & (dist < radius))
                coef = H.ravel()[fit[:, None] + window] @ pinv.T
                gn = np.hypot(coef[:, 1], coef[:, 2])
                radius = float(min(radius, dist[fit][gn > grad_bound].min(
                    initial=np.inf)))
                if radius <= grid_step:
                    out[b] = NonGraphical(f"no graphical disc above vertex "
                                          f"{vs[b]} at this grid step")
                    continue
                keep = dist[fit] < radius
                out[b] = PatchChart(
                    int(vs[b]), base[b].copy(), R[b].copy(), radius,
                    grid_step, nodes[fit[keep]], H.ravel()[fit[keep]],
                    coef[keep, 1:3], float(gn[keep].max()), int(rounds[b]),
                    float(resid[b]))
        yield from out


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

    The probe's Python refit loop holds the interpreter lock, so shares of
    the vertices run in up to `workers` processes (get_workers) once their
    (vertex, grid node) pairs exceed _PAIR_BUDGET per process; each vertex
    is its own computation, so the radii do not depend on the count.
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

def _clip_roots(p, d, r2):
    """Parameters t1 <= t2 in [0, 1] of the part of p + t d inside
    |.|^2 <= r2; t1 == t2 where the line misses the ball."""
    a, b = (d * d).sum(-1), (p * d).sum(-1)
    s = np.sqrt(np.maximum(b * b - a * ((p * p).sum(-1) - r2), 0.0))
    t1 = np.clip((-b - s) / a, 0.0, 1.0)
    return t1, np.clip((-b + s) / a, t1, 1.0)


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
        d = T[:, 1] - T[:, 0]
        t1, t2 = _clip_roots(T[:, 0], d, r * r)
        return float(((t2 - t1) * np.linalg.norm(d, axis=1)).sum())
    n = mesh.element_normals[:, None, :]
    h = (T[:, :1] * n).sum(-1)
    P = T - h[..., None] * n
    rho2 = np.maximum(r * r - h * h, 0.0)
    Q = np.roll(P, -1, axis=1)
    t1, t2 = _clip_roots(P, Q - P, rho2)
    P1, P2 = P + t1[..., None] * (Q - P), P + t2[..., None] * (Q - P)

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
    if mesh.codim2:
        raise DegenerateGeometry("stability probe needs a hypersurface")
    w = mesh.vertex_measures
    X = mesh.vertices
    center = (X * w[:, None]).sum(0) / w.sum()
    N = mesh.vertex_normals
    if not np.all(np.isfinite(N)):
        raise DegenerateGeometry("undefined vertex normal")
    return center, np.einsum("ik,ik->i", X - center, N)


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
