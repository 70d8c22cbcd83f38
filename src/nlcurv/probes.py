"""Geometric diagnostics: Monge-patch extraction, Ahlfors regularity,
chord-arc constant, and the sphere-stability probe.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateGeometry,
    InvalidParams,
    NonGraphical,
)
from .functionals import get_workers
from .geodesics import intrinsic_distances
from .seminorms import ScalarField, sobolev_seminorm
from .surface import DiscreteHypersurface, _rotation_to_z, _vertex_indices

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
    grad_holder: float

    def __post_init__(self):
        for a in (self.base_point, self.rotation, self.grid, self.heights,
                  self.gradients):
            a.setflags(write=False)

    def to_dict(self) -> dict:
        return {"base_vertex": self.base_vertex, "radius": self.radius,
                "grid_step": self.grid_step, "n_nodes": len(self.grid),
                "grad_sup": self.grad_sup, "grad_holder": self.grad_holder,
                "holder_exponent": _HOLDER_EXPONENT}


def _raycast_heights(Pl, F, delta, nh, zmax, tol):
    """Vertical-ray heights over the regular (2nh+1)^2 grid with spacing
    delta, in the local frame.  Node (i, j) sits at ((i-nh)d, (j-nh)d)
    and has flat index i*(2nh+1)+j.

    Each triangle is rasterized onto the few grid nodes inside its bbox;
    hits are aggregated per node.  valid means at least one hit within
    the |z| <= zmax slab with all hits clustered within tol (one sheet).
    """
    n = 2 * nh + 1
    xy = Pl[:, :2]
    z = Pl[:, 2]
    fz = z[F]
    near = (fz.min(axis=1) <= zmax) & (fz.max(axis=1) >= -zmax)
    T = F[near]
    heights = np.full(n * n, np.nan)
    valid = np.zeros(n * n, bool)
    if len(T) == 0:
        return heights, valid
    A, B, C = xy[T[:, 0]], xy[T[:, 1]], xy[T[:, 2]]
    zT = np.stack([z[T[:, 0]], z[T[:, 1]], z[T[:, 2]]], 1)
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
    A, B, C, zT, den, i0, i1 = (a[ok] for a in (A, B, C, zT, den, i0, i1))
    nx = i1[:, 0] - i0[:, 0] + 1
    ny = i1[:, 1] - i0[:, 1] + 1
    cnt = nx * ny
    if cnt.sum() == 0:
        return heights, valid
    rep = np.repeat(np.arange(len(cnt)), cnt)
    k = np.arange(cnt.sum()) - np.repeat(np.cumsum(cnt) - cnt, cnt)
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
    eps = 1e-9
    inside = (w0 >= -eps) & (w1 >= -eps) & (w2 >= -eps) & (np.abs(zz) <= zmax)
    lin = (gi * n + gj)[inside]
    zz = zz[inside]
    count = np.zeros(n * n, int)
    np.add.at(count, lin, 1)
    zhi = np.full(n * n, -np.inf)
    np.maximum.at(zhi, lin, zz)
    zlo = np.full(n * n, np.inf)
    np.minimum.at(zlo, lin, zz)
    valid = (count >= 1) & (zhi - zlo <= tol)
    heights[valid] = zhi[valid]
    return heights, valid


_STENCIL = 3  # half-width of the quadratic-fit window, in grid cells
_HOLDER_EXPONENT = 0.25  # of the gradient Hölder quotient grad_holder
_MAX_REFIT = 12  # base point and rotation refits before the final raycast


def _design(dx, dy):
    return np.stack([np.ones_like(dx), dx, dy, dx * dx, dx * dy, dy * dy], 1)


def _fit_gradients(H, delta):
    """Per-node quadratic least-squares gradients on the (n, n) height grid.

    Only nodes whose full (2*_STENCIL+1)^2 window is covered get a
    gradient; all complete windows share one precomputed pseudoinverse.
    Nodes with incomplete windows (grid edge, holes) stay NaN, which
    callers treat as invalid — this caps the patch radius at the grid
    extent minus _STENCIL cells.
    """
    n = H.shape[0]
    w = 2 * _STENCIL + 1
    off = delta * (np.arange(w) - _STENCIL)
    OX, OY = np.meshgrid(off, off, indexing="ij")
    X = _design(OX.ravel(), OY.ravel())
    pinv = np.linalg.pinv(X)                        # (6, w*w)

    G = np.full((n, n, 2), np.nan)
    if n >= w:
        win = np.lib.stride_tricks.sliding_window_view(H, (w, w))
        complete = np.all(np.isfinite(win), axis=(2, 3))
        idx = np.argwhere(complete)
        if len(idx):
            flat = win[complete].reshape(len(idx), -1)
            coef = flat @ pinv.T                    # (K, 6)
            G[idx[:, 0] + _STENCIL, idx[:, 1] + _STENCIL] = coef[:, 1:3]
    return G


def extract_patch(mesh: DiscreteHypersurface, vertex, grad_bound=0.5,
                  grid_step=0.02, rmax=0.6, zmax=0.6,
                  compute_holder=True) -> PatchChart:
    """Largest validated Monge patch around a vertex.

    The vertex normal is rotated to the vertical; heights over a Cartesian
    grid come from vertical ray casting (exactly one surface sheet per
    node required); gradients from local quadratic fits.  The base point
    and rotation are refitted toward f(0) = 0 and Df(0) = 0 until
    |Df(0)| <= 1e-10 or for _MAX_REFIT rounds, which can end above that
    (a few 1e-8 on perturbed sub-1 spheres).  The radius is the distance
    to the nearest node that is multi-sheet, uncovered, or has
    |grad f| > grad_bound; it is capped by the grid extent.
    """
    if mesh.dim_d != 2:
        raise InvalidParams("patch extraction expects a surface in 3-space")
    if not all(0.0 < v < np.inf for v in (grad_bound, grid_step, rmax, zmax)):
        raise InvalidParams("grad_bound, grid_step, rmax and zmax must be "
                            "finite and positive")
    vertex = int(_vertex_indices(mesh, vertex))
    nrm = mesh.vertex_normals[vertex]
    if not np.all(np.isfinite(nrm)):
        raise DegenerateGeometry(f"undefined normal at vertex {vertex}")
    R = _rotation_to_z(nrm)
    base = mesh.vertices[vertex].copy()

    nh = int(np.floor(rmax / grid_step + 1e-12))
    ax = grid_step * np.arange(-nh, nh + 1)
    GX, GY = np.meshgrid(ax, ax, indexing="ij")
    nodes = np.stack([GX.ravel(), GY.ravel()], 1)
    n = 2 * nh + 1
    ctr = (n * n) // 2
    tol = 1e-6 * mesh.diameter
    gtol = 1e-10

    # candidate elements for all raycasts, with slack for the refit tilt
    Pl0 = (mesh.vertices - base) @ R.T
    margin = 0.25 * max(rmax, zmax)
    box = np.array([rmax + margin, rmax + margin, zmax + margin])
    TV0 = Pl0[mesh.elements]
    keep_t = np.all(TV0.min(axis=1) <= box, axis=1) \
        & np.all(TV0.max(axis=1) >= -box, axis=1)
    F = mesh.elements[keep_t]

    # rotation refit on a small window around the origin: cheap raycasts
    off = grid_step * np.arange(-_STENCIL, _STENCIL + 1)
    SX, SY = np.meshgrid(off, off, indexing="ij")
    ctr_small = len(off) ** 2 // 2
    pinv_small = np.linalg.pinv(_design(SX.ravel(), SY.ravel()))
    for _ in range(_MAX_REFIT):
        Pl = (mesh.vertices - base) @ R.T
        hs, vs = _raycast_heights(Pl, F, grid_step, _STENCIL, zmax, tol)
        if not vs[ctr_small]:
            raise NonGraphical(
                f"surface is not single-valued above vertex {vertex}")
        base = base + hs[ctr_small] * R[2]
        hs = hs - hs[ctr_small]
        if not vs.all():
            g0 = np.zeros(2)
        else:
            g0 = (pinv_small @ hs)[1:3]
        if np.hypot(*g0) <= gtol:
            break
        m = np.array([-g0[0], -g0[1], 1.0])
        m /= np.linalg.norm(m)
        R = _rotation_to_z(m) @ R

    Pl = (mesh.vertices - base) @ R.T
    h, valid = _raycast_heights(Pl, F, grid_step, nh, zmax, tol)
    if not valid[ctr]:
        raise NonGraphical(
            f"surface is not single-valued above vertex {vertex}")
    base = base + h[ctr] * R[2]
    h = h - h[ctr]
    H = h.reshape(n, n)

    G = _fit_gradients(H, grid_step)
    gn = np.hypot(G[:, :, 0], G[:, :, 1]).ravel()
    valid_g = np.isfinite(gn)
    bad = (~valid) | (~valid_g) | (valid_g & (gn > grad_bound))
    dist = np.hypot(nodes[:, 0], nodes[:, 1])
    radius = float(dist[bad].min()) if bad.any() else float(nh * grid_step)
    if radius <= grid_step:
        raise NonGraphical(
            f"no graphical disc above vertex {vertex} at this grid step")

    keep = (dist < radius) & valid & valid_g
    grid = nodes[keep]
    heights = H.ravel()[keep]
    grads = G.reshape(-1, 2)[keep]
    grad_sup = float(gn[keep].max())
    if compute_holder:
        r = np.linalg.norm(grid[:, None, :] - grid[None, :, :], axis=-1)
        np.fill_diagonal(r, np.inf)
        dg = np.linalg.norm(grads[:, None, :] - grads[None, :, :], axis=-1)
        grad_holder = float(np.max(dg / r ** _HOLDER_EXPONENT))
    else:
        grad_holder = float("nan")
    return PatchChart(vertex, base, R, radius, grid_step, grid, heights,
                      grads, grad_sup, grad_holder)


def patch_radii(mesh, vertices=None, workers=1, **kwargs):
    """extract_patch radius for many vertices; NaN where NonGraphical."""
    workers = get_workers(workers)
    vertices = np.arange(mesh.n_vertices) if vertices is None \
        else np.atleast_1d(_vertex_indices(mesh, vertices))
    out = np.empty(len(vertices))

    kwargs.setdefault("compute_holder", False)

    def do(i):
        try:
            out[i] = extract_patch(mesh, vertices[i], **kwargs).radius
        except NonGraphical:
            out[i] = np.nan

    if workers == 1:
        for i in range(len(vertices)):
            do(i)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(do, range(len(vertices))))
    return out


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
    if not np.all((radii > 0) & (radii <= mesh.diameter)):
        raise InvalidParams("radii must lie in (0, diameter]")
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
    if not 1 <= sample_pairs < np.inf:
        raise InvalidParams(f"sample_pairs must be finite and >= 1, got "
                            f"{sample_pairs}")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise InvalidParams(f"seed must be a non-negative integer, got "
                            f"{seed!r}")
    V = mesh.n_vertices
    n_src = min(V, max(1, -(-int(sample_pairs) // V)))
    rng = np.random.default_rng(seed)
    sources = np.sort(rng.choice(V, size=n_src, replace=False))
    D = intrinsic_distances(mesh, sources)
    chord = np.linalg.norm(mesh.vertices[sources][:, None, :]
                           - mesh.vertices[None, :, :], axis=-1)
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

    Per element, D = T - x are the corners and E = roll(T, -1) - T the
    edges (a segment's second edge is its first reversed).  Edge k is
    nearest at D_k + t_k E_k, t_k = clip(-<D_k, E_k> / |E_k|^2, 0, 1).  A
    triangle also offers <D_0, n>^2 when the foot of the perpendicular falls
    inside, that is when every <D_k, E_k x n> = <D_k x D_k+1, n> is >= 0.
    """
    T = mesh.vertices[mesh.elements].transpose(2, 1, 0)      # (n, k, M)
    E = np.roll(T, -1, axis=1) - T
    E2 = (E * E).sum(0)
    n = mesh.element_normals.T
    if mesh.dim_d == 2:
        F = np.cross(E, n[:, None], axis=0)

    def nearest_sq(Q):
        D = [Tc - Qc[:, None, None] for Tc, Qc in zip(T, Q.T)]  # (K, k, M)
        t = np.clip(-sum(Dc * Ec for Dc, Ec in zip(D, E)) / E2, 0.0, 1.0)
        d2 = sum(np.square(Dc + t * Ec) for Dc, Ec in zip(D, E)).min(axis=1)
        if mesh.dim_d == 2:
            inside = np.all(sum(Dc * Fc for Dc, Fc in zip(D, F)) >= 0, axis=1)
            h = sum(Dc[:, 0] * nc for Dc, nc in zip(D, n))
            d2 = np.where(inside, np.minimum(d2, h * h), d2)
        return d2.min(axis=1)

    return np.sqrt(np.concatenate([nearest_sq(P[a0:a0 + 128])
                                   for a0 in range(0, len(P), 128)]))


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
