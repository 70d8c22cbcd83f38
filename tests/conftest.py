"""Shared fixtures: small meshes and brute-force reference evaluators."""

import os
import tracemalloc

import numpy as np
import pytest

from nlcurv.functionals import _near_field, bending_energy
from nlcurv.probes import _MAX_REFIT, _STENCIL, _raycast_heights
from nlcurv.quadrature import build_scheme
from nlcurv.surface import (_rotation_to_z, build_surface, make_primitive,
                            save_off)


def make_flat_square(n=8, scale=1.0):
    """Flat triangulated square in 3-space (open mesh, +z normals)."""
    ax = np.linspace(0, scale, n + 1)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    V = np.stack([X.ravel(), Y.ravel(), np.zeros((n + 1) ** 2)], 1)

    def vid(i, j):
        return i * (n + 1) + j

    F = []
    for i in range(n):
        for j in range(n):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            F.append((a, b, c))
            F.append((a, c, d))
    return build_surface(V, np.asarray(F), allow_boundary=True)


def make_trefoil(n=96):
    """A knotted closed curve in 3-space (projection mode only)."""
    t = 2 * np.pi * np.arange(n) / n
    V = np.stack([np.sin(t) + 2 * np.sin(2 * t),
                  np.cos(t) - 2 * np.cos(2 * t), -np.sin(3 * t)], 1)
    E = np.stack([np.arange(n), (np.arange(n) + 1) % n], 1)
    return build_surface(V, E)


def make_bumpy_polygon(ambient=2, n=64):
    """A bumpy n-gon in the plane, or lifted out of it into 3-space
    (projection mode)."""
    th = 2 * np.pi * np.arange(n) / n
    r = 1.0 + 0.05 * np.random.default_rng(2).standard_normal(n)
    V = np.stack([r * np.cos(th), r * np.sin(th)], 1)
    E = np.stack([np.arange(n), (np.arange(n) + 1) % n], 1)
    if ambient == 3:
        V = np.c_[V, 0.2 * np.sin(3 * th)]
    return build_surface(V, E)


def make_bowtie(rotation=np.eye(3)):
    """A closed octahedron-like mesh whose apex 0 sits over a self-crossing
    quadrilateral link: the link's vector area is 0, so the area-weighted
    normals at vertex 0 (and at vertex 1) cancel."""
    V = np.array([(0, 0, 1), (0, 0, -1), (1, 1, 0), (1, -1, 0), (-1, 1, 0),
                  (-1, -1, 0)], float)
    F = [(0, 2 + i, 2 + (i + 1) % 4) for i in range(4)] \
        + [(1, 2 + (i + 1) % 4, 2 + i) for i in range(4)]
    return build_surface(V @ rotation.T, F)


def save_off_with_stray_vertex(mesh, path):
    """save_off of mesh plus one vertex, (5, 5, 0), on no element."""
    save_off(mesh, path)
    head, _, *rest = path.read_text().splitlines()
    nv = mesh.n_vertices
    path.write_text("\n".join([head, f"{nv + 1} {mesh.n_elements} 0",
                               *rest[:nv], "5 5 0", *rest[nv:]]))


def make_flat_strip(n=32, scale=1.0):
    """Straight open polyline in the plane."""
    x = np.linspace(0, scale, n + 1)
    V = np.stack([x, np.zeros(n + 1)], 1)
    E = np.stack([np.arange(n), np.arange(1, n + 1)], 1)
    return build_surface(V, E, allow_boundary=True)


def subdivide_edge_loop(V, F):
    """One flat midpoint subdivision by a per-edge loop: the midpoints are
    numbered after V in order of first use, face by face, edges ab, bc,
    ca; the oracle of surface._subdivide_project without the projection."""
    verts = [tuple(v) for v in V]
    cache = {}
    F2 = []

    def mid(a, b):
        key = (a, b) if a < b else (b, a)
        if key not in cache:
            verts.append(tuple(
                (np.asarray(verts[a]) + np.asarray(verts[b])) / 2))
            cache[key] = len(verts) - 1
        return cache[key]

    for a, b, c in F:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        F2 += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
    return np.asarray(verts), np.asarray(F2)


def flat_icosahedron_refined(levels):
    """Icosahedron with flat midpoint subdivision (no sphere projection)."""
    from nlcurv.surface import unit_icosphere

    V, F = unit_icosphere(0)
    for _ in range(levels):
        V, F = subdivide_edge_loop(V, F)
    return build_surface(V, F)


def naive_pointwise(mesh, scheme, params, vertex, absolute):
    """Reference H_s / |A|_s at a vertex by a plain double loop.

    The loop checks the kernel sum over the non-excluded samples; the
    library's near-field term for the excluded star is added as is.
    """
    star = set()
    for m, el in enumerate(mesh.elements):
        if vertex in el:
            star.add(m)
    x = mesh.vertices[vertex]
    total = 0.0
    for j in range(scheme.n_samples):
        if int(scheme.element_of[j]) in star:
            continue
        y = scheme.points[j]
        d = x - y
        r = np.linalg.norm(d)
        dot = naive_pairing(mesh, scheme.element_of[j], d)
        if absolute:
            dot = abs(dot)
        total += dot / r ** (mesh.dim_d + 1 + params.s) * scheme.weights[j]
    near = _near_field(mesh, params, [vertex], "A" if absolute else "H")[0]
    return params.c_s * (total + near)


def naive_pairing(mesh, element, d):
    """<d, n> on a hypersurface; for a curve in 3-space |d - <d, t> t|."""
    if mesh.codim2:
        t = mesh.element_tangents[element]
        return float(np.linalg.norm(d - (d @ t) * t))
    return float(d @ mesh.element_normals[element])


def naive_excluded(mesh, scheme):
    """Per element, the set of elements its samples leave out."""
    star = {}
    for m, el in enumerate(mesh.elements):
        for v in el:
            star.setdefault(int(v), set()).add(m)
    excl_elem = []
    for m, el in enumerate(mesh.elements):
        if scheme.diagonal_policy == "skip_same_element":
            excl_elem.append({m})
        else:
            s = set()
            for v in el:
                s |= star[int(v)]
            excl_elem.append(s)
    return excl_elem


def naive_energy(mesh, scheme, params, kind):
    """Reference W_{s,p} / B_{s,p} by plain double loops over samples."""
    excl_elem = naive_excluded(mesh, scheme)
    total = 0.0
    for i in range(scheme.n_samples):
        ex = excl_elem[int(scheme.element_of[i])]
        x = scheme.points[i]
        acc = 0.0
        for j in range(scheme.n_samples):
            if int(scheme.element_of[j]) in ex:
                continue
            d = x - scheme.points[j]
            r = np.linalg.norm(d)
            dot = naive_pairing(mesh, scheme.element_of[j], d)
            if kind == "A":
                dot = abs(dot)
            acc += dot / r ** (mesh.dim_d + 1 + params.s) * scheme.weights[j]
        if kind == "H":
            acc = abs(acc)
        total += (params.c_s * acc) ** params.p * scheme.weights[i]
    return total


def naive_tangent_point(mesh, scheme, p, q):
    """Reference T_{p,q} by plain double loops over samples."""
    excl_elem = naive_excluded(mesh, scheme)
    total = 0.0
    for i in range(scheme.n_samples):
        ex = excl_elem[int(scheme.element_of[i])]
        x = scheme.points[i]
        for j in range(scheme.n_samples):
            if int(scheme.element_of[j]) in ex:
                continue
            d = x - scheme.points[j]
            r = np.linalg.norm(d)
            dot = abs(naive_pairing(mesh, scheme.element_of[j], d))
            total += dot ** p / r ** (q - p) \
                * scheme.weights[j] * scheme.weights[i]
    return total


def fd_gradient_oracle(mesh, params, h=1e-4, order="gauss3",
                       diagonal_policy="skip_vertex_star"):
    """Reference central-difference gradient of B_{s,p}: every perturbed
    energy rebuilds the mesh and the scheme and runs the full double sum.

    Same stencil as the library: step h times the vertex's mean incident
    edge length.
    """
    V = mesh.vertices
    e = mesh.edges
    elen = np.linalg.norm(V[e[:, 0]] - V[e[:, 1]], axis=1)
    ends = e.T.ravel()
    deg = np.bincount(ends, minlength=len(V))
    local = np.bincount(ends, np.tile(elen, 2), len(V)) / np.maximum(deg, 1)

    def energy(Vp):
        m = mesh.with_vertices(Vp)
        sc = build_scheme(m, order, diagonal_policy)
        return bending_energy(m, sc, params, workers=1).energy

    grad = np.zeros_like(V)
    for i in range(len(V)):
        step = h * local[i]
        for k in range(mesh.ambient_n):
            Vp = V.copy()
            Vp[i, k] += step
            ep = energy(Vp)
            Vp[i, k] -= 2 * step
            grad[i, k] = (ep - energy(Vp)) / (2 * step)
    return grad


# Reference for ahlfors_ratio: the library's former recursive clipper,
# accurate to about rel_tol (it counts half of the unresolved strip).

def _simplex_areas(T):
    if T.shape[1] == 2:
        return np.linalg.norm(T[:, 1] - T[:, 0], axis=1)
    return np.linalg.norm(np.cross(T[:, 1] - T[:, 0], T[:, 2] - T[:, 0]),
                          axis=1) / 2


def _subdivide(T):
    if T.shape[1] == 2:
        m = (T[:, 0] + T[:, 1]) / 2
        return np.concatenate([np.stack([T[:, 0], m], 1),
                               np.stack([m, T[:, 1]], 1)])
    a, b, c = T[:, 0], T[:, 1], T[:, 2]
    ab, bc, ca = (a + b) / 2, (b + c) / 2, (c + a) / 2
    return np.concatenate([np.stack([a, ab, ca], 1),
                           np.stack([ab, b, bc], 1),
                           np.stack([ca, bc, c], 1),
                           np.stack([ab, bc, ca], 1)])


def _clipped_measure(T, center, r, rel_tol=1e-4, max_depth=24):
    """Measure of the mesh fragment inside the ball, by recursive clipping."""
    total = 0.0
    for _ in range(max_depth):
        if len(T) == 0:
            break
        d = np.linalg.norm(T - center[None, None, :], axis=-1)
        edge = np.linalg.norm(T - np.roll(T, 1, axis=1), axis=-1).max(axis=1)
        inside = np.all(d <= r, axis=1)
        outside = d.min(axis=1) - edge >= r
        total += _simplex_areas(T[inside]).sum()
        T = T[~inside & ~outside]
        pending = _simplex_areas(T).sum()
        if pending <= 2 * rel_tol * max(total, 1e-300):
            total += pending / 2  # straddling strip, split the difference
            return total
        T = _subdivide(T)
    total += _simplex_areas(T).sum() / 2
    return total


def clipped_measure_oracle(mesh, vertex, r):
    """Mesh measure inside B(vertices[vertex], r), to about 1e-4 relative."""
    T = mesh.vertices[mesh.elements].copy()
    return _clipped_measure(T, mesh.vertices[vertex], float(r))


def patch_radius_oracle(mesh, vertex, grad_bound=0.5, grid_step=0.02,
                        rmax=0.6, zmax=0.6):
    """extract_patch's radius at one vertex (NaN where it raises
    NonGraphical), the unbatched way: every raycast sees every element
    that passes the box test, and every complete window gets a gradient."""
    X = mesh.vertices
    R = _rotation_to_z(mesh.vertex_normals[vertex])
    base = X[vertex].copy()
    nh = int(np.floor(rmax / grid_step + 1e-12))
    n, w = 2 * nh + 1, 2 * _STENCIL + 1
    margin = 0.25 * max(rmax, zmax)
    box = np.array([rmax + margin, rmax + margin, zmax + margin])
    TV0 = ((X - base) @ R.T)[mesh.elements]
    F = mesh.elements[np.all(TV0.min(axis=1) <= box, axis=1)
                      & np.all(TV0.max(axis=1) >= -box, axis=1)]
    off = grid_step * np.arange(-_STENCIL, _STENCIL + 1)
    SX, SY = (a.ravel() for a in np.meshgrid(off, off, indexing="ij"))
    pinv = np.linalg.pinv(np.stack([np.ones_like(SX), SX, SY, SX * SX,
                                    SX * SY, SY * SY], 1))

    def heights(half):
        h, valid = _raycast_heights(((X - base) @ R.T)[F],
                                    np.zeros(len(F), int), 1, grid_step,
                                    half, zmax, 1e-6 * mesh.diameter)
        return h[0], valid[0], len(h[0]) // 2

    for _ in range(_MAX_REFIT):
        h, valid, c = heights(_STENCIL)
        if not valid[c]:
            return np.nan
        base = base + h[c] * R[2]
        g0 = (pinv @ (h - h[c]))[1:3] if valid.all() else np.zeros(2)
        if np.hypot(*g0) <= 1e-10:
            break
        m = np.array([-g0[0], -g0[1], 1.0])
        R = _rotation_to_z(m / np.linalg.norm(m)) @ R
    h, valid, c = heights(nh)
    if not valid[c]:
        return np.nan
    win = np.lib.stride_tricks.sliding_window_view((h - h[c]).reshape(n, n),
                                                   (w, w))
    complete = np.all(np.isfinite(win), axis=(2, 3))
    gn = np.full((n, n), np.nan)
    coef = win[complete].reshape(-1, w * w) @ pinv.T
    gn[np.nonzero(complete)[0] + _STENCIL,
       np.nonzero(complete)[1] + _STENCIL] = np.hypot(coef[:, 1], coef[:, 2])
    ax = grid_step * np.arange(-nh, nh + 1)
    dist = np.hypot(*np.meshgrid(ax, ax, indexing="ij")).ravel()
    gn = gn.ravel()
    radius = dist[~valid | ~(gn <= grad_bound)].min()
    return radius if radius > grid_step else np.nan


def raycast_heights_oracle(TP, owner, nb, delta, nh, zmax, tol,
                           disc=np.inf):
    """probes._raycast_heights one triangle at a time: every node of its
    grid bbox within disc steps of the origin takes the barycentric test,
    with the library's arithmetic."""
    n = 2 * nh + 1
    count = np.zeros((nb, n, n), int)
    zhi = np.full((nb, n, n), -np.inf)
    zlo = np.full((nb, n, n), np.inf)
    for (A, B, C), o in zip(TP, owner):
        if min(A[2], B[2], C[2]) > zmax or max(A[2], B[2], C[2]) < -zmax:
            continue
        den = (B[0] - A[0]) * (C[1] - A[1]) - (B[1] - A[1]) * (C[0] - A[0])
        lo = [np.ceil(min(A[k], B[k], C[k]) / delta + nh - 1e-9)
              for k in (0, 1)]
        hi = [np.floor(max(A[k], B[k], C[k]) / delta + nh + 1e-9)
              for k in (0, 1)]
        i0, j0 = (int(np.clip(v, 0, n - 1)) for v in lo)
        i1, j1 = (int(np.clip(v, -1, n - 1)) for v in hi)
        if not abs(den) > 1e-14 or i1 < i0 or j1 < j0:
            continue
        i, j = (a.ravel() for a in np.meshgrid(np.arange(i0, i1 + 1),
                                               np.arange(j0, j1 + 1),
                                               indexing="ij"))
        inside = (i - nh) ** 2 + (j - nh) ** 2 <= disc * disc
        i, j = i[inside], j[inside]
        px, py = (i - nh) * delta, (j - nh) * delta
        w0 = ((B[0] - px) * (C[1] - py) - (B[1] - py) * (C[0] - px)) / den
        w1 = ((C[0] - px) * (A[1] - py) - (C[1] - py) * (A[0] - px)) / den
        w2 = 1.0 - w0 - w1
        zz = w0 * A[2] + w1 * B[2] + w2 * C[2]
        on = (w0 >= -1e-9) & (w1 >= -1e-9) & (w2 >= -1e-9) \
            & (np.abs(zz) <= zmax)
        np.add.at(count[o], (i[on], j[on]), 1)
        np.maximum.at(zhi[o], (i[on], j[on]), zz[on])
        np.minimum.at(zlo[o], (i[on], j[on]), zz[on])
    valid = (count >= 1) & (zhi - zlo <= tol)
    return (np.where(valid, zhi, np.nan).reshape(nb, -1),
            valid.reshape(nb, -1))


# Reference for probes._dist_to_surface on triangles: the library's former
# Voronoi-region point-triangle test (Ericson, Real-Time Collision
# Detection, 2004, 5.1.5).

def _point_triangle_distance(P, A, B, C):
    """Distances from points P (K,3) to triangles (T,3) — (K,T) array."""
    ab = B - A
    ac = C - A
    bc = C - B
    ap = P[:, None, :] - A[None, :, :]
    bp = P[:, None, :] - B[None, :, :]
    cp = P[:, None, :] - C[None, :, :]
    d1 = np.einsum("tk,ptk->pt", ab, ap)
    d2 = np.einsum("tk,ptk->pt", ac, ap)
    d3 = np.einsum("tk,ptk->pt", ab, bp)
    d4 = np.einsum("tk,ptk->pt", ac, bp)
    d5 = np.einsum("tk,ptk->pt", ab, cp)
    d6 = np.einsum("tk,ptk->pt", ac, cp)
    va = d3 * d6 - d5 * d4
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2

    t_ab = np.clip(d1 / np.where(d1 - d3 != 0, d1 - d3, 1.0), 0, 1)
    t_ac = np.clip(d2 / np.where(d2 - d6 != 0, d2 - d6, 1.0), 0, 1)
    den_bc = (d4 - d3) + (d5 - d6)
    t_bc = np.clip((d4 - d3) / np.where(den_bc != 0, den_bc, 1.0), 0, 1)
    denom = va + vb + vc
    denom = np.where(denom != 0, denom, 1.0)
    v = vb / denom
    w = vc / denom

    def sq(q):
        return np.einsum("ptk,ptk->pt", q, q)

    inner = sq(ap - ab[None, :, :] * v[:, :, None]
               - ac[None, :, :] * w[:, :, None])
    e_ab = sq(ap - ab[None, :, :] * t_ab[:, :, None])
    e_ac = sq(ap - ac[None, :, :] * t_ac[:, :, None])
    e_bc = sq(bp - bc[None, :, :] * t_bc[:, :, None])
    d2min = np.minimum(np.minimum(e_ab, e_ac), e_bc)
    interior = (va > 0) & (vb > 0) & (vc > 0)
    d2min = np.where(interior, np.minimum(d2min, inner), d2min)
    return np.sqrt(d2min)


def triangle_distance_oracle(P, mesh):
    """Distance from each point to a triangle mesh, 128 points at a time."""
    T = mesh.vertices[mesh.elements]
    return np.concatenate([
        _point_triangle_distance(P[a:a + 128], T[:, 0], T[:, 1],
                                 T[:, 2]).min(axis=1)
        for a in range(0, len(P), 128)])


def segment_distance_oracle(P, mesh):
    """Distance from each point to a polyline, one segment at a time."""
    best = np.full(len(P), np.inf)
    for i, j in mesh.elements:
        a, b = mesh.vertices[i], mesh.vertices[j]
        t = np.clip((P - a) @ (b - a) / ((b - a) @ (b - a)), 0.0, 1.0)
        best = np.minimum(best, np.linalg.norm(P - a - t[:, None] * (b - a),
                                               axis=1))
    return best


ACCEPTANCE_LINES = []


def traced_peak(f):
    """(traced peak bytes, result) of f().  numpy reports its buffers to
    tracemalloc, so the peak is exact."""
    tracemalloc.start()
    try:
        out = f()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def record_criterion(number, ok, detail):
    """One pass/fail summary line per acceptance criterion."""
    line = "criterion %02d %s  %s" % (number, "PASS" if ok else "FAIL", detail)
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def no_child_outlives_the_test():
    """Every forked worker is reaped before its call returns or raises."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process outlived the test (waitpid gave {pid})")


@pytest.fixture(scope="session")
def sphere2():
    return make_primitive("sphere_icosub", subdivisions=2)


@pytest.fixture(scope="session")
def sphere1():
    return make_primitive("sphere_icosub", subdivisions=1)


@pytest.fixture(scope="session")
def circle128():
    return make_primitive("circle", n=128)


@pytest.fixture(scope="session")
def flat_square():
    return make_flat_square()


@pytest.fixture(scope="session")
def flat_strip():
    return make_flat_strip()


@pytest.fixture(scope="session")
def bowtie():
    return make_bowtie()
