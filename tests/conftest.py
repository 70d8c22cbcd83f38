"""Shared fixtures: small meshes and brute-force reference evaluators."""

import numpy as np
import pytest

from nlcurv.functionals import _near_field, bending_energy
from nlcurv.quadrature import build_scheme
from nlcurv.surface import build_surface, make_primitive


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


def make_flat_strip(n=32, scale=1.0):
    """Straight open polyline in the plane."""
    x = np.linspace(0, scale, n + 1)
    V = np.stack([x, np.zeros(n + 1)], 1)
    E = np.stack([np.arange(n), np.arange(1, n + 1)], 1)
    return build_surface(V, E, allow_boundary=True)


def flat_icosahedron_refined(levels):
    """Icosahedron with flat midpoint subdivision (no sphere projection)."""
    from nlcurv.surface import unit_icosphere

    V, F = unit_icosphere(0)
    for _ in range(levels):
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
        V, F = np.asarray(verts), np.asarray(F2)
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
        dot = naive_pairing(mesh, params.codim_mode, scheme.element_of[j], d)
        if absolute:
            dot = abs(dot)
        total += dot / r ** (mesh.dim_d + 1 + params.s) * scheme.weights[j]
    near = _near_field(mesh, params, [vertex], "A" if absolute else "H")[0]
    return params.c_s * (total + near)


def naive_pairing(mesh, codim_mode, element, d):
    """<d, n> on a hypersurface; in projection mode |d - <d, t> t|."""
    if mesh.codim2 or codim_mode == "projection":
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
            dot = naive_pairing(mesh, params.codim_mode,
                                scheme.element_of[j], d)
            if kind == "A":
                dot = abs(dot)
            acc += dot / r ** (mesh.dim_d + 1 + params.s) * scheme.weights[j]
        if kind == "H":
            acc = abs(acc)
        total += (params.c_s * acc) ** params.p * scheme.weights[i]
    return total


def naive_tangent_point(mesh, scheme, p, q, codim_mode="hypersurface"):
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
            dot = abs(naive_pairing(mesh, codim_mode, scheme.element_of[j], d))
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


ACCEPTANCE_LINES = []


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
