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
        nrm = mesh.element_normals[scheme.element_of[j]]
        d = x - y
        r = np.linalg.norm(d)
        dot = float(d @ nrm)
        if absolute:
            dot = abs(dot)
        total += dot / r ** (mesh.dim_d + 1 + params.s) * scheme.weights[j]
    near = _near_field(mesh, params, [vertex], "A" if absolute else "H")[0]
    return params.c_s * (total + near)


def naive_energy(mesh, scheme, params, kind):
    """Reference W_{s,p} / B_{s,p} by plain double loops over samples."""
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
            dot = float(d @ mesh.element_normals[scheme.element_of[j]])
            if kind == "A":
                dot = abs(dot)
            acc += dot / r ** (mesh.dim_d + 1 + params.s) * scheme.weights[j]
        if kind == "H":
            acc = abs(acc)
        total += (params.c_s * acc) ** params.p * scheme.weights[i]
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
