"""Discrete hypersurfaces: representation, file IO, primitives, elementary geometry.

A surface is a closed simplicial d-manifold embedded in (d+1)-space
(curves in the plane, triangle meshes in 3-space) or, in codimension-2
mode, a closed curve in 3-space.  Meshes are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import (
    DegenerateGeometry,
    InvalidParams,
    NonManifoldError,
    OrientationError,
    ParseError,
    UnsupportedMode,
)

__all__ = [
    "DiscreteHypersurface",
    "EnergyParameters",
    "build_surface",
    "load_mesh",
    "save_off",
    "make_primitive",
    "rescale",
    "convexity_check",
    "PRIMITIVE_KINDS",
]


# --------------------------------------------------------------------------
# core types
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteHypersurface:
    """Closed oriented simplicial d-manifold with per-element geometry.

    Every vertex lies on an element.  Vertex normals come only from
    vertex_normals, which raises where one is undefined.

    vertices        (V, ambient_n) float array
    elements        (M, d+1) int array of vertex indices
    element_normals (M, ambient_n) unit outward normals, empty in codim-2 mode
    element_measures(M,) segment lengths / triangle areas
    vertex_measures (V,) lumped measures, 1/(d+1) share of each adjacent element
    edges           (E, 2) sorted vertex pairs, rows in lexicographic order
    """

    dim_d: int
    ambient_n: int
    vertices: np.ndarray
    elements: np.ndarray
    element_normals: np.ndarray
    element_measures: np.ndarray
    vertex_measures: np.ndarray
    edges: np.ndarray

    def __post_init__(self):
        for a in (self.vertices, self.elements, self.element_normals,
                  self.element_measures, self.vertex_measures, self.edges):
            a.setflags(write=False)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    @property
    def codim2(self) -> bool:
        return self.ambient_n - self.dim_d > 1

    @property
    def area(self) -> float:
        return float(self.element_measures.sum())

    @functools.cached_property
    def diameter(self) -> float:
        """Largest vertex distance, over _square_distances row blocks."""
        V = self.vertices
        return float(np.sqrt(max(d2.max()
                                 for _, d2 in _square_distances(V, V))))

    @functools.cached_property
    def element_centroids(self) -> np.ndarray:
        c = self.vertices[self.elements].mean(axis=1)
        c.setflags(write=False)
        return c

    @functools.cached_property
    def element_tangents(self) -> np.ndarray:
        """Unit tangents per segment (d=1 only)."""
        if self.dim_d != 1:
            raise UnsupportedMode("tangents are defined for curves only")
        t = _element_geometry(self.vertices, self.elements)[2]
        t.setflags(write=False)
        return t

    @functools.cached_property
    def vertex_normals(self) -> np.ndarray:
        """Measure-weighted averages of adjacent element normals, renormalized;
        DegenerateGeometry where they cancel, to below 1e-12 of the vertex
        measure, which leaves roundoff with no direction."""
        if self.codim2:
            raise UnsupportedMode("vertex normals need a hypersurface")
        vn = np.zeros_like(self.vertices)
        w = self.element_normals * self.element_measures[:, None]
        for k in range(self.elements.shape[1]):
            np.add.at(vn, self.elements[:, k], w)
        norm = np.linalg.norm(vn, axis=1)
        if (bad := np.flatnonzero(norm <= 1e-12 * self.vertex_measures)).size:
            raise DegenerateGeometry(f"undefined normal at vertex {bad[0]}")
        vn /= norm[:, None]
        vn.setflags(write=False)
        return vn

    @functools.cached_property
    def area_centroid(self) -> np.ndarray:
        c = (self.element_centroids * self.element_measures[:, None]).sum(0) / self.area
        c.setflags(write=False)
        return c

    @functools.cached_property
    def _tables(self) -> dict:
        """The connectivity-derived tables of _per_topology by key."""
        return {}

    def with_vertices(self, vertices: np.ndarray) -> "DiscreteHypersurface":
        """Same elements, new vertex positions: only the geometry is
        recomputed, and the elements are never re-oriented, so the new mesh
        shares this one's edge list and topology tables."""
        V = _coordinates(vertices)
        if V.shape != self.vertices.shape:
            raise ParseError(f"need vertices of shape {self.vertices.shape}")
        mesh = _assemble(V, self.elements, self.edges)
        mesh.__dict__["_tables"] = self._tables
        return mesh


@dataclass(frozen=True)
class EnergyParameters:
    """Kernel parameters shared by every nonlocal functional.

    normalization 'raw' uses c_s = 1; 'limit_normalized' uses c_s = 1 - s,
    which reproduces the classical curvature of circles as s -> 1.
    """

    s: float
    p: float = 4.0
    normalization: str = "raw"

    def __post_init__(self):
        _check_s(self.s)
        _positive("p", self.p)
        if self.normalization not in ("raw", "limit_normalized"):
            raise InvalidParams(f"unknown normalization {self.normalization!r}")

    @property
    def c_s(self) -> float:
        return 1.0 if self.normalization == "raw" else 1.0 - self.s

    def subcritical(self, dim_d: int) -> bool:
        return self.p > dim_d / self.s


# --------------------------------------------------------------------------
# construction and validation
# --------------------------------------------------------------------------

def _element_geometry(V, E):
    """(normals, measures, tangents) of segments or triangles E on vertices
    V: unit normals (none for a curve in 3-space), lengths or areas, and
    a segment's unit tangent (None for triangles).  A non-positive measure
    raises ParseError."""
    P = V[E]
    vec = P[:, 1] - P[:, 0]
    if E.shape[1] == 3:
        (a0, a1, a2), (b0, b1, b2) = vec.T, (P[:, 2] - P[:, 0]).T
        # np.cross's own formula, without its per-call axis handling
        vec = np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2,
                        a0 * b1 - a1 * b0], 1)
    size = np.linalg.norm(vec, axis=1)
    measures = size if E.shape[1] == 2 else size / 2.0
    if measures.min() <= 0:
        raise ParseError("degenerate element with non-positive measure")
    unit = vec / size[:, None]
    if E.shape[1] == 3:
        return unit, measures, None
    if V.shape[1] == 2:
        return np.stack([unit[:, 1], -unit[:, 0]], 1), measures, unit
    return np.empty((0, V.shape[1])), measures, unit


def _rotation_to_z(n):
    """Orthogonal matrices R with R @ n = e_z (rows are the local axes), of
    shape (..., 3, 3) for unit vectors n of shape (..., 3)."""
    n = np.asarray(n, float)
    c = n[..., 2]
    flip = c < -1 + 1e-12
    K = np.zeros(n.shape + (3,))       # cross-product matrix of n x e_z
    K[..., 0, 2], K[..., 1, 2] = -n[..., 0], -n[..., 1]
    K[..., 2, 0], K[..., 2, 1] = n[..., 0], n[..., 1]
    R = np.eye(3) + K + K @ K / (1 + np.where(flip, 0.0, c))[..., None, None]
    R[flip] = np.diag([1.0, -1.0, -1.0])
    return R


def _check_s(s):
    """Raise InvalidParams unless 0 < s < 1."""
    if not 0.0 < s < 1.0:
        raise InvalidParams(f"s must lie in (0,1), got {s}")


def _check_exponent(what, value):
    """Raise InvalidParams unless 0 < value <= 1: a seminorm's alpha, beta."""
    if not 0.0 < value <= 1.0:
        raise InvalidParams(f"{what} must lie in (0,1], got {value}")


def _positive(what, *values):
    """Raise InvalidParams unless every value is positive and finite."""
    if not all(0 < v < np.inf for v in values):
        raise InvalidParams(f"{what} must be positive and finite")


def _check_int(what, value, least):
    """Raise InvalidParams unless value is an integer >= least; a bool or a
    float is not one, so it is rejected, not truncated."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer))
                                       and value >= least):
        raise InvalidParams(f"{what} must be an integer >= {least}, got "
                            f"{value!r}")


def _coordinates(vertices):
    """vertices as a new C-ordered float array; ParseError unless every
    coordinate is finite with |x| < 1e76, below which the element
    geometry's fourth powers of coordinate differences stay finite."""
    V = np.array(vertices, dtype=float, order="C", copy=True)
    if not np.all(np.abs(V) < 1e76):
        raise ParseError("vertex coordinates must be finite, |x| < 1e76")
    return V


def _vertex_indices(mesh, v):
    """v as an intp index array of its own shape (0-d for a scalar).

    Raises InvalidParams unless every entry is an integer in
    [0, n_vertices): a float index is rejected, not truncated.
    """
    idx = np.asarray(v)
    if idx.dtype.kind not in "iu" and idx.size:
        raise InvalidParams(f"vertex indices must be integers, got {v!r}")
    idx = idx.astype(np.intp)
    if not np.all((idx >= 0) & (idx < mesh.n_vertices)):
        raise InvalidParams(f"vertex indices must lie in [0, "
                            f"{mesh.n_vertices}), got {v!r}")
    return idx


# pairs per block of every dense pair reduction: the diameter, the convexity
# check, the ball query, the seminorms, the graph-linearization sums, the
# Hölder maxima, the patch raycast and fits and the point-to-surface distance
_PAIR_BUDGET = 1 << 14


def _budget_slices(cost):
    """Consecutive slices of rows whose costs sum to at most _PAIR_BUDGET; a
    row that exceeds it alone gets a slice of its own."""
    ends = np.cumsum(cost)
    a = 0
    while a < len(ends):
        b = max(a + 1, int(np.searchsorted(
            ends, ends[a] - cost[a] + _PAIR_BUDGET, "right")))
        yield slice(a, b)
        a = b


def _square_distances(P, C):
    """Yield (slice, squared distances) per _budget_slices block of rows of
    (point, centre) pairs: the points P[slice] against every centre C, d^2
    summed one coordinate at a time, the square of np.linalg.norm's
    distance bit for bit."""
    for sl in _budget_slices(np.full(len(P), len(C))):
        d2 = (P[sl, None, 0] - C[:, 0]) ** 2
        for c in range(1, P.shape[1]):
            d2 += (P[sl, None, c] - C[:, c]) ** 2
        yield sl, d2


def _ball_pairs(P, C, reach):
    """Row-major (point, centre) index arrays of the pairs of points P and
    centres C with |p - c|^2 <= reach^2.  reach is a number, or a function
    of the points' squared distances to their nearest centre that gives
    each point's reach.  The scan runs over _square_distances rows."""
    rows, cols = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for sl, d2 in _square_distances(P, C):
        r = reach(d2.min(axis=1))[:, None] if callable(reach) else reach
        i, j = np.nonzero(d2 <= r * r)
        rows.append(i + sl.start)
        cols.append(j)
    return np.concatenate(rows), np.concatenate(cols)


@functools.cache
def _blas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS through
    ctypes, or None where that library or its symbols are missing."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas64_*.so"))
    try:
        lib = ctypes.CDLL(libs[0])
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


def _fork_map(share, cost, width, workers):
    """The (N, width) float array of rows share(sl), N = len(cost).

    The rows split into contiguous shares of about equal summed cost, at
    most min(workers, usable cores, N), or one where os.fork is missing; a
    share ends at the last row whose cumulative cost is within its part of
    the total, so equal costs give equal row counts.  This process runs
    the first share and one forked child each other one, writing into a
    shared anonymous mmap.  Every child is reaped before this returns or
    raises; a share whose fork or child failed is rerun here, so its typed
    error surfaces.
    Forking costs milliseconds, so one process runs every row unless their
    cost, in _budget_slices' pair units, exceeds _PAIR_BUDGET per process.
    share must compute each row on its own, so that no row depends on the
    split.  The processes share the cores, so while they run, OpenBLAS
    runs one thread in each (_blas_threads); this process's count is
    restored before the map returns or raises.
    """
    import mmap
    import signal

    n = len(cost)
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    procs = min(workers, cores, n) if hasattr(os, "fork") else 1
    if procs < 2 or np.sum(cost) <= _PAIR_BUDGET * procs:
        return share(slice(0, n))
    cum = np.cumsum(cost)
    ends = [0, *cum.searchsorted(cum[-1] * np.arange(1, procs) / procs,
                                 "right"), n]
    shares = [slice(a, b) for a, b in zip(ends[:-1], ends[1:]) if b > a]
    out = np.frombuffer(mmap.mmap(-1, n * width * 8), float).reshape(n, width)
    children, failed = {}, []
    blas = _blas_threads()
    threads = blas[0]() if blas else 1
    try:
        if threads > 1:
            blas[1](1)
        for sl in shares[1:]:
            try:
                pid = os.fork()
            except OSError:  # no process to spare: this one runs the share
                failed.append(sl)
                continue
            if pid == 0:  # the child: never return into the caller's code
                code = 1
                try:
                    out[sl] = share(sl)
                    code = 0
                finally:
                    os._exit(code)
            children[pid] = sl
        out[shares[0]] = share(shares[0])
        for pid in list(children):
            if os.waitpid(pid, 0)[1] != 0:
                failed.append(children[pid])
            del children[pid]
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if threads > 1:
            blas[1](threads)
    for sl in failed:
        out[sl] = share(sl)
    return out


def _per_topology(mesh, key, build):
    """build(), a tuple of arrays made read-only, once per mesh topology:
    the meshes that with_vertices derives from one another share their
    elements array, and with it the tables stored under key.  A mesh from
    build_surface starts a table set of its own, even on equal elements."""
    tables = mesh._tables
    if key not in tables:
        tables[key] = build()
        for a in tables[key]:
            a.setflags(write=False)
    return tables[key]


def _signed_volume(vertices, elements):
    """Signed enclosed volume (d=2) or signed area (d=1 in the plane)."""
    if elements.shape[1] == 3:
        P = vertices[elements]
        return float(np.einsum("mk,mk->", P[:, 0], np.cross(P[:, 1], P[:, 2]))) / 6.0
    a = vertices[elements[:, 0]]
    b = vertices[elements[:, 1]]
    return float(np.sum(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])) / 2.0


def _edge_table(E, n, allow_boundary):
    """The undirected edges of elements E on n vertices, sorted per row, in
    lexicographic order, from one table of directed edges.

    It checks, in this order: every index lies in [0, n) (ParseError);
    every vertex lies on an element, and every (d-1)-face, a curve's
    vertex or a triangle's edge, on exactly two, at most two with
    allow_boundary (NonManifoldError); no directed face occurs twice, so
    adjacent elements induce opposite orientations on it (OrientationError).
    """
    if E.min() < 0 or E.max() >= n:
        raise ParseError("element index out of range")
    if (deg := np.bincount(E.ravel(), minlength=n)).min() == 0:
        raise NonManifoldError(f"vertex {deg.argmin()} lies on no element")
    curve = E.shape[1] == 2
    # (tail, head) rows: a curve's segments, a triangle's three half-edges
    tail, head = (E if curve else E[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)).T
    keys, counts = np.unique(np.minimum(tail, head) * n
                             + np.maximum(tail, head), return_counts=True)
    if curve:  # a curve's (d-1)-faces are its vertices
        counts = deg
    if allow_boundary:
        if counts.max() > 2:
            raise NonManifoldError("a face is shared by more than two elements")
    elif counts.min() != 2 or counts.max() != 2:
        raise NonManifoldError("mesh is not a closed manifold "
                               f"(face multiplicities {counts.min()}..{counts.max()})")
    if curve and max(np.bincount(tail).max(), np.bincount(head).max()) > 1:
        raise OrientationError("inconsistent segment winding")
    if not curve and np.diff(np.sort(tail * n + head)).min() == 0:
        raise OrientationError("adjacent elements do not induce opposite "
                               "orientations on their shared edge")
    return np.stack([keys // n, keys % n], axis=1)


def build_surface(vertices, elements, *,
                  allow_boundary=False) -> DiscreteHypersurface:
    """Assemble and validate a DiscreteHypersurface from raw arrays.

    The array widths give the mode: segments in the plane or in 3-space
    (codimension 2), or triangles in 3-space.  Closed hypersurfaces are
    re-oriented outward (positive signed volume) by a single global flip
    when needed.  ``allow_boundary`` admits open test
    fixtures and skips the closedness and volume-sign checks.
    """
    V = _coordinates(vertices)
    E = np.array(elements, dtype=np.int64, order="C", copy=True)
    if V.ndim != 2 or E.ndim != 2 or E.shape[1] not in (2, 3) or not len(E):
        raise ParseError("need (V,n) vertices and (M,2|3) elements, M >= 1")
    if (E.shape[1], V.shape[1]) not in ((2, 2), (2, 3), (3, 3)):
        raise InvalidParams(f"need segments in 2- or 3-space or triangles "
                            f"in 3-space, got shapes {V.shape}, {E.shape}")

    edges = _edge_table(E, len(V), allow_boundary)
    if not allow_boundary and V.shape[1] == E.shape[1] \
            and _signed_volume(V, E) < 0:
        E = E[:, ::-1].copy()
    return _assemble(V, E, edges)


def _assemble(V, E, edges):
    """Per-element and per-vertex geometry on validated elements with the
    edge list edges."""
    dim_d = E.shape[1] - 1
    normals, measures, _ = _element_geometry(V, E)
    vm = np.zeros(len(V))
    share = measures / (dim_d + 1)
    for k in range(dim_d + 1):
        np.add.at(vm, E[:, k], share)
    return DiscreteHypersurface(dim_d, V.shape[1], V, E, normals, measures,
                                vm, edges)


# --------------------------------------------------------------------------
# file IO
# --------------------------------------------------------------------------

def _tokens(path):
    try:
        with open(path) as fh:
            for line in fh:
                line = line.split("#")[0].strip()
                if line:
                    yield line
    except OSError as exc:
        raise ParseError(str(exc)) from exc


def load_mesh(path) -> DiscreteHypersurface:
    """Read an ASCII OBJ (by its .obj extension) or OFF file (triangles or
    closed polylines).  A malformed file raises ParseError or another
    NlcurvError."""
    try:
        if str(path).lower().endswith(".obj"):
            return _load_obj(path)
        return _load_off(path)
    except (ValueError, IndexError, OverflowError) as exc:
        raise ParseError(f"malformed mesh file: {exc}") from exc


def _load_off(path):
    lines = list(_tokens(path))
    if not lines or lines[0].split()[0] != "OFF":
        raise ParseError("missing OFF header")
    rest = lines[1:] if lines[0].strip() == "OFF" else [lines[0][3:]] + lines[1:]
    nv, nf, _ = (int(x) for x in rest[0].split()[:3])
    verts = [tuple(float(x) for x in rest[1 + i].split()[:3]) for i in range(nv)]
    faces = []
    for i in range(nf):
        parts = rest[1 + nv + i].split()
        k = int(parts[0])
        faces.append(tuple(int(x) for x in parts[1:1 + k]))
    return _from_polygons(verts, faces)


def _load_obj(path):
    verts, faces = [], []
    for line in _tokens(path):
        parts = line.split()
        if parts[0] == "v":
            verts.append(tuple(float(x) for x in parts[1:4]))
        elif parts[0] == "f":
            faces.append(tuple(int(tok.split("/")[0]) - 1 for tok in parts[1:]))
        elif parts[0] == "l":
            idx = [int(tok) - 1 for tok in parts[1:]]
            faces.extend(zip(idx[:-1], idx[1:]))
    if not verts or not faces:
        raise ParseError("OBJ file holds no usable geometry")
    return _from_polygons(verts, faces)


def _from_polygons(verts, faces):
    if len({len(v) for v in verts}) > 1:
        raise ParseError("vertex lines hold different numbers of coordinates")
    verts = np.array(verts)
    sizes = {len(f) for f in faces}
    if sizes not in ({2}, {3}):
        raise ParseError(f"unsupported polygon sizes {sorted(sizes)}")
    # a curve in the z = 0 plane is a plane curve; any other is a curve in
    # 3-space (codimension 2)
    if sizes == {2} and (verts.shape[1] != 3 or np.allclose(verts[:, 2], 0)):
        verts = verts[:, :2]
    return build_surface(verts, np.array(faces))


def save_off(mesh: DiscreteHypersurface, path) -> None:
    V = mesh.vertices
    if V.shape[1] == 2:
        V = np.c_[V, np.zeros(len(V))]
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{mesh.n_vertices} {mesh.n_elements} 0\n")
        for v in V:
            fh.write("%.17g %.17g %.17g\n" % tuple(v))
        for e in mesh.elements:
            fh.write(f"{len(e)} " + " ".join(str(int(i)) for i in e) + "\n")


# --------------------------------------------------------------------------
# primitives
# --------------------------------------------------------------------------

def _icosahedron():
    phi = (1 + 5 ** 0.5) / 2
    V = np.array([(-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
                  (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
                  (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1)],
                 float)
    V /= np.linalg.norm(V, axis=1)[:, None]
    F = np.array([(0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
                  (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
                  (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
                  (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1)])
    return V, F


def _subdivide_project(V, F):
    """Split every triangle into four at its edge midpoints and project the
    vertices onto the unit sphere.  The midpoints are numbered after V by
    their edge's first appearance in face-major (ab, bc, ca) order."""
    a, b = F.ravel(), F[:, [1, 2, 0]].ravel()
    key = np.minimum(a, b) * len(V) + np.maximum(a, b)
    order = np.argsort(key, kind="stable")
    new = np.diff(key[order], prepend=-1) != 0
    first = order[new]  # each edge's first position, in key order
    rank = np.empty(len(first), int)
    rank[np.argsort(first, kind="stable")] = np.arange(len(first))
    mid = np.empty(len(key), int)
    mid[order] = len(V) + rank[np.cumsum(new) - 1]
    V2 = np.concatenate([V, np.empty((len(first), 3))])
    V2[mid[first]] = (V[a[first]] + V[b[first]]) / 2
    V2 /= np.linalg.norm(V2, axis=1)[:, None]
    ab, bc, ca = mid.reshape(-1, 3).T
    A, B, C = F.T
    F2 = np.stack([A, ab, ca, ab, B, bc, ca, bc, C, ab, bc, ca], 1)
    return V2, F2.reshape(-1, 3)


def unit_icosphere(subdivisions: int):
    """Unit-radius icosphere directions and faces (midpoints re-projected)."""
    _check_int("subdivisions", subdivisions, 0)
    V, F = _icosahedron()
    for _ in range(subdivisions):
        V, F = _subdivide_project(V, F)
    return V, F


def _real_harmonic(ell, m, directions):
    """Real orthonormal spherical harmonic of degree ell and order m at unit
    directions, as a polynomial in (x, y, z):
    N_lm (d/dz)^|m| P_l(z) Re (m >= 0) or Im (m < 0) of (x + iy)^|m|,
    with N_lm the normalising constant, times sqrt 2 for m != 0."""
    x, y, z = directions.T
    a = abs(m)
    scale = np.sqrt((2 * ell + 1) / (4 * np.pi) * (1 if m == 0 else 2)
                    * factorial(ell - a) / factorial(ell + a))
    xy = (x + 1j * y) ** a
    return scale * _legendre_deriv(ell, a)(z) \
        * (xy.imag if m < 0 else xy.real)


@functools.cache
def _legendre_deriv(ell, a):
    """(d/dz)^a P_ell, built once per (ell, a)."""
    return np.polynomial.Legendre.basis(ell).deriv(a)


def _harmonic_noise(directions, seed, degrees=(2, 3, 4)):
    """Smooth seeded direction field with unit RMS over the sphere."""
    rng = np.random.default_rng(seed)
    noise = np.zeros(len(directions))
    csum = 0.0
    for ell in degrees:
        for m in range(-ell, ell + 1):
            c = rng.standard_normal()
            noise += c * _real_harmonic(ell, m, directions)
            csum += c * c
    return noise / np.sqrt(csum / (4 * np.pi))


def _revolve(prof_x, prof_r, n_theta):
    """Closed surface of revolution about the x-axis; profile ends at r=0."""
    theta = 2 * np.pi * np.arange(n_theta) / n_theta
    rings = []
    for x, r in zip(prof_x[1:-1], prof_r[1:-1]):
        rings.append(np.stack([np.full(n_theta, x),
                               r * np.cos(theta), r * np.sin(theta)], 1))
    nr = len(rings)
    V = [np.array([prof_x[0], 0, 0])] + [p for ring in rings for p in ring] \
        + [np.array([prof_x[-1], 0, 0])]
    V = np.asarray(V)
    last = 1 + nr * n_theta
    F = []
    for j in range(n_theta):
        F.append((0, 1 + j, 1 + (j + 1) % n_theta))
    for i in range(nr - 1):
        base = 1 + i * n_theta
        for j in range(n_theta):
            a, b = base + j, base + (j + 1) % n_theta
            c, d = a + n_theta, b + n_theta
            F.append((a, c, d))
            F.append((a, d, b))
    base = 1 + (nr - 1) * n_theta
    for j in range(n_theta):
        F.append((last, base + (j + 1) % n_theta, base + j))
    return V, np.asarray(F)


def _circle(radius=1.0, n=64, ambient=2):
    _check_int("circle vertex count n", n, 8)
    if ambient not in (2, 3):
        raise InvalidParams(f"circle ambient dimension must be 2 or 3, got "
                            f"{ambient!r}")
    _positive("radius", radius)
    th = 2 * np.pi * np.arange(n) / n
    V = radius * np.stack([np.cos(th), np.sin(th)], 1)
    E = np.stack([np.arange(n), (np.arange(n) + 1) % n], 1)
    return build_surface(np.c_[V, np.zeros(n)] if ambient == 3 else V, E)


def _sphere_icosub(radius=1.0, subdivisions=3):
    _positive("radius", radius)
    V, F = unit_icosphere(subdivisions)
    return build_surface(radius * V, F)


def _ellipsoid(semi_axes=(1.0, 1.0, 2.0), subdivisions=3):
    ax = np.asarray(semi_axes, float)
    if ax.shape != (3,):
        raise InvalidParams("ellipsoid needs three semi-axes")
    _positive("semi-axes", *ax)
    V, F = unit_icosphere(subdivisions)
    # affine image of the icosphere: stays exactly convex
    return build_surface(V * ax[None, :], F)


def _torus(major_radius=2.0, minor_radius=0.5, n_major=48, n_minor=24):
    _positive("torus radii", major_radius, minor_radius)
    if major_radius <= minor_radius:
        raise InvalidParams("torus needs 0 < minor_radius < major_radius")
    u = 2 * np.pi * np.arange(n_major) / n_major
    v = 2 * np.pi * np.arange(n_minor) / n_minor
    U, Vv = np.meshgrid(u, v, indexing="ij")
    X = (major_radius + minor_radius * np.cos(Vv)) * np.cos(U)
    Y = (major_radius + minor_radius * np.cos(Vv)) * np.sin(U)
    Z = minor_radius * np.sin(Vv)
    P = np.stack([X.ravel(), Y.ravel(), Z.ravel()], 1)

    def vid(i, j):
        return (i % n_major) * n_minor + (j % n_minor)

    F = []
    for i in range(n_major):
        for j in range(n_minor):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            F.append((a, b, c))
            F.append((a, c, d))
    return build_surface(P, np.asarray(F))


def _perturbed_sphere(radius=1.0, amplitude=0.0, seed=0, subdivisions=3):
    _positive("radius", radius)
    if not np.isfinite(amplitude):
        raise InvalidParams("perturbation amplitude must be finite")
    _check_int("seed", seed, 0)
    V, F = unit_icosphere(subdivisions)
    if amplitude == 0.0:
        return build_surface(radius * V, F)
    r = radius * (1.0 + amplitude * _harmonic_noise(V, seed))
    if r.min() <= 0:
        raise InvalidParams("perturbation amplitude collapses the sphere")
    return build_surface(V * r[:, None], F)


def _dumbbell(neck_radius=0.2, n_profile=48, n_theta=24):
    """Two unit spheres bridged by a catenoid neck of the given waist radius."""
    if not (0 < neck_radius < 0.9):
        raise InvalidParams("neck radius must lie in (0, 0.9)")
    eps = neck_radius
    c = 1.0 + eps  # sphere centers at +-c
    xs = np.linspace(-(c + 1.0), c + 1.0, 4 * n_profile + 1)

    def prof(x):
        sph = np.sqrt(np.maximum(0.0, 1.0 - (np.abs(x) - c) ** 2))
        with np.errstate(over="ignore"):
            neck = np.where(np.abs(x) < c, eps * np.cosh(np.clip(x / eps, -500, 500)), 0.0)
        return np.maximum(sph, np.minimum(neck, 1.0))

    r = prof(xs)
    keep = [0]
    for i in range(1, len(xs) - 1):
        if r[i] > 0:
            keep.append(i)
    keep.append(len(xs) - 1)
    xs, r = xs[keep], r[keep]
    return build_surface(*_revolve(xs, r, n_theta))


PRIMITIVE_KINDS = {
    "circle": _circle,
    "sphere_icosub": _sphere_icosub,
    "ellipsoid": _ellipsoid,
    "torus": _torus,
    "perturbed_sphere": _perturbed_sphere,
    "dumbbell": _dumbbell,
}


def make_primitive(kind: str, **params) -> DiscreteHypersurface:
    """Deterministic test-shape factory; identical params give identical meshes."""
    try:
        factory = PRIMITIVE_KINDS[kind]
    except KeyError:
        raise InvalidParams(
            f"unknown primitive {kind!r}, pick one of {sorted(PRIMITIVE_KINDS)}")
    try:
        return factory(**params)
    except TypeError as exc:
        raise InvalidParams(f"bad parameters for {kind}: {exc}") from exc


# --------------------------------------------------------------------------
# elementary geometry
# --------------------------------------------------------------------------

def rescale(mesh: DiscreteHypersurface, lam: float) -> DiscreteHypersurface:
    """Scale about the origin by lam > 0; measures scale by lam**d."""
    _positive("scale factor", lam)
    return mesh.with_vertices(mesh.vertices * lam)


_CONVEX_TOL = 1e-9  # times diameter: the violation convexity_check forgives


def convexity_check(mesh: DiscreteHypersurface):
    """Half-space test of every vertex against every supporting element plane.

    Returns {'is_convex': bool, 'max_violation': float}; the violation is
    max(0, <x - y, n(y)>) over all (vertex, element centroid) pairs.
    """
    if mesh.codim2:
        raise UnsupportedMode("convexity needs a hypersurface bounding a region")
    tol = _CONVEX_TOL * mesh.diameter
    C = mesh.element_centroids
    n = mesh.element_normals
    worst = -np.inf
    for sl in _budget_slices(np.full(mesh.n_vertices, mesh.n_elements)):
        X = mesh.vertices[sl]
        dots = np.einsum("vmk,mk->vm", X[:, None, :] - C[None, :, :], n)
        worst = max(worst, float(dots.max()))
    return {"is_convex": bool(worst <= tol), "max_violation": max(0.0, worst)}
