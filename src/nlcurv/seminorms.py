"""Fractional Sobolev / Hölder seminorms on vertex fields, the
graph-linearization functional on Monge patches, and the Morrey–Sobolev
inequality monitor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePatch, InvalidParams
from .functionals import get_workers
# intrinsic_distances stays bound here: bench/test_bench.py reads the binding
from .geodesics import _search, intrinsic_distances  # noqa: F401
from .surface import DiscreteHypersurface, _budget_slices

__all__ = [
    "ScalarField",
    "sobolev_seminorm",
    "lq_norm",
    "holder_seminorm",
    "graph_linearization_functional",
    "morrey_check",
]

DISTANCE_MODES = ("extrinsic", "intrinsic")


@dataclass(frozen=True)
class ScalarField:
    """Per-vertex real values on a mesh."""

    mesh: DiscreteHypersurface
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, float))
        if v.shape != (self.mesh.n_vertices,):
            raise InvalidParams("field length must equal the vertex count")
        if not np.all(np.isfinite(v)):
            raise InvalidParams("field values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def _check_sobolev(alpha, q):
    if not (0.0 < alpha <= 1.0):
        raise InvalidParams(f"alpha must lie in (0,1], got {alpha}")
    if not (1.0 < q < np.inf):
        raise InvalidParams(f"q must be finite and exceed 1, got {q}")


def _check_holder(beta):
    if not (0.0 < beta <= 1.0):
        raise InvalidParams(f"beta must lie in (0,1], got {beta}")


def _distance_rows(points):
    """Yield (slice, distance rows): consecutive slices of at most
    _PAIR_BUDGET pairs and the Euclidean distances from their points to all
    points, +inf on the diagonal."""
    N = len(points)
    for sl in _budget_slices(np.full(N, N)):
        r = np.linalg.norm(points[sl, None, :] - points[None, :, :], axis=-1)
        r[np.arange(sl.stop - sl.start), np.arange(sl.start, sl.stop)] = np.inf
        yield sl, r


def _gagliardo_rows(field, alpha, q):
    """Per-row Gagliardo sums sum_j |f_i - f_j|^q / r_ij^{d + alpha q} w_j
    of rows sl at distances r."""
    f, w = field.values, field.mesh.vertex_measures
    expo = field.mesh.dim_d + alpha * q
    return lambda sl, r: (np.abs(f[sl, None] - f) ** q / r ** expo
                          * w).sum(axis=1)


def _holder_rows(values, beta):
    """Per-row maxima max_j |values_i - values_j| / r_ij^beta of rows sl at
    distances r, for scalar (N,) or vector (N, k) values."""
    def rows(sl, r):
        dv = values[sl, None] - values[None]
        dv = np.abs(dv) if dv.ndim == 2 else np.linalg.norm(dv, axis=-1)
        return np.max(dv / r ** beta, axis=1)
    return rows


def _holder_max(points, values, beta):
    """max_{a != b} |values_a - values_b| / |points_a - points_b|^beta."""
    holder = _holder_rows(values, beta)
    return float(max(np.max(holder(sl, r))
                     for sl, r in _distance_rows(points)))


def _field_rows(field, mode, reductions, workers=1):
    """(V, len(reductions)) array whose column k holds reductions[k](sl, r)
    for every vertex row: r are the distances of rows sl to every vertex in
    `mode`, +inf on the diagonal.  Extrinsic rows are built per
    _budget_slices slice; intrinsic rows stream from the geodesic search,
    one source block at a time in up to `workers` processes, so no (V, V)
    matrix is ever held.  The mode is checked first."""
    if mode not in DISTANCE_MODES:
        raise InvalidParams(f"unknown distance mode {mode!r}")

    def terms(sl, r):
        return np.stack([reduce(sl, r) for reduce in reductions], 1)

    mesh = field.mesh
    if mode == "intrinsic":
        def reduce(block, rows):
            rows[np.arange(len(rows)), np.arange(block.start, block.stop)] \
                = np.inf
            return terms(block, rows)

        return _search(mesh, np.arange(mesh.n_vertices), reduce,
                       len(reductions), workers)
    out = np.empty((mesh.n_vertices, len(reductions)))
    for sl, r in _distance_rows(mesh.vertices):
        out[sl] = terms(sl, r)
    return out


def _gagliardo(field, inner, q):
    """The seminorm from the per-row sums; a contiguous copy keeps the dot
    product's summation order."""
    return float(np.ascontiguousarray(inner) @ field.mesh.vertex_measures) \
        ** (1.0 / q)


def _seminorms(field: ScalarField, alpha, q, beta, distance_mode,
               workers=None):
    """(sobolev_seminorm, holder_seminorm) of one field from one pass over
    the distance rows, the geodesic search in up to `workers` processes
    (get_workers); every parameter is checked before the pass."""
    _check_sobolev(alpha, q)
    _check_holder(beta)
    rows = _field_rows(field, distance_mode,
                       [_gagliardo_rows(field, alpha, q),
                        _holder_rows(field.values, beta)],
                       get_workers(workers))
    return _gagliardo(field, rows[:, 0], q), float(rows[:, 1].max())


def sobolev_seminorm(field: ScalarField, alpha, q, distance_mode="extrinsic"):
    """Discrete Gagliardo seminorm [f]_{W^{alpha,q}} with vertex weights.

    ( sum_{i != j} |f_i - f_j|^q / dist_ij^{d + alpha q} w_i w_j )^{1/q}
    """
    _check_sobolev(alpha, q)
    rows = _field_rows(field, distance_mode,
                       [_gagliardo_rows(field, alpha, q)])
    return _gagliardo(field, rows[:, 0], q)


def lq_norm(field: ScalarField, q):
    """Weighted L^q norm ( sum_i |f_i|^q w_i )^{1/q}."""
    if not (1.0 <= q < np.inf):
        raise InvalidParams(f"q must be finite and >= 1, got {q}")
    return float((np.abs(field.values) ** q
                  @ field.mesh.vertex_measures) ** (1.0 / q))


def holder_seminorm(field: ScalarField, beta, distance_mode="extrinsic"):
    """Discrete Hölder seminorm max_{i != j} |f_i - f_j| / dist_ij^beta."""
    _check_holder(beta)
    return float(_field_rows(field, distance_mode,
                             [_holder_rows(field.values, beta)]).max())


def _patch_arrays(patch):
    X = np.asarray(patch.grid, float)
    f = np.asarray(patch.heights, float)
    G = np.asarray(patch.gradients, float)
    if len(X) < 10:
        raise DegeneratePatch(f"patch has only {len(X)} grid nodes")
    return X, f, G


def graph_linearization_functional(patch, s, p):
    """int_B ( int_B |f(x)-f(y)-Df(y)(x-y)| / |x-y|^{d+1+s} dy )^p dx
    on a patch grid (d = 2), diagonal skipped, cell weight = spacing^2.

    The p-th power (not its root) is returned, so the value is
    lambda^{d-sp} homogeneous under patch rescaling.
    """
    if not (0.0 < s < 1.0):
        raise InvalidParams(f"s must lie in (0,1), got {s}")
    if not (0 < p < np.inf):
        raise InvalidParams(f"p must be finite and positive, got {p}")
    X, f, G = _patch_arrays(patch)
    d = X.shape[1]
    cell = patch.grid_step ** d
    inner = np.empty(len(X))
    for sl, r in _distance_rows(X):
        diff = X[sl, None, :] - X[None, :, :]                  # x_i - x_j
        lin = f[sl, None] - f[None, :] - np.einsum("jk,ijk->ij", G, diff)
        inner[sl] = (np.abs(lin) / r ** (d + 1 + s)).sum(axis=1) * cell
    return float((inner ** p).sum() * cell)


def morrey_check(patch, s, p):
    """Both sides of the Morrey–Sobolev bound on a patch, for monitoring.

    lhs: discrete [Df]_{C^{s-d/p}} over the inner 3/4-radius disc.
    rhs: graph_linearization_functional^{1/p}.
    The constant is not asserted; callers track the ratio.
    """
    if not (0 < p < np.inf):
        raise InvalidParams(f"p must be finite and positive, got {p}")
    X, f, G = _patch_arrays(patch)
    d = X.shape[1]
    if s <= d / p:
        raise InvalidParams("Morrey regime needs s > d/p")
    sigma = s - d / p
    inner = np.linalg.norm(X, axis=1) <= 0.75 * patch.radius
    Xi, Gi = X[inner], G[inner]
    if len(Xi) < 2:
        raise DegeneratePatch("inner disc carries fewer than 2 nodes")
    lhs = _holder_max(Xi, Gi, sigma)
    rhs = float(graph_linearization_functional(patch, s, p) ** (1.0 / p))
    return {"lhs": lhs, "rhs": rhs}
