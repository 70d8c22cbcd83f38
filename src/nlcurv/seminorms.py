"""Fractional Sobolev / Hölder seminorms on vertex fields, the
graph-linearization functional on Monge patches, and the Morrey–Sobolev
inequality monitor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePatch, InvalidParams
from .geodesics import intrinsic_distances
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


def _distances(mesh, mode):
    """The (V, V) intrinsic distance matrix, or None for extrinsic distances,
    which _distance_rows computes per slice; the mode is checked first."""
    if mode not in DISTANCE_MODES:
        raise InvalidParams(f"unknown distance mode {mode!r}")
    return intrinsic_distances(mesh) if mode == "intrinsic" else None


def _distance_rows(points, distances=None):
    """Yield (slice, distance rows): consecutive slices of at most
    _PAIR_BUDGET pairs and the distances from their points to all points,
    +inf on the diagonal.  Rows are Euclidean, computed per slice, unless
    an owned (N, N) distance matrix is given: they are then its rows, and
    its diagonal is set to +inf."""
    N = len(points)
    for sl in _budget_slices(np.full(N, N)):
        r = distances[sl] if distances is not None else np.linalg.norm(
            points[sl, None, :] - points[None, :, :], axis=-1)
        r[np.arange(sl.stop - sl.start), np.arange(sl.start, sl.stop)] = np.inf
        yield sl, r


def _holder_max(points, values, beta, distances=None):
    """max_{a != b} |values_a - values_b| / dist_ab^beta for scalar (N,) or
    vector (N, k) values, over _distance_rows(points, distances)."""
    best = []
    for sl, r in _distance_rows(points, distances):
        dv = values[sl, None] - values[None]
        dv = np.abs(dv) if dv.ndim == 2 else np.linalg.norm(dv, axis=-1)
        best.append(np.max(dv / r ** beta))
    return float(np.max(best))


def _sobolev(field, alpha, q, distances):
    f, w = field.values, field.mesh.vertex_measures
    expo = field.mesh.dim_d + alpha * q
    inner = np.empty(len(f))
    for sl, r in _distance_rows(field.mesh.vertices, distances):
        inner[sl] = (np.abs(f[sl, None] - f) ** q / r ** expo * w).sum(axis=1)
    return float(inner @ w) ** (1.0 / q)


def _seminorms(field: ScalarField, alpha, q, beta, distance_mode):
    """(sobolev_seminorm, holder_seminorm) of one field from one distance
    matrix; every parameter is checked before the distances are built."""
    _check_sobolev(alpha, q)
    _check_holder(beta)
    D = _distances(field.mesh, distance_mode)
    return (_sobolev(field, alpha, q, D),
            _holder_max(field.mesh.vertices, field.values, beta, D))


def sobolev_seminorm(field: ScalarField, alpha, q, distance_mode="extrinsic"):
    """Discrete Gagliardo seminorm [f]_{W^{alpha,q}} with vertex weights.

    ( sum_{i != j} |f_i - f_j|^q / dist_ij^{d + alpha q} w_i w_j )^{1/q}
    """
    _check_sobolev(alpha, q)
    return _sobolev(field, alpha, q, _distances(field.mesh, distance_mode))


def lq_norm(field: ScalarField, q):
    """Weighted L^q norm ( sum_i |f_i|^q w_i )^{1/q}."""
    if not (1.0 <= q < np.inf):
        raise InvalidParams(f"q must be finite and >= 1, got {q}")
    return float((np.abs(field.values) ** q
                  @ field.mesh.vertex_measures) ** (1.0 / q))


def holder_seminorm(field: ScalarField, beta, distance_mode="extrinsic"):
    """Discrete Hölder seminorm max_{i != j} |f_i - f_j| / dist_ij^beta."""
    _check_holder(beta)
    return _holder_max(field.mesh.vertices, field.values, beta,
                       _distances(field.mesh, distance_mode))


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
