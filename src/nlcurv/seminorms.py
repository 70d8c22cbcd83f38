"""Fractional Sobolev / Hölder seminorms on vertex fields, the
graph-linearization functional on Monge patches, and the Morrey–Sobolev
inequality monitor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePatch, InvalidParams
from .geodesics import intrinsic_distances
from .surface import DiscreteHypersurface

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


def _pair_distances(mesh, mode):
    """(V, V) vertex distances with an infinite diagonal; the mode is
    checked before any distance is computed."""
    if mode not in DISTANCE_MODES:
        raise InvalidParams(f"unknown distance mode {mode!r}")
    V = mesh.vertices
    if mode == "extrinsic":
        D = np.linalg.norm(V[:, None, :] - V[None, :, :], axis=-1)
    else:
        D = intrinsic_distances(mesh)
    np.fill_diagonal(D, np.inf)
    return D


def _sobolev(field, alpha, q, D):
    mesh = field.mesh
    f = field.values
    w = mesh.vertex_measures
    expo = mesh.dim_d + alpha * q
    total = float(np.einsum(
        "ij,i,j->", np.abs(f[:, None] - f[None, :]) ** q / D ** expo, w, w))
    return total ** (1.0 / q)


def _holder(field, beta, D):
    f = field.values
    return float(np.max(np.abs(f[:, None] - f[None, :]) / D ** beta))


def _seminorms(field: ScalarField, alpha, q, beta, distance_mode):
    """(sobolev_seminorm, holder_seminorm) of one field from one distance
    matrix; every parameter is checked before the distances are built."""
    _check_sobolev(alpha, q)
    _check_holder(beta)
    D = _pair_distances(field.mesh, distance_mode)
    return _sobolev(field, alpha, q, D), _holder(field, beta, D)


def sobolev_seminorm(field: ScalarField, alpha, q, distance_mode="extrinsic"):
    """Discrete Gagliardo seminorm [f]_{W^{alpha,q}} with vertex weights.

    ( sum_{i != j} |f_i - f_j|^q / dist_ij^{d + alpha q} w_i w_j )^{1/q}
    """
    _check_sobolev(alpha, q)
    D = _pair_distances(field.mesh, distance_mode)
    return _sobolev(field, alpha, q, D)


def lq_norm(field: ScalarField, q):
    """Weighted L^q norm ( sum_i |f_i|^q w_i )^{1/q}."""
    if not (1.0 <= q < np.inf):
        raise InvalidParams(f"q must be finite and >= 1, got {q}")
    return float((np.abs(field.values) ** q
                  @ field.mesh.vertex_measures) ** (1.0 / q))


def holder_seminorm(field: ScalarField, beta, distance_mode="extrinsic"):
    """Discrete Hölder seminorm max_{i != j} |f_i - f_j| / dist_ij^beta."""
    _check_holder(beta)
    return _holder(field, beta, _pair_distances(field.mesh, distance_mode))


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
    diff = X[:, None, :] - X[None, :, :]                       # x_i - x_j
    r = np.linalg.norm(diff, axis=-1)
    np.fill_diagonal(r, np.inf)
    lin = f[:, None] - f[None, :] - np.einsum("jk,ijk->ij", G, diff)
    inner = (np.abs(lin) / r ** (d + 1 + s)).sum(axis=1) * cell
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
    r = np.linalg.norm(Xi[:, None, :] - Xi[None, :, :], axis=-1)
    np.fill_diagonal(r, np.inf)
    dg = np.linalg.norm(Gi[:, None, :] - Gi[None, :, :], axis=-1)
    lhs = float(np.max(dg / r ** sigma))
    rhs = float(graph_linearization_functional(patch, s, p) ** (1.0 / p))
    return {"lhs": lhs, "rhs": rhs}
