"""Quadrature samples for the singular double integrals.

Each element gets a fixed set of interior points whose weights sum to the
element measure, plus an explicit near-diagonal policy telling double sums
which (outer point, inner element) pairs to drop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams
from .surface import DiscreteHypersurface

__all__ = ["QuadratureScheme", "build_scheme", "ORDERS", "DIAGONAL_POLICIES"]

ORDERS = ("centroid", "gauss3", "gauss7")
DIAGONAL_POLICIES = ("skip_same_element", "skip_vertex_star")

# barycentric points and weight fractions per order, triangles
_TRI_RULES = {
    "centroid": (np.array([[1 / 3, 1 / 3, 1 / 3]]), np.array([1.0])),
    "gauss3": (np.array([[0.5, 0.5, 0.0],
                         [0.0, 0.5, 0.5],
                         [0.5, 0.0, 0.5]]), np.full(3, 1 / 3)),
    # degree-5 seven-point rule
    "gauss7": (np.array(
        [[1 / 3, 1 / 3, 1 / 3],
         [0.059715871789770, 0.470142064105115, 0.470142064105115],
         [0.470142064105115, 0.059715871789770, 0.470142064105115],
         [0.470142064105115, 0.470142064105115, 0.059715871789770],
         [0.797426985353087, 0.101286507323456, 0.101286507323456],
         [0.101286507323456, 0.797426985353087, 0.101286507323456],
         [0.101286507323456, 0.101286507323456, 0.797426985353087]]),
        np.array([0.225,
                  0.132394152788506, 0.132394152788506, 0.132394152788506,
                  0.125939180544827, 0.125939180544827, 0.125939180544827])),
}


def _gauss_legendre_01(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1) / 2, w / 2


# segment rules matched in point count to the triangle orders
_SEG_RULES = {
    "centroid": (np.array([0.5]), np.array([1.0])),
    "gauss3": _gauss_legendre_01(2),
    "gauss7": _gauss_legendre_01(4),
}


@dataclass(frozen=True)
class QuadratureScheme:
    """Immutable sample table for one mesh.

    points    (S, ambient_n) sample positions
    weights   (S,) positive, summing per element to the element measure
    element_of(S,) owning element index; samples are ordered by
                (element index, local point index)
    """

    order: str
    diagonal_policy: str
    points: np.ndarray
    weights: np.ndarray
    element_of: np.ndarray
    n_per_element: int

    def __post_init__(self):
        for a in (self.points, self.weights, self.element_of):
            a.setflags(write=False)

    @property
    def n_samples(self) -> int:
        return len(self.weights)

    def descriptor(self) -> dict:
        return {"order": self.order, "diagonal_policy": self.diagonal_policy,
                "samples_per_element": self.n_per_element}


def _element_samples(vertices, elements, measures, order):
    """Sample points (m*k, n) and weights (m*k,) of the given elements,
    ordered by (element, local point), from the order's rule."""
    if elements.shape[1] == 2:
        t, wf = _SEG_RULES[order]
        P = vertices[elements]                     # (m, 2, n)
        pts = (1 - t)[None, :, None] * P[:, None, 0] + t[None, :, None] * P[:, None, 1]
    else:
        bary, wf = _TRI_RULES[order]
        P = vertices[elements]                     # (m, 3, 3)
        pts = np.einsum("kj,mjn->mkn", bary, P)
    weights = (measures[:, None] * wf[None, :]).reshape(-1)
    return pts.reshape(len(weights), -1), weights


def build_scheme(mesh: DiscreteHypersurface, order="gauss3",
                 diagonal_policy="skip_vertex_star") -> QuadratureScheme:
    """Tabulate sample points and weights for every element of the mesh."""
    if order not in ORDERS:
        raise InvalidParams(f"unknown quadrature order {order!r}")
    if diagonal_policy not in DIAGONAL_POLICIES:
        raise InvalidParams(f"unknown diagonal policy {diagonal_policy!r}")
    if (mesh.dim_d == 2 and order == "gauss3"
            and diagonal_policy == "skip_same_element"):
        # adjacent triangles share their edge-midpoint samples
        raise InvalidParams(
            "gauss3 triangle samples sit on shared edge midpoints, so "
            "skip_same_element pairs coincident samples; use order "
            "'centroid' or 'gauss7', or policy 'skip_vertex_star'")
    pts, weights = _element_samples(mesh.vertices, mesh.elements,
                                   mesh.element_measures, order)
    k = len(weights) // mesh.n_elements
    element_of = np.repeat(np.arange(mesh.n_elements), k)
    return QuadratureScheme(order, diagonal_policy,
                            np.ascontiguousarray(pts), weights, element_of, k)
