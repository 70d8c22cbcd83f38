"""Closed-form reference values for circles and round spheres.

`oracle` cross-checks each curvature closed form against an adaptive 1-D
quadrature of its reduction, so an oracle value never rests on algebra
alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams
from .surface import _check_int, _check_s, _positive

__all__ = [
    "OracleValue",
    "circle_fmc",
    "sphere_fmc",
    "tangent_radius_circle",
    "oracle",
]


@dataclass(frozen=True)
class OracleValue:
    quantity: str
    inputs: dict
    value: float
    method: str
    error_estimate: float

    def to_dict(self) -> dict:
        return {"quantity": self.quantity, "inputs": self.inputs,
                "value": self.value, "method": self.method,
                "error_estimate": self.error_estimate}


def circle_fmc(R, s):
    """Fractional mean curvature of a circle of radius R (c_s = 1, d = 1).

    Closed form: -2^{-s} R^{-s} sqrt(pi) Gamma((1-s)/2) / Gamma(1 - s/2).
    """
    from scipy.special import gamma

    _positive("R", R)
    _check_s(s)
    return (-(2.0 ** -s) * R ** -s * np.sqrt(np.pi)
            * gamma((1 - s) / 2) / gamma(1 - s / 2))


def sphere_fmc(R, s):
    """Fractional mean curvature of a round sphere of radius R (c_s = 1, d = 2).

    Closed form: -2^{1-s} pi R^{-s} / (1 - s).
    """
    _positive("R", R)
    _check_s(s)
    return -(2.0 ** (1 - s)) * np.pi * R ** -s / (1 - s)


def _fmc_quad(R, s, d):
    """(quad, err) of H_s on the round d-sphere of radius R (d = 1, 2) in
    the half angle u = t/2 about x: chord 2R sin(u), pairing -2R sin^2(u),
    measure 2R du on (0, pi) folded onto (0, pi/2), or the ring 8 pi R^2
    sin(u) cos(u) du.  That is -c R^m (2R)^{-m-s} = -c 2^{-m-s} R^{-s}, in
    which no power overflows, times int_0^{pi/2} sin(u)^{-s} cos(u)^{d-1}
    du, (c, m) = (4, 1) or (16 pi, 3); quad's algebraic weight takes the
    u^{-s} endpoint singularity."""
    from scipy import integrate

    c, m = (4, 1) if d == 1 else (16 * np.pi, 3)
    scale = -c * 2.0 ** (-m - s) * R ** -s
    quad, err = integrate.quad(
        lambda u: np.sinc(u / np.pi) ** -s * np.cos(u) ** (d - 1),
        0, np.pi / 2, weight="alg", wvar=(-s, 0), epsabs=1e-13,
        epsrel=1e-13, limit=400)
    return scale * quad, abs(scale) * err


def tangent_radius_circle(R):
    """Tangent-point radius between any two points of a circle: 2R."""
    _positive("R", R)
    return 2.0 * R


_QUADRATURES = {"circle_fmc": (circle_fmc, 1), "sphere_fmc": (sphere_fmc, 2)}


def oracle(quantity, **inputs) -> OracleValue:
    """Uniform entry point used by the CLI; fractional mean curvatures are
    cross-checked against the adaptive quadrature of their reduction."""
    if quantity in _QUADRATURES:
        closed, d = _QUADRATURES[quantity]
        R, s = inputs.get("R", 1.0), inputs.get("s", 0.5)
        value = closed(R, s)
        q, err = _fmc_quad(R, s, d)
        if abs(q - value) > 1e-10 * abs(value):
            raise ArithmeticError(
                f"{quantity} oracle self-check failed: {value} vs {q}")
        return OracleValue(quantity, inputs, float(value),
                           "closed form, cross-checked by adaptive quadrature",
                           float(abs(q - value) + err))
    if quantity == "tangent_radius_circle":
        return OracleValue(quantity, inputs,
                           tangent_radius_circle(inputs.get("R", 1.0)),
                           "closed form", 0.0)
    if quantity == "scaling_exponent":
        # homogeneity degree of W_{s,p} and B_{s,p} under rescaling: d - s*p
        d, s = inputs.get("d", 2), inputs.get("s", 0.5)
        p = inputs.get("p", 4.0)
        _check_int("d", d, 1)
        _check_s(s)
        _positive("p", p)
        return OracleValue(quantity, inputs, d - s * p, "closed form", 0.0)
    raise InvalidParams(f"unknown oracle quantity {quantity!r}")
