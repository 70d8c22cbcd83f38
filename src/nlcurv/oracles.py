"""Closed-form reference values for circles and round spheres.

Every closed form is cross-checked against an adaptive 1-D quadrature of
the underlying reduction, so an oracle value never rests on algebra alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .errors import InvalidParams

__all__ = [
    "OracleValue",
    "circle_fmc",
    "sphere_fmc",
    "tangent_radius_circle",
    "expected_scaling_exponent",
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


def _check_rs(R, s):
    if R <= 0:
        raise InvalidParams(f"radius must be positive, got {R}")
    if not (0.0 < s < 1.0):
        raise InvalidParams(f"s must lie in (0,1), got {s}")


def circle_fmc(R, s, crosscheck=False):
    """Fractional mean curvature of a circle of radius R (c_s = 1, d = 1).

    Closed form: -2^{-s} R^{-s} sqrt(pi) Gamma((1-s)/2) / Gamma(1 - s/2).
    """
    _check_rs(R, s)
    value = (-(2.0 ** -s) * R ** -s * np.sqrt(np.pi)
             * special.gamma((1 - s) / 2) / special.gamma(1 - s / 2))
    if crosscheck:
        # arc-length reduction: chord |x-y| = 2R sin(t/2),
        # <x-y, n(y)> = -2R sin^2(t/2), measure R dt over t in (0, 2pi);
        # the integrand is -R (2R)^{-1-s} sin(t/2)^{-s}, i.e. with u = t/2
        # and symmetry, -R (2R)^{-1-s} 4 int_0^{pi/2} sin(u)^{-s} du.  The
        # u^{-s} endpoint singularity goes into quad's algebraic weight.
        scale = -4 * R * (2 * R) ** (-1 - s)
        quad, err = integrate.quad(lambda u: np.sinc(u / np.pi) ** -s,
                                   0, np.pi / 2, weight="alg", wvar=(-s, 0),
                                   epsabs=1e-13, epsrel=1e-13, limit=400)
        quad, err = scale * quad, abs(scale) * err
        if abs(quad - value) > 1e-10 * abs(value):
            raise ArithmeticError(
                f"circle oracle self-check failed: {value} vs {quad}")
        return value, abs(quad - value) + err
    return value


def sphere_fmc(R, s, crosscheck=False):
    """Fractional mean curvature of a round sphere of radius R (c_s = 1, d = 2).

    Closed form: -2^{1-s} pi R^{-s} / (1 - s).
    """
    _check_rs(R, s)
    value = -(2.0 ** (1 - s)) * np.pi * R ** -s / (1 - s)
    if crosscheck:
        # polar-angle reduction about x: chord 2R sin(t/2),
        # pairing -2R sin^2(t/2), ring measure 2 pi R^2 sin(t) dt
        def integrand(t):
            return (-(2 * R * np.sin(t / 2) ** 2)
                    / (2 * R * np.sin(t / 2)) ** (3 + s)
                    * 2 * np.pi * R * R * np.sin(t))

        quad, err = integrate.quad(integrand, 0, np.pi, epsabs=1e-13,
                                   epsrel=1e-13, limit=400)
        if abs(quad - value) > 1e-10 * abs(value):
            raise ArithmeticError(
                f"sphere oracle self-check failed: {value} vs {quad}")
        return value, abs(quad - value) + err
    return value


def tangent_radius_circle(R):
    """Tangent-point radius between any two points of a circle: 2R."""
    if R <= 0:
        raise InvalidParams(f"radius must be positive, got {R}")
    return 2.0 * R


def expected_scaling_exponent(d, s, p):
    """Homogeneity degree of W_{s,p} and B_{s,p} under rescaling: d - s*p."""
    return d - s * p


def oracle(quantity, **inputs) -> OracleValue:
    """Uniform entry point used by the CLI; always runs the cross-check."""
    if quantity == "circle_fmc":
        value, err = circle_fmc(inputs.get("R", 1.0), inputs.get("s", 0.5),
                                crosscheck=True)
        return OracleValue(quantity, inputs, float(value),
                           "closed form, cross-checked by adaptive quadrature",
                           float(err))
    if quantity == "sphere_fmc":
        value, err = sphere_fmc(inputs.get("R", 1.0), inputs.get("s", 0.5),
                                crosscheck=True)
        return OracleValue(quantity, inputs, float(value),
                           "closed form, cross-checked by adaptive quadrature",
                           float(err))
    if quantity == "tangent_radius_circle":
        return OracleValue(quantity, inputs,
                           tangent_radius_circle(inputs.get("R", 1.0)),
                           "closed form", 0.0)
    if quantity == "scaling_exponent":
        return OracleValue(quantity, inputs,
                           expected_scaling_exponent(inputs.get("d", 2),
                                                     inputs.get("s", 0.5),
                                                     inputs.get("p", 4.0)),
                           "closed form", 0.0)
    raise InvalidParams(f"unknown oracle quantity {quantity!r}")
