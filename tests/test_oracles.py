import warnings

import numpy as np
import pytest

from nlcurv import oracles
from nlcurv.errors import InvalidParams
from nlcurv.oracles import (
    circle_fmc,
    oracle,
    sphere_fmc,
    tangent_radius_circle,
)


class TestClosedForms:
    def test_circle_reference_value(self):
        assert abs(circle_fmc(1.0, 0.5) - (-3.7081493546027438)) < 1e-12

    def test_sphere_reference_value(self):
        assert abs(sphere_fmc(1.0, 0.5) - (-8.885765876316732)) < 1e-12

    @pytest.mark.parametrize("s", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_circle_crosscheck(self, s):
        o = oracle("circle_fmc", R=1.0, s=s)
        assert o.error_estimate < 1e-9 * abs(o.value)

    @pytest.mark.parametrize("s", [0.7, 0.9])
    def test_circle_crosscheck_warning_free(self, s):
        # the endpoint singularity sin(u)^{-s} must not trip quad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            o = oracle("circle_fmc", R=1.0, s=s)
        assert o.error_estimate < 1e-9 * abs(o.value)

    @pytest.mark.parametrize("s", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_sphere_crosscheck(self, s):
        o = oracle("sphere_fmc", R=1.0, s=s)
        assert o.error_estimate < 1e-9 * abs(o.value)

    @pytest.mark.parametrize("R", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("s", [0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
    def test_sphere_crosscheck_warning_free(self, R, s):
        # the endpoint singularity sin(u)^{-s} goes to quad's algebraic
        # weight: the 1e-10 self-check holds and quad warns of nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            o = oracle("sphere_fmc", R=R, s=s)
            q, _ = oracles._fmc_quad(R, s, 2)
        assert abs(q - o.value) <= 1e-10 * abs(o.value)

    @pytest.mark.parametrize("fn", [circle_fmc, sphere_fmc])
    def test_radius_scaling(self, fn):
        # H_s is homogeneous of degree -s
        s = 0.4
        assert abs(fn(2.0, s) - 2.0 ** -s * fn(1.0, s)) < 1e-13

    @pytest.mark.parametrize("fn", [circle_fmc, sphere_fmc])
    def test_limit_normalized_classical_limit(self, fn):
        # (1 - s) H_s approaches a finite multiple of 1/R as s -> 1
        a = (1 - 0.99) * fn(1.0, 0.99)
        b = (1 - 0.999) * fn(1.0, 0.999)
        assert abs(a - b) < 0.05 * abs(b)

    def test_tangent_radius(self):
        assert tangent_radius_circle(3.0) == 6.0
        with pytest.raises(InvalidParams):
            tangent_radius_circle(0.0)

    def test_scaling_exponent(self):
        assert oracle("scaling_exponent", d=2, s=0.5, p=4.0).value == 0.0
        assert oracle("scaling_exponent", d=1, s=0.5, p=4.0).value == -1.0

    @pytest.mark.parametrize("kw", [
        {"d": 2, "s": 5.0, "p": 4.0}, {"d": 2, "s": float("nan"), "p": 4.0},
        {"d": -3}, {"d": 0}, {"d": True}, {"d": 2.5}, {"p": 0.0},
        {"p": -1.0}, {"p": float("inf")}, {"p": float("nan")},
    ])
    def test_scaling_exponent_invalid(self, kw):
        with pytest.raises(InvalidParams):
            oracle("scaling_exponent", **kw)

    @pytest.mark.parametrize("kw", [{"R": -1.0, "s": 0.5},
                                    {"R": 1.0, "s": 1.5}])
    def test_invalid(self, kw):
        with pytest.raises(InvalidParams):
            circle_fmc(**kw)
        with pytest.raises(InvalidParams):
            sphere_fmc(**kw)


class TestOracleEntryPoint:
    def test_quantities(self):
        c = oracle("circle_fmc", R=1.0, s=0.5)
        assert abs(c.value - circle_fmc(1.0, 0.5)) < 1e-14
        assert c.error_estimate < 1e-9
        s = oracle("sphere_fmc", R=2.0, s=0.3)
        assert abs(s.value - sphere_fmc(2.0, 0.3)) < 1e-14
        t = oracle("tangent_radius_circle", R=1.5)
        assert t.value == 3.0
        e = oracle("scaling_exponent", d=2, s=0.25, p=4.0)
        assert e.value == 1.0

    def test_to_dict(self):
        d = oracle("circle_fmc", R=1.0, s=0.5).to_dict()
        assert set(d) == {"quantity", "inputs", "value", "method",
                          "error_estimate"}

    def test_crosscheck_mismatch_raises(self, monkeypatch):
        def off(R, s, d):
            return circle_fmc(R, s) * (1 + 1e-8), 0.0

        monkeypatch.setattr(oracles, "_fmc_quad", off)
        with pytest.raises(ArithmeticError):
            oracle("circle_fmc", R=1.0, s=0.5)

    def test_unknown(self):
        with pytest.raises(InvalidParams):
            oracle("klein_bottle_fmc")


@pytest.mark.parametrize("R", [float("nan"), float("inf")])
@pytest.mark.parametrize("quantity", ["circle_fmc", "sphere_fmc",
                                      "tangent_radius_circle"])
def test_radius_positive_and_finite(quantity, R):
    with pytest.raises(InvalidParams):
        oracle(quantity, R=R)


@pytest.mark.parametrize("R", [1e-300, 1e200, 1e300])
@pytest.mark.parametrize("s", [0.01, 0.5, 0.99])
@pytest.mark.parametrize("quantity, closed", [("circle_fmc", circle_fmc),
                                              ("sphere_fmc", sphere_fmc)])
def test_extreme_radius_crosscheck(quantity, closed, R, s):
    # the quadrature's scale R^m (2R)^{-m-s} is taken as 2^{-m-s} R^{-s}
    val = oracle(quantity, R=R, s=s)
    assert val.value == closed(R, s) and np.isfinite(val.error_estimate)
