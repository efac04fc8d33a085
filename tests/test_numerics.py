"""Parabolic-cylinder functions, eigenvalue extremes, and the CDF-distance test oracle."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import erfc, gamma
from scipy.stats import norm

from splitmc.errors import InvalidParameter
from splitmc.numerics import (
    lambda_extremes,
    parabolic_cylinder_neg,
    parabolic_cylinder_ratio,
)

from scalar_reference import cdf_l1_distance


def parabolic_cylinder_by_quadrature(d, z):
    """D_{-d}(z) from its integral form (DLMF 12.5.1), independent of pbdv:
    exp(-z^2/4) / Gamma(d) * int_0^inf x^(d-1) exp(-x z - x^2/2) dx."""
    val, _ = integrate.quad(lambda x: x ** (d - 1.0) * math.exp(-x * z - 0.5 * x * x),
                            0.0, math.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    return math.exp(-0.25 * z * z) * val / math.gamma(d)


class TestParabolicCylinder:
    def test_order_one_at_zero(self):
        # D_{-1}(0) = int_0^inf exp(-x^2/2) dx = sqrt(pi/2).
        assert parabolic_cylinder_neg(1.0, 0.0) == pytest.approx(
            math.sqrt(math.pi / 2.0), rel=1e-10)

    @pytest.mark.parametrize("d", [1.0, 2.0, 3.0])
    def test_closed_form_at_zero(self, d):
        # Substituting u = x^2/2 reduces the integral at z = 0 to a Gamma ratio.
        expected = 2.0 ** (d / 2.0 - 1.0) * gamma(d / 2.0) / gamma(d)
        assert parabolic_cylinder_neg(d, 0.0) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("d", [0.5, 1.0, 2.5, 7.0])
    @pytest.mark.parametrize("z", [-2.5, -0.3, 0.0, 0.7, 3.0])
    def test_against_scipy(self, d, z):
        # scipy's pbdv, which the library returns, against the integral form.
        assert parabolic_cylinder_neg(d, z) == pytest.approx(
            parabolic_cylinder_by_quadrature(d, z), rel=1e-9)

    @pytest.mark.parametrize("z", [-2.5, -0.3, 0.7, 3.0])
    def test_closed_forms_of_orders_one_and_two(self, z):
        # D_{-1}(z) = exp(z^2/4) sqrt(pi/2) erfc(z/sqrt 2) and, by the
        # recurrence, D_{-2}(z) = exp(-z^2/4) - z D_{-1}(z).
        d1 = math.exp(0.25 * z * z) * math.sqrt(math.pi / 2.0) * erfc(z / math.sqrt(2.0))
        assert parabolic_cylinder_neg(1.0, z) == pytest.approx(d1, rel=1e-12)
        assert parabolic_cylinder_neg(2.0, z) == pytest.approx(
            math.exp(-0.25 * z * z) - z * d1, rel=1e-12)

    def test_strictly_decreasing_in_z(self):
        for d in (1.0, 3.0):
            grid = np.linspace(-3.0, 3.0, 25)
            vals = [parabolic_cylinder_neg(d, z) for z in grid]
            assert np.all(np.diff(vals) < 0)

    def test_ratio_range_and_identity_at_zero(self):
        assert parabolic_cylinder_ratio(4.0, 0.0) == 1.0
        for rho in (0.05, 0.3, 1.0, 2.0):
            for d, lip in ((1, 0.5), (3, 2.0)):
                r = parabolic_cylinder_ratio(d, lip * rho)
                assert 0.0 < r <= 1.0

    def test_positive_order_required(self):
        with pytest.raises(ValueError):
            parabolic_cylinder_neg(0.0, 1.0)
        # pbdv divides by Gamma(d), which overflows past d = 171.
        for d in (-1.0, 171.0, math.nan):
            with pytest.raises(InvalidParameter):
                parabolic_cylinder_neg(d, 1.0)


class TestEigenExtremes:
    def test_identity(self):
        lo, hi = lambda_extremes(np.eye(5))
        assert (lo, hi) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_known_diagonal(self):
        q = np.diag(np.linspace(0.25, 1.0, 8))
        lo, hi = lambda_extremes(q)
        assert lo == pytest.approx(0.25, rel=1e-12)
        assert hi == pytest.approx(1.0, rel=1e-12)

    def test_3x3_against_characteristic_polynomial(self):
        s = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 1.0]])
        # Characteristic polynomial coefficients computed independently.
        tr = np.trace(s)
        minors = (s[1, 1] * s[2, 2] - s[1, 2] * s[2, 1]
                  + s[0, 0] * s[2, 2] - s[0, 2] * s[2, 0]
                  + s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0])
        det = np.linalg.det(s)
        roots = np.roots([1.0, -tr, minors, -det])
        roots = np.sort(roots.real)
        lo, hi = lambda_extremes(s)
        assert lo == pytest.approx(roots[0], rel=1e-10)
        assert hi == pytest.approx(roots[-1], rel=1e-10)

    def test_random_symmetric_bounds_rayleigh_quotients(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((20, 20))
        s = 0.5 * (a + a.T)
        lo, hi = lambda_extremes(s)
        for _ in range(50):
            v = rng.standard_normal(20)
            rq = float(v @ s @ v / (v @ v))
            assert lo - 1e-10 <= rq <= hi + 1e-10


class TestCdfL1Distance:
    def test_identical_cdfs(self):
        f = lambda x: norm.cdf(x)
        assert cdf_l1_distance(f, f, (-8.0, 8.0)) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("s", [0.5, 2.0, 3.3])
    def test_centered_scale_family(self, s):
        # W1 between N(0,1) and N(0,s^2) is sqrt(2/pi)|s-1|.
        got = cdf_l1_distance(lambda x: norm.cdf(x),
                              lambda x: norm.cdf(x, scale=s), (-10.0, 10.0))
        assert got == pytest.approx(math.sqrt(2.0 / math.pi) * abs(s - 1.0), rel=1e-8)

    def test_toy_strategy2_value(self):
        # Target std sqrt(0.9), smoothed std sqrt(0.9 + 0.25).
        sigma, b, rho = 3.0, 10, 0.5
        s0 = math.sqrt(sigma**2 / b)
        s1 = math.sqrt(sigma**2 / b + rho**2)
        got = cdf_l1_distance(lambda x: norm.cdf(x, scale=s0),
                              lambda x: norm.cdf(x, scale=s1), (-6.0, 6.0))
        expected = math.sqrt(2.0 / math.pi) * (s1 - s0)
        assert got == pytest.approx(expected, rel=1e-8)

    def test_symmetry_and_triangle_inequality(self):
        fs = [lambda x: norm.cdf(x),
              lambda x: norm.cdf(x, loc=0.7, scale=1.3),
              lambda x: norm.cdf(x, loc=-0.4, scale=0.8)]
        support = (-12.0, 12.0)
        d01 = cdf_l1_distance(fs[0], fs[1], support)
        d10 = cdf_l1_distance(fs[1], fs[0], support)
        assert d01 == pytest.approx(d10, abs=1e-8)
        d02 = cdf_l1_distance(fs[0], fs[2], support)
        d12 = cdf_l1_distance(fs[1], fs[2], support)
        assert d02 <= d01 + d12 + 1e-8
