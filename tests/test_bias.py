"""Bias bounds vs independently integrated exact distances."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from splitmc import (
    build_model,
    tv_bound_lipschitz,
    tv_bound_strongly_convex,
    w1_bound_single,
)
from splitmc.bias import IsotropicMixture
from splitmc.errors import NotSmooth
from splitmc.metrics import gaussian_tv_1d
from splitmc.model import model_constants


def tv_by_quadrature(mean1, var1, mean2, var2):
    """Independent oracle: (1/2) int |p - q| by adaptive quadrature."""
    s1, s2 = math.sqrt(var1), math.sqrt(var2)
    lo = min(mean1 - 10 * s1, mean2 - 10 * s2)
    hi = max(mean1 + 10 * s1, mean2 + 10 * s2)
    val, _ = integrate.quad(
        lambda x: abs(norm.pdf(x, mean1, s1) - norm.pdf(x, mean2, s2)),
        lo, hi, limit=200)
    return 0.5 * val


class TestLipschitzTvBound:
    def test_zero_at_zero(self):
        bound = tv_bound_lipschitz([1.0, 2.0], [1, 3], 0.0)
        assert bound.value == 0.0

    def test_small_rho_linearization_majorizes(self):
        # The stated first-order coefficient 2 sum sqrt(d_i) L_i is an upper
        # estimate of the bound's true slope (exact slope at d = 1 is
        # 2 sqrt(2/pi) ~ 1.596), so the check is one-sided.
        rho = 1e-4
        bound = tv_bound_lipschitz([1.0], [1], rho)
        assert 0.0 < bound.value <= 2.0 * rho
        assert bound.value == pytest.approx(2.0 * math.sqrt(2.0 / math.pi) * rho,
                                            rel=1e-3)
        assert bound.extras["small_rho_linearization"] == pytest.approx(2 * rho)
        for d in (1, 2, 3, 4):
            slope = tv_bound_lipschitz([1.0], [d], 1e-4).value / 1e-4
            assert 0.0 < slope <= 2.0 * math.sqrt(d)

    def test_monotone_in_rho(self):
        rhos = np.logspace(-2, 0.6, 50)
        vals = [tv_bound_lipschitz([0.7, 1.3], [2, 1], r).value for r in rhos]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_infinite_lipschitz_rejected(self):
        with pytest.raises(NotSmooth):
            tv_bound_lipschitz([math.inf], [1], 0.1)


class TestSmoothTvBound:
    def test_single_split_reference(self):
        model = build_model("gaussian-mixture", d=60)
        consts = model_constants(model)
        bound = tv_bound_strongly_convex(consts, math.sqrt(1.0 / 600.0))
        assert bound.value == pytest.approx(0.05, rel=1e-12)

    def test_zero_at_zero(self):
        consts = model_constants(build_model("toy-gaussian-1"))
        assert tv_bound_strongly_convex(consts, 0.0).value == 0.0

    def test_validity_cap_flagged_not_raised(self):
        consts = model_constants(build_model("toy-gaussian-1", sigma=3.0, b=10))
        cap = 1.0 / (6.0 * consts.sigma2_U)
        inside = tv_bound_strongly_convex(consts, math.sqrt(cap) * 0.99)
        outside = tv_bound_strongly_convex(consts, math.sqrt(cap) * 1.01)
        assert inside.valid and not outside.valid

    def test_dominates_exact_tv_on_toy_grid(self):
        # Multi-split bound vs quadrature truth for the b = 10 scalar family.
        sigma, b = 3.0, 10
        consts = model_constants(build_model("toy-gaussian-1", sigma=sigma, b=b))
        for rho in np.logspace(-2, 0.5, 50):
            bound = tv_bound_strongly_convex(consts, rho)
            if not bound.valid:
                continue
            exact = tv_by_quadrature(0.0, sigma**2 / b, 0.0, (sigma**2 + rho**2) / b)
            assert bound.value >= exact - 1e-10

    def test_crossing_formula_matches_quadrature(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            m1, m2 = rng.standard_normal(2) * 2.0
            v1, v2 = rng.uniform(0.2, 4.0, size=2)
            assert gaussian_tv_1d(m1, v1, m2, v2) == pytest.approx(
                tv_by_quadrature(m1, v1, m2, v2), abs=1e-8)


class TestW1Bound:
    def test_reference_point(self):
        bound = w1_bound_single(1.0, 1, 0.1)
        assert bound.value == pytest.approx(0.005, rel=1e-12)
        assert bound.extras["active_branch"] == "quadratic"

    def test_branch_crossover(self):
        M = 2.5
        rho_star = 2.0 / math.sqrt(M)
        assert w1_bound_single(M, 4, rho_star * 0.99).extras["active_branch"] == "quadratic"
        assert w1_bound_single(M, 4, rho_star * 1.01).extras["active_branch"] == "linear"
        lin = rho_star * 2.0
        quad = 0.5 * rho_star**2 * math.sqrt(M * 4)
        assert lin == pytest.approx(quad, rel=1e-12)

    def test_dominates_exact_w1_on_toy_grid(self):
        # Single-split bound vs the closed-form scale-family distance.
        sigma, b = 3.0, 10
        M = b / sigma**2
        s0 = math.sqrt(sigma**2 / b)
        for rho in np.logspace(-2, 0.5, 50):
            exact = math.sqrt(2.0 / math.pi) * (math.sqrt(sigma**2 / b + rho**2) - s0)
            assert w1_bound_single(M, 1, rho).value >= exact - 1e-12


class TestSmoothedMarginals:
    def test_mixture_cdf_matches_scipy_norm_bit_for_bit(self):
        # projected_cdf evaluates ndtr directly; scipy.stats.norm.cdf(u, loc,
        # scale) is ndtr((u - loc)/scale), so the bits must not move.
        for rho, a in ((0.0, np.full(4, 0.5 / 2.0)), (0.7, np.array([0.3, -0.1, 0.5]))):
            mix = IsotropicMixture(a, 1.0 + rho**2)
            na, s = float(np.linalg.norm(a)), math.sqrt(mix.variance)

            def reference(u):
                return 0.5 * (norm.cdf(u, loc=na, scale=s) + norm.cdf(u, loc=-na, scale=s))

            grid = np.linspace(-12.0, 12.0, 100_001)
            assert np.array_equal(mix.projected_cdf(grid), reference(grid))
            for u in (0.0, 0.3, -2.5, 7.0, -np.inf, np.inf):
                got, want = mix.projected_cdf(u), reference(u)
                assert type(got) is type(want) and got == want
            assert np.array_equal(mix.projected_cdf(np.array([-np.inf, np.inf])), [0.0, 1.0])
