"""Histogram TV, empirical Wasserstein and the closed-form kernel evolution."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from splitmc import ToyParams, ar1_kernel_t, binned_tv, empirical_w1_1d
from splitmc.errors import TooFewSamples
from splitmc.metrics import (
    Normal1D,
    ProjectionHistogram,
    gaussian_abs_moment,
    gaussian_chi2_variance,
    gaussian_tv_1d,
    gaussian_w1_1d,
    w1_samples_vs_gaussian,
)
from splitmc.numerics import cdf_l1_distance


class TestBinnedTv:
    def test_identical_samples(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(2000)
        assert binned_tv(x, x.copy(), n_bins=50) == 0.0

    def test_matching_analytic_density_noise_floor(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(100_000)
        tv = binned_tv(x, lambda v: norm.cdf(v), n_bins=40)
        assert tv < 0.02  # binning + Monte Carlo floor at this sample size

    def test_projection_direction(self):
        rng = np.random.default_rng(2)
        scales = np.array([2.0, 1.0, 0.5])
        samples = rng.standard_normal((60_000, 3)) * scales
        # Least favorable axis: largest variance = smallest precision.
        tv = binned_tv(samples, lambda v: norm.cdf(v, scale=2.0),
                       direction=np.array([1.0, 0.0, 0.0]), n_bins=40)
        assert tv < 0.03
        tv_wrong = binned_tv(samples, lambda v: norm.cdf(v, scale=2.0),
                             direction=np.array([0.0, 0.0, 1.0]), n_bins=40)
        assert tv_wrong > 0.3

    def test_permutation_invariance_and_range(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(5000)
        b = rng.standard_normal(5000) + 3.0
        t1 = binned_tv(a, b, n_bins=50)
        t2 = binned_tv(rng.permutation(a), b, n_bins=50)
        assert t1 == pytest.approx(t2, abs=1e-12)
        assert 0.0 <= t1 <= 1.0

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            binned_tv(np.zeros(100), np.zeros(100), n_bins=50)

    def test_histogram_invariants(self):
        with pytest.raises(ValueError):
            ProjectionHistogram(direction=np.array([1.0]),
                                edges=np.array([0.0, 1.0, 2.0]),
                                masses=np.array([0.3, 0.3]))


class TestEmpiricalW1:
    def test_identity(self):
        x = np.linspace(-1, 1, 500)
        assert empirical_w1_1d(x, x) == 0.0

    def test_paired_shift(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(1000)
        assert empirical_w1_1d(x, x + 0.37) == pytest.approx(0.37, abs=1e-12)

    def test_scale_family_value(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(100_000)
        b = 2.0 * rng.standard_normal(100_000)
        expected = math.sqrt(2.0 / math.pi)  # sqrt(2/pi) |2 - 1|
        assert empirical_w1_1d(a, b) == pytest.approx(expected, abs=0.02)

    def test_matches_cdf_l1_of_empirical_cdfs(self):
        # Step CDFs keep the quadrature honest only with a modest number of
        # jump points; the piecewise integral is exact either way.
        from splitmc.numerics import QuadratureSpec

        rng = np.random.default_rng(6)
        a = np.sort(rng.standard_normal(25))
        b = np.sort(rng.standard_normal(40) + 0.5)

        def stepcdf(pts):
            return lambda x: float(np.searchsorted(pts, x, side="right")) / pts.size

        direct = empirical_w1_1d(a, b)
        via_cdf = cdf_l1_distance(stepcdf(a), stepcdf(b),
                                  (min(a[0], b[0]) - 1.0, max(a[-1], b[-1]) + 1.0),
                                  QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12,
                                                 max_subdivisions=500),
                                  breakpoints=np.concatenate([a, b]))
        assert direct == pytest.approx(via_cdf, abs=1e-12)

    def test_quantile_coupling_against_sampler(self):
        rng = np.random.default_rng(7)
        x = 1.7 * rng.standard_normal(50_000) + 0.3
        assert w1_samples_vs_gaussian(x, 0.3, 1.7**2) < 0.02

    def test_quantile_coupling_matches_direct_quantiles(self):
        # The cached standard quantile grid, scaled and shifted, gives the
        # bits of norm.ppf at the reference quantiles; repeated calls reuse it.
        rng = np.random.default_rng(3)
        for n in (1, 7, 2000):
            x = rng.standard_normal(n)
            for mean, var in ((0.0, 1.0), (0.3, 1.7**2), (-2.5, 1e-4)):
                q = norm.ppf((np.arange(n) + 0.5) / n, loc=mean, scale=math.sqrt(var))
                direct = float(np.abs(np.sort(x) - q).mean())
                assert w1_samples_vs_gaussian(x, mean, var) == direct


class TestKernelEvolution:
    def test_converges_to_stationary(self):
        params = ToyParams(mu=0.5, sigma=3.0, b=10, rho=1.0)
        law = ar1_kernel_t(params, 4.0, 4000)
        assert law.mean == pytest.approx(params.stationary.mean, abs=1e-12)
        assert law.variance == pytest.approx(params.stationary.variance, rel=1e-12)

    def test_one_step_kernel(self):
        # Single sweep from a point: the explicit one-step mean and variance.
        params = ToyParams(mu=0.7, sigma=3.0, b=10, rho=1.3)
        theta0 = -2.0
        law = ar1_kernel_t(params, theta0, 1)
        s2, r2 = 9.0, 1.3**2
        c = s2 / (s2 + r2)
        assert law.mean == pytest.approx(c * theta0 + (1 - c) * 0.7, rel=1e-12)
        assert law.variance == pytest.approx(
            (2 * r2 * s2 + r2**2) / (10 * (r2 + s2)), rel=1e-12)

    def test_strategy2_is_width_rescaled(self):
        p1 = ToyParams(mu=0.0, sigma=3.0, b=7, rho=0.4, strategy=2)
        p2 = ToyParams(mu=0.0, sigma=3.0, b=7, rho=0.4 * math.sqrt(7), strategy=1)
        assert p1.mean_contraction == pytest.approx(p2.mean_contraction, rel=1e-12)
        assert p1.k_rate == pytest.approx(7 * 0.16 / (9 + 7 * 0.16), rel=1e-12)

    def test_mean_recursion(self):
        params = ToyParams(mu=1.1, sigma=2.0, b=4, rho=0.9)
        c = params.mean_contraction
        for t in range(100):
            m_t = ar1_kernel_t(params, 3.0, t).mean
            m_next = ar1_kernel_t(params, 3.0, t + 1).mean
            assert m_next == pytest.approx(c * m_t + (1 - c) * params.mu, rel=1e-10)

    def test_tv_decay_never_slower_than_contraction_rate(self):
        # Per-step TV ratio stays below 1 - K, so the geometric envelope holds.
        params = ToyParams(mu=0.0, sigma=3.0, b=10, rho=1.0)
        nu = Normal1D(0.0, 0.9)
        pi = params.stationary
        prev = gaussian_tv_1d(nu.mean, nu.variance, pi.mean, pi.variance)
        for t in range(1, 60):
            law = ar1_kernel_t(params, nu, t)
            cur = gaussian_tv_1d(law.mean, law.variance, pi.mean, pi.variance)
            assert cur <= (1.0 - params.k_rate) * prev + 1e-15
            prev = cur


class TestGaussianClosedForms:
    def test_chi2_variance_against_quadrature(self):
        nu = Normal1D(0.2, 0.8)
        pi = Normal1D(0.0, 1.1)
        val, _ = integrate.quad(
            lambda x: norm.pdf(x, nu.mean, math.sqrt(nu.variance)) ** 2
            / norm.pdf(x, pi.mean, math.sqrt(pi.variance)),
            -30, 30, limit=200)
        assert gaussian_chi2_variance(nu, pi) == pytest.approx(val - 1.0, rel=1e-9)

    def test_chi2_variance_infinite_when_not_square_integrable(self):
        assert gaussian_chi2_variance(Normal1D(0, 2.5), Normal1D(0, 1.0)) == math.inf

    def test_abs_moment_against_quadrature(self):
        val, _ = integrate.quad(
            lambda x: abs(x - 0.4) * norm.pdf(x, -0.3, 1.4), -20, 20, limit=200)
        assert gaussian_abs_moment(0.4, -0.3, 1.4**2) == pytest.approx(val, rel=1e-9)

    def test_w1_same_mean_closed_form(self):
        assert gaussian_w1_1d(0.0, 1.0, 0.0, 4.0) == pytest.approx(
            math.sqrt(2 / math.pi), rel=1e-12)
