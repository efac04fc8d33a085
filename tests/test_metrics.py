"""Empirical Wasserstein, Gaussian closed forms and the closed-form kernel evolution."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr
from scipy.stats import norm

from splitmc import ToyParams, ar1_kernel_t
from splitmc.metrics import (
    Normal1D,
    gaussian_abs_moment,
    gaussian_chi2_variance,
    gaussian_tv_1d,
    gaussian_w1_1d,
    w1_samples_vs_gaussian,
)

from scalar_reference import cdf_l1_distance


def empirical_w1_1d(samples_a, samples_b) -> float:
    """L1 distance between the empirical CDFs of two 1-d sample sets."""
    a = np.sort(np.asarray(samples_a, dtype=float).ravel())
    b = np.sort(np.asarray(samples_b, dtype=float).ravel())
    if a.size == 0 or b.size == 0:
        raise ValueError("both sample sets must be nonempty")
    if a.size == b.size:
        return float(np.abs(a - b).mean())
    # Unequal sizes: integrate |F_a - F_b| piecewise over the merged grid.
    grid = np.concatenate([a, b])
    order = np.argsort(grid, kind="mergesort")
    grid = grid[order]
    # Step increments: +1/na for points of a, -1/nb for points of b.
    steps = np.concatenate([np.full(a.size, 1.0 / a.size), np.full(b.size, -1.0 / b.size)])
    diff = np.cumsum(steps[order])[:-1]
    return float(np.sum(np.abs(diff) * np.diff(grid)))


def _gaussian_cdf(mean, var):
    """CDF of N(mean, var); a unit step at mean for var = 0."""
    if var == 0.0:
        return lambda x: float(x >= mean)
    s = math.sqrt(var)
    return lambda x: float(ndtr((x - mean) / s))


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
        rng = np.random.default_rng(6)
        a = np.sort(rng.standard_normal(25))
        b = np.sort(rng.standard_normal(40) + 0.5)

        def stepcdf(pts):
            return lambda x: float(np.searchsorted(pts, x, side="right")) / pts.size

        direct = empirical_w1_1d(a, b)
        via_cdf = cdf_l1_distance(stepcdf(a), stepcdf(b),
                                  (min(a[0], b[0]) - 1.0, max(a[-1], b[-1]) + 1.0),
                                  breakpoints=np.concatenate([a, b]),
                                  abs_tol=1e-13, rel_tol=1e-12, limit=500)
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

    def test_smoothed_variance_identity(self):
        # One sweep with width rho adds exactly rho^2/b to the toy target variance.
        sigma, b, rho = 3.0, 10, 0.7
        params = ToyParams(mu=0.0, sigma=sigma, b=b, rho=rho)
        assert params.stationary.variance == pytest.approx(sigma**2 / b + rho**2 / b)

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
        # Any pair, against the L1 distance of the CDFs by quadrature. The
        # breakpoints put the kink of |F1 - F2| at the CDF crossing
        # (mu1 s2 - mu2 s1)/(s2 - s1), and the means +- 1, 2, 4, 8 s_i keep
        # a narrow law visible next to a wide one.
        rng = np.random.default_rng(23)
        pairs = list(zip(rng.uniform(-3, 3, 200), np.exp(rng.uniform(-7, 4.6, 200)),
                         rng.uniform(-3, 3, 200), np.exp(rng.uniform(-7, 4.6, 200))))
        pairs += [(0.3, 2.0, -1.1, 2.0),           # equal variances: no crossing
                  (1.0, 0.0, -0.5, 0.0),           # two point masses
                  (1.0, 0.0, -0.5, 1.7),           # a point mass and a Gaussian
                  (0.2, 0.6, 0.2, 0.0),            # a point mass at the Gaussian's mean
                  (0.0047, 2.5**2, 0.0, 0.31**2),  # nearly equal means
                  (-0.005, 1.0, 0.0, 4.0)]
        for mean1, var1, mean2, var2 in pairs:
            s1, s2 = math.sqrt(var1), math.sqrt(var2)
            points = [m + k * s for m, s in ((mean1, s1), (mean2, s2))
                      for k in (-8, -4, -2, -1, 0, 1, 2, 4, 8)]
            if s1 != s2:
                points.append((mean1 * s2 - mean2 * s1) / (s2 - s1))
            support = (min(mean1 - 8 * s1, mean2 - 8 * s2) - 1.0,
                       max(mean1 + 8 * s1, mean2 + 8 * s2) + 1.0)
            expected = cdf_l1_distance(_gaussian_cdf(mean1, var1), _gaussian_cdf(mean2, var2),
                                       support, breakpoints=points,
                                       abs_tol=1e-15, rel_tol=1e-13, limit=500)
            assert gaussian_w1_1d(mean1, var1, mean2, var2) == pytest.approx(expected, rel=1e-12)
