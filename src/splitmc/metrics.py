"""Distance computations and closed-form chain laws used by the experiments.

For Gaussian pairs the 1-d total variation and Wasserstein distances have
closed forms: TV through the analytic density crossing points, W1 as the
absolute moment E|(mean1 - mean2) + (s1 - s2) Z| of the quantile coupling,
which is optimal in one dimension. No distance here runs a quadrature. The
W1 distance of a sample to a Gaussian uses the same coupling. ToyParams and
ar1_kernel_t give the exact law of the scalar toy chain after t sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import InvalidParameter, UnsupportedModel


@dataclass(frozen=True)
class Normal1D:
    mean: float
    variance: float

    def cdf(self, x):
        return ndtr((np.asarray(x) - self.mean) / math.sqrt(self.variance))


# ---------------------------------------------------------------------------
# Closed forms for Gaussian pairs


def gaussian_tv_1d(mean1: float, var1: float, mean2: float, var2: float) -> float:
    """Exact total variation between two scalar Gaussians via density crossings."""
    if var1 <= 0 or var2 <= 0:
        raise ValueError("variances must be positive")
    s1, s2 = math.sqrt(var1), math.sqrt(var2)
    if abs(var1 - var2) < 1e-15 * max(var1, var2):
        if mean1 == mean2:
            return 0.0
        # Equal variances: single crossing at the midpoint.
        delta = abs(mean1 - mean2) / (2.0 * s1)
        return float(ndtr(delta) - ndtr(-delta))
    # log p1 = log p2 is the quadratic a x^2 + b x + c = 0.
    a = 0.5 * (1.0 / var2 - 1.0 / var1)
    b = mean2 / var2 - mean1 / var1
    b = -b  # coefficient of x from expanding -(x-m)^2/(2v)
    c = 0.5 * (mean2**2 / var2 - mean1**2 / var1) + math.log(s2 / s1)
    disc = b * b - 4.0 * a * c
    if disc <= 0:
        return 0.0
    r = math.sqrt(disc)
    x1, x2 = sorted(((-b - r) / (2 * a), (-b + r) / (2 * a)))
    x = np.array([x1, x2])
    f1 = ndtr((x - mean1) / s1)
    f2 = ndtr((x - mean2) / s2)
    return float(abs((f1[1] - f1[0]) - (f2[1] - f2[0])))


def gaussian_w1_1d(mean1: float, var1: float, mean2: float, var2: float) -> float:
    """1-Wasserstein distance between scalar Gaussians, in closed form.

    In one dimension the quantile coupling X_i = mean_i + s_i Z is optimal,
    so W1 = E|(mean1 - mean2) + (s1 - s2) Z|: the absolute moment of
    N(mean1 - mean2, (s1 - s2)^2), or |mean1 - mean2| when s1 = s2. Point
    masses (variance 0) are allowed.
    """
    var = (math.sqrt(var1) - math.sqrt(var2)) ** 2
    if var == 0.0:
        return abs(mean1 - mean2)
    return gaussian_abs_moment(0.0, mean1 - mean2, var)


def w1_samples_vs_gaussian(samples, mean: float, var: float) -> float:
    """W1 distance between an empirical sample and N(mean, var).

    Quantile-coupling form: mean_i |x_(i) - F^{-1}((i - 1/2)/n)|, accurate
    to O(1/n), which is far below the Monte Carlo noise of the samples
    themselves.
    """
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    n = x.size
    if n == 0:
        raise ValueError("need a nonempty sample")
    q = _normal_quantile_grid(n) * math.sqrt(var) + mean
    return float(np.abs(x - q).mean())


@lru_cache(maxsize=8)
def _normal_quantile_grid(n: int) -> np.ndarray:
    """Standard normal quantiles at (i - 1/2)/n, i = 1..n; read-only, built once per n."""
    q = ndtri((np.arange(n) + 0.5) / n)
    q.setflags(write=False)
    return q


def gaussian_abs_moment(point: float, mean: float, var: float) -> float:
    """E|X - point| for X ~ N(mean, var); the W1 distance from a point mass."""
    s = math.sqrt(var)
    delta = abs(mean - point)
    return s * math.sqrt(2.0 / math.pi) * math.exp(-delta**2 / (2 * var)) \
        + delta * math.erf(delta / (s * math.sqrt(2.0)))


def gaussian_chi2_variance(nu: Normal1D, pi: Normal1D) -> float:
    """Var_pi(d nu / d pi) for scalar Gaussians; inf when the ratio is not square-integrable."""
    a = 1.0 / nu.variance - 0.5 / pi.variance
    if a <= 0:
        return math.inf
    beta = nu.mean / nu.variance - 0.5 * pi.mean / pi.variance
    gamma = -nu.mean**2 / nu.variance + 0.5 * pi.mean**2 / pi.variance
    log_second_moment = (
        -0.5 * math.log(2.0 * math.pi) - math.log(nu.variance)
        + 0.5 * math.log(pi.variance)
        + 0.5 * math.log(math.pi / a) + beta**2 / a + gamma
    )
    return math.exp(log_second_moment) - 1.0


# ---------------------------------------------------------------------------
# Closed-form kernel evolution for the scalar Gaussian test family


@dataclass(frozen=True)
class ToyParams:
    """Scalar Gaussian target N(mu, sigma^2/b) under one of the two splittings.

    Strategy 1 splits into b identical factors; strategy 2 keeps a single
    factor, which is the strategy-1 algebra with rho^2 replaced by b rho^2.
    """

    mu: float
    sigma: float
    b: int
    rho: float
    strategy: int = 1

    def __post_init__(self):
        if self.strategy not in (1, 2):
            raise UnsupportedModel("toy closed forms exist for strategies 1 and 2 only")
        if not (self.sigma > 0 and self.b >= 1 and self.rho > 0):
            raise InvalidParameter("the toy chain needs sigma > 0, b >= 1 and rho > 0")

    @property
    def rho2_eff(self) -> float:
        return self.rho**2 * (self.b if self.strategy == 2 else 1)

    @property
    def mean_contraction(self) -> float:
        s2 = self.sigma**2
        return s2 / (s2 + self.rho2_eff)

    @property
    def k_rate(self) -> float:
        """The explicit contraction constant of the theta-chain."""
        return 1.0 - self.mean_contraction

    @property
    def step_noise_var(self) -> float:
        s2, r2 = self.sigma**2, self.rho2_eff
        return r2 * (2.0 * s2 + r2) / (self.b * (s2 + r2))

    @property
    def stationary(self) -> Normal1D:
        return Normal1D(self.mu, (self.sigma**2 + self.rho2_eff) / self.b)


def ar1_kernel_t(params: ToyParams, init, t: int) -> Normal1D:
    """Law of theta after t sweeps from init, a point (a number) or a Normal1D.

    mean_t = c^t m0 + (1 - c^t) mu and var_t = c^{2t} v0 + w (1 - c^{2t})/(1 - c^2)
    with c the mean contraction and w the one-step noise variance.
    """
    m0, v0 = (init.mean, init.variance) if isinstance(init, Normal1D) else (float(init), 0.0)
    c = params.mean_contraction
    ct = c**t
    mean_t = ct * m0 + (1.0 - ct) * params.mu
    if t == 0:
        return Normal1D(mean_t, v0)
    geom = (1.0 - c ** (2 * t)) / (1.0 - c**2)
    var_t = c ** (2 * t) * v0 + params.step_noise_var * geom
    return Normal1D(mean_t, var_t)
