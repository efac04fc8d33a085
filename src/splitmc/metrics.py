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
    """Exact total variation between two scalar Gaussians via density crossings.

    TV depends on the means only through their difference, so the second
    law is moved to mean 0 before anything is squared.
    """
    if var1 <= 0 or var2 <= 0:
        raise ValueError("variances must be positive")
    mean = mean1 - mean2
    s1, s2 = math.sqrt(var1), math.sqrt(var2)
    if abs(var1 - var2) < 1e-15 * max(var1, var2):
        if mean == 0:
            return 0.0
        # Equal variances: single crossing at the midpoint.
        delta = abs(mean) / (2.0 * s1)
        return float(ndtr(delta) - ndtr(-delta))
    # log N(x; mean, var1) = log N(x; 0, var2) is the quadratic a x^2 + b x + c = 0.
    a = 0.5 * (1.0 / var2 - 1.0 / var1)
    b = mean / var1
    c = math.log(s2 / s1) - 0.5 * (mean**2 / var1)
    disc = b * b - 4.0 * a * c
    if disc <= 0:
        return 0.0
    r = math.sqrt(disc)
    x1, x2 = sorted(((-b - r) / (2 * a), (-b + r) / (2 * a)))
    x = np.array([x1, x2])
    f1 = ndtr((x - mean) / s1)
    f2 = ndtr(x / s2)
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
    # delta * delta is inf where Python's delta**2 would raise OverflowError.
    return s * math.sqrt(2.0 / math.pi) * math.exp(-delta * delta / (2 * var)) \
        + delta * math.erf(delta / (s * math.sqrt(2.0)))


def gaussian_chi2_variance(nu: Normal1D, pi: Normal1D) -> float:
    """Var_pi(d nu / d pi) for scalar Gaussians; inf when the ratio is not square-integrable.

    With q = (v_pi - v_nu)/v_pi and delta the difference of the means it is
    (1 - q^2)^{-1/2} exp(delta^2 / (v_pi (1 + q))) - 1 for -1 < q < 1, never
    negative as computed by expm1; it grows without bound as q rises to 1.
    """
    q = (pi.variance - nu.variance) / pi.variance
    if not -1.0 < q < 1.0:
        return math.inf
    delta = nu.mean - pi.mean
    return math.expm1(-0.5 * math.log1p(-q * q) + delta * delta / (pi.variance * (1.0 + q)))


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
        if not (self.sigma > 0 and self.b >= 1 and self.rho > 0 and math.isfinite(self.mu)):
            raise InvalidParameter("the toy chain needs sigma > 0, b >= 1, rho > 0 "
                                   "and a finite mu")
        if not 0.0 < self.mean_contraction < 1.0:
            raise InvalidParameter(f"the toy chain's contraction sigma^2/(sigma^2 + rho_eff^2) "
                                   f"rounds to {self.mean_contraction}, outside (0, 1)")

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

    mean_t = mu + c^t (m0 - mu) and var_t = c^{2t} v0 + w (1 - c^{2t})/(1 - c^2)
    with c the mean contraction and w the one-step noise variance.
    """
    m0, v0 = (init.mean, init.variance) if isinstance(init, Normal1D) else (float(init), 0.0)
    c = params.mean_contraction
    ct = c**t
    mean_t = params.mu + ct * (m0 - params.mu)
    if t == 0:
        return Normal1D(mean_t, v0)
    geom = (1.0 - c ** (2 * t)) / (1.0 - c**2)
    var_t = c ** (2 * t) * v0 + params.step_noise_var * geom
    return Normal1D(mean_t, var_t)
