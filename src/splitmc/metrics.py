"""Empirical and closed-form distance computations used by the experiments.

Total variation on a 1-d projection is estimated from shared-edge
histograms; Wasserstein distances in 1-d come from CDF differences. For
Gaussian pairs both distances have closed forms (TV via the analytic
density crossing points, which is more robust than quadrature of the
absolute difference).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.stats import norm

from .errors import TooFewSamples, UnsupportedModel
from .numerics import QuadratureSpec, cdf_l1_distance


@dataclass(frozen=True)
class Normal1D:
    mean: float
    variance: float

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def cdf(self, x):
        return norm.cdf(x, loc=self.mean, scale=self.std)


@dataclass(frozen=True)
class ProjectionHistogram:
    """Per-bin masses of samples projected on a unit direction."""

    direction: np.ndarray
    edges: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        if abs(float(self.masses.sum()) - 1.0) > 1e-12:
            raise ValueError("bin masses must sum to one")
        if np.any(np.diff(self.edges) <= 0):
            raise ValueError("edges must be strictly increasing")


def _project(samples: np.ndarray, direction: np.ndarray | None) -> np.ndarray:
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        return samples
    if direction is None:
        raise ValueError("multidimensional samples need a projection direction")
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    return samples @ direction


def binned_tv(samples_a, samples_b_or_cdf, direction=None, n_bins: int = 50) -> float:
    """Discretized total variation between two sample sets on a shared grid.

    The second side may be an analytic CDF callable instead of samples, in
    which case the mass it carries outside the empirical range is also
    counted. Requires at least 10 samples per bin on each empirical side.
    """
    xa = _project(samples_a, direction)
    if xa.size < 10 * n_bins:
        raise TooFewSamples(f"need at least {10 * n_bins} samples, got {xa.size}")
    analytic = callable(samples_b_or_cdf)
    if analytic:
        lo, hi = float(xa.min()), float(xa.max())
    else:
        xb = _project(samples_b_or_cdf, direction)
        if xb.size < 10 * n_bins:
            raise TooFewSamples(f"need at least {10 * n_bins} samples, got {xb.size}")
        lo = float(min(xa.min(), xb.min()))
        hi = float(max(xa.max(), xb.max()))
    edges = np.linspace(lo, hi, n_bins + 1)
    pa = np.histogram(xa, bins=edges)[0] / xa.size
    if analytic:
        cdf_vals = np.asarray([samples_b_or_cdf(e) for e in edges], dtype=float)
        pb = np.diff(cdf_vals)
        tail = cdf_vals[0] + (1.0 - cdf_vals[-1])
    else:
        pb = np.histogram(xb, bins=edges)[0] / xb.size
        tail = 0.0
    return 0.5 * (float(np.abs(pa - pb).sum()) + tail)


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
        return float(norm.cdf(delta) - norm.cdf(-delta))
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
    f1 = norm.cdf([x1, x2], loc=mean1, scale=s1)
    f2 = norm.cdf([x1, x2], loc=mean2, scale=s2)
    return float(abs((f1[1] - f1[0]) - (f2[1] - f2[0])))


def gaussian_w1_1d(mean1: float, var1: float, mean2: float, var2: float,
                   spec: QuadratureSpec | None = None) -> float:
    """1-Wasserstein distance between scalar Gaussians.

    Same-mean pairs reduce to sqrt(2/pi) |s1 - s2|; otherwise the CDF
    difference is integrated numerically.
    """
    s1, s2 = math.sqrt(var1), math.sqrt(var2)
    if mean1 == mean2:
        return math.sqrt(2.0 / math.pi) * abs(s1 - s2)
    if var1 == 0.0:
        return gaussian_abs_moment(mean1, mean2, var2)
    if var2 == 0.0:
        return gaussian_abs_moment(mean2, mean1, var1)
    lo = min(mean1 - 8 * s1, mean2 - 8 * s2)
    hi = max(mean1 + 8 * s1, mean2 + 8 * s2)
    return cdf_l1_distance(
        lambda x: norm.cdf(x, loc=mean1, scale=s1),
        lambda x: norm.cdf(x, loc=mean2, scale=s2),
        (lo, hi), spec,
    )


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
    # norm.ppf(u, loc, scale) is ppf(u) * scale + loc, so this is the same bits.
    q = _normal_quantile_grid(n) * math.sqrt(var) + mean
    return float(np.abs(x - q).mean())


@lru_cache(maxsize=8)
def _normal_quantile_grid(n: int) -> np.ndarray:
    """Standard normal quantiles at (i - 1/2)/n, i = 1..n; read-only, built once per n."""
    q = norm.ppf((np.arange(n) + 0.5) / n)
    q.setflags(write=False)
    return q


def gaussian_abs_moment(point: float, mean: float, var: float) -> float:
    """E|X - point| for X ~ N(mean, var); the W1 distance from a point mass."""
    s = math.sqrt(var)
    delta = abs(mean - point)
    return s * math.sqrt(2.0 / math.pi) * math.exp(-delta**2 / (2 * var)) \
        + delta * (1.0 - 2.0 * norm.cdf(-delta / s))


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
    """Law of theta after t sweeps from a point mass or Gaussian start.

    mean_t = c^t m0 + (1 - c^t) mu and var_t = c^{2t} v0 + w (1 - c^{2t})/(1 - c^2)
    with c the mean contraction and w the one-step noise variance.
    """
    if isinstance(init, Normal1D):
        m0, v0 = init.mean, init.variance
    elif np.isscalar(init):
        m0, v0 = float(init), 0.0
    else:
        m0, v0 = float(init[0]), float(init[1])
    c = params.mean_contraction
    ct = c**t
    mean_t = ct * m0 + (1.0 - ct) * params.mu
    if t == 0:
        return Normal1D(mean_t, v0)
    geom = (1.0 - c ** (2 * t)) / (1.0 - c**2)
    var_t = c ** (2 * t) * v0 + params.step_noise_var * geom
    return Normal1D(mean_t, var_t)
