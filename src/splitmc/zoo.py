"""Named test-model constructors addressable from the CLI.

Each constructor returns a ready SplitModel; where the coupled conditional
has a closed form, its factor group carries the exact sampler, otherwise
sweeps fall back to rejection sampling.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import expit

from .errors import UnsupportedModel
from .model import FactorGroup, SplitModel, make_quadratic_group


def toy_gaussian_1(sigma: float = 3.0, b: int = 10, mu: float = 0.0) -> SplitModel:
    """Scalar target N(mu, sigma^2/b) split into b identical quadratic factors."""
    group = make_quadratic_group(np.ones((b, 1, 1)), precision=1.0 / sigma**2, center=mu)
    return SplitModel(1, [group])


def toy_gaussian_2(sigma: float = 3.0, b: int = 10, mu: float = 0.0) -> SplitModel:
    """Same scalar target N(mu, sigma^2/b), kept as a single factor."""
    group = make_quadratic_group(np.ones((1, 1, 1)), precision=b / sigma**2, center=mu)
    return SplitModel(1, [group])


def aniso_gaussian(d: int = 10, m: float = 0.25, M: float = 1.0) -> SplitModel:
    """Zero-mean Gaussian with diagonal anisotropic precision, single identity split.

    The precisions are spread linearly over [m, M], so the least favorable
    direction is the first coordinate axis.
    """
    if not 0 < m <= M:
        raise ValueError("need 0 < m <= M")
    group = make_quadratic_group(np.eye(d)[None], precision=np.linspace(m, M, d), center=0.0)
    return SplitModel(d, [group])


def mixture_group(a: np.ndarray, m: float) -> FactorGroup:
    """One identity-coupled block holding the two-component mixture with modes +-a.

    The potential is that of the symmetric unit-covariance mixture, with
    ||a|| < 1; m is its certified strong convexity 1 - ||a||^2, and M = 1.
    The coupled conditional is a two-component mixture with shared
    covariance rho^2/(1+rho^2) I, means (a_theta +- a rho^2)/(1+rho^2) and
    weights (1, exp(-2 a_theta . a / (1+rho^2))). The sampler accepts any
    leading axes in front of the (1, d) block axes and takes, in this
    order, one uniform per row (the component) and the normals.
    """
    a = np.asarray(a, dtype=float)
    d = a.shape[0]

    def value(z, rows):
        return 0.5 * np.sum((z - a) ** 2, axis=1) - np.logaddexp(0.0, -2.0 * (z @ a))

    def gradient(z, rows):
        return z - a + 2.0 * expit(-2.0 * (z @ a))[:, None] * a

    def sampler(a_theta, rho, rng):
        s = a_theta @ a
        # p = w1/(w1+w2) with w1 = 1, w2 = exp(-2 <a_theta, a>/(1+rho^2)).
        p_first = expit(2.0 * s / (1.0 + rho**2))
        signs = np.where(rng.uniform(size=s.shape) < p_first, 1.0, -1.0)
        mu = (a_theta + signs[..., None] * a * rho**2) / (1.0 + rho**2)
        return mu + math.sqrt(rho**2 / (1.0 + rho**2)) * rng.standard_normal(a_theta.shape)

    return FactorGroup(np.eye(d)[None], value, gradient, m=m, M=1.0, sampler=sampler)


def gaussian_mixture(d: int = 60, a_norm: float = 1.0 / math.sqrt(2.0)) -> SplitModel:
    """Symmetric two-component unit-covariance mixture with modes +-a, ||a|| < 1.

    a = (a_norm / sqrt(d)) (1, ..., 1). Strongly convex with
    m = 1 - ||a||^2 and M = 1; the global minimizer is the origin. Single
    identity split whose coupled conditional is an exact two-component
    mixture (mixture_group).
    """
    if not 0 < a_norm < 1:
        raise ValueError("mixture needs 0 < ||a|| < 1 for strong convexity")
    a = np.full(d, a_norm / math.sqrt(d))
    model = SplitModel(d, [mixture_group(a, m=1.0 - a_norm**2)])
    model.mixture_direction = a
    return model


def _rademacher_data(d: int, n: int, seed: int):
    rng = np.random.default_rng(seed)
    x = rng.choice([-1.0, 1.0], size=(n, d)) / math.sqrt(d)
    theta_true = np.ones(d)
    y = (rng.uniform(size=n) < expit(x @ theta_true)).astype(float)
    return x, y


def _logit_group(a: np.ndarray, design: np.ndarray | None, labels: np.ndarray,
                 alpha: float) -> FactorGroup:
    """Blocks z_j -> sum_s [softplus(x_js.z_j) - y_js x_js.z_j + (alpha/2)(x_js.z_j)^2].

    design has shape (b, s, k): the s observations of block j, acting on its
    k-dimensional auxiliary variable; labels has shape (b, s). Block j is
    alpha lambda_min(X_j^T X_j)-strongly convex and (alpha + 1/4)
    lambda_max(X_j^T X_j)-smooth. design=None stands for the unit design
    X_j = [[1]] of scalar blocks with one observation each (s = k = 1):
    u = z, with no matmuls. The results equal those of np.ones((b, 1, 1))
    bit for bit, since multiplying by 1.0 and summing one term are exact.
    """
    if design is None:
        m = np.full(labels.shape[0], alpha)
        M = np.full(labels.shape[0], alpha + 0.25)

        def value(z, rows):
            return (np.logaddexp(0.0, z) - labels[rows] * z + 0.5 * alpha * z**2)[:, 0]

        def gradient(z, rows):
            return expit(z) - labels[rows] + alpha * z

        return FactorGroup(a, value, gradient, m=m, M=M, L=math.inf)

    eigs = np.linalg.eigvalsh(np.swapaxes(design, 1, 2) @ design)
    m = alpha * np.maximum(eigs[:, 0], 0.0)
    M = (alpha + 0.25) * eigs[:, -1]

    def value(z, rows):
        u = (design[rows] @ z[:, :, None])[:, :, 0]
        return np.sum(np.logaddexp(0.0, u) - labels[rows] * u + 0.5 * alpha * u**2, axis=1)

    def gradient(z, rows):
        x = design[rows]
        u = (x @ z[:, :, None])[:, :, 0]
        return ((expit(u) - labels[rows] + alpha * u)[:, None, :] @ x)[:, 0, :]

    return FactorGroup(a, value, gradient, m=m, M=M, L=math.inf)


def logistic_split1(d: int = 10, n: int = 200, seed: int = 0) -> SplitModel:
    """Per-observation split of the logistic posterior with a Zellner-style prior.

    Covariates are normalized Rademacher rows, labels Bernoulli under the
    all-ones regressor. The prior precision alpha sum_i x_i x_i^T is folded
    into the factors as (alpha/2) z^2 each, so every factor is strongly
    convex with m = alpha, M = alpha + 1/4. One row factor A_i = x_i^T per
    observation, all in one factor group; the conditionals are univariate.
    """
    x, y = _rademacher_data(d, n, seed)
    alpha = 3.0 * d / (math.pi**2 * n)
    group = _logit_group(x[:, None, :], None, y[:, None], alpha)
    model = SplitModel(d, [group])
    model.data = (x, y)
    model.prior_alpha = alpha
    return model


def logistic_split2(d: int = 10, n: int = 200, b: int = 5, seed: int = 0) -> SplitModel:
    """Data-shard split of the same posterior: b identity-coupled group factors.

    The observations are divided into b equal contiguous groups; factor i
    carries the loss of group i on the full parameter, and the b factors
    form one factor group. Group strong
    convexity is alpha lambda_min of the group design Gram, which is zero
    when the group has fewer rows than d.
    """
    if n % b != 0:
        raise ValueError("group splitting expects b to divide n")
    x, y = _rademacher_data(d, n, seed)
    alpha = 3.0 * d / (math.pi**2 * n)
    size = n // b
    group = _logit_group(np.tile(np.eye(d), (b, 1, 1)), x.reshape(b, size, d),
                         y.reshape(b, size), alpha)
    model = SplitModel(d, [group])
    model.data = (x, y)
    model.prior_alpha = alpha
    return model


_BUILDERS = {
    "toy-gaussian-1": toy_gaussian_1,
    "toy-gaussian-2": toy_gaussian_2,
    "aniso-gaussian": aniso_gaussian,
    "gaussian-mixture": gaussian_mixture,
    "logistic-split1": logistic_split1,
    "logistic-split2": logistic_split2,
}


def model_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILDERS))


def build_model(name: str, **params) -> SplitModel:
    """Construct a zoo model by CLI name; unknown keyword params are rejected."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise UnsupportedModel(
            f"unknown model {name!r}; available: {', '.join(model_names())}"
        ) from None
    return builder(**params)
