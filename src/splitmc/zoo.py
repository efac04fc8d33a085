"""Named test-model constructors addressable from the CLI.

Each constructor returns a ready SplitModel; where the coupled conditional
has a closed form, its factor group carries the exact sampler, otherwise
sweeps fall back to rejection sampling.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import expit

from .errors import InvalidParameter, UnsupportedModel, check_scale, check_seed
from .model import ALL_BLOCKS, FactorGroup, SplitModel, make_quadratic_group


def _check_toy(sigma: float, b: int, mu: float):
    check_scale(sigma, "the toy Gaussian's sigma")
    if b < 1:
        raise InvalidParameter(f"the toy Gaussian needs b >= 1 factors, got {b}")
    if not math.isfinite(mu):
        raise InvalidParameter(f"the toy Gaussian needs a finite mu, got {mu}")


def toy_gaussian_1(sigma: float = 3.0, b: int = 10, mu: float = 0.0) -> SplitModel:
    """Scalar target N(mu, sigma^2/b) split into b identical quadratic factors."""
    _check_toy(sigma, b, mu)
    group = make_quadratic_group(np.ones((b, 1, 1)), precision=1.0 / sigma**2, center=mu)
    return SplitModel(1, [group])


def toy_gaussian_2(sigma: float = 3.0, b: int = 10, mu: float = 0.0) -> SplitModel:
    """Same scalar target N(mu, sigma^2/b), kept as a single factor."""
    _check_toy(sigma, b, mu)
    group = make_quadratic_group(np.ones((1, 1, 1)), precision=b / sigma**2, center=mu)
    return SplitModel(1, [group])


def aniso_gaussian(d: int = 10, m: float = 0.25, M: float = 1.0) -> SplitModel:
    """Zero-mean Gaussian with diagonal anisotropic precision, single identity split.

    The precisions are spread linearly over [m, M], so the least favorable
    direction is the first coordinate axis.
    """
    if not 0 < m <= M < math.inf:
        raise InvalidParameter(f"need 0 < m <= M < inf, got m={m}, M={M}")
    if d < 1:
        raise InvalidParameter(f"need d >= 1, got {d}")
    group = make_quadratic_group(np.eye(d)[None], precision=np.linspace(m, M, d), center=0.0)
    return SplitModel(d, [group])


def _softplus(u):
    """log(1 + exp(u)), within 2 ulp of np.logaddexp(0, u) at a fraction of its cost.

    exp(-|u|) is subnormal or zero for |u| above about 708; that underflow is
    the exact answer, not an error, and is never raised.
    """
    with np.errstate(under="ignore"):
        return np.maximum(u, 0.0) + np.log1p(np.exp(-np.abs(u)))


def mixture_group(a: np.ndarray, m: float) -> FactorGroup:
    """One identity-coupled block holding the two-component mixture with modes +-a.

    The potential is that of the symmetric unit-covariance mixture, with
    ||a|| < 1; m is its certified strong convexity 1 - ||a||^2, and M = 1.
    The coupled conditional is a two-component mixture with shared
    covariance rho^2/(1+rho^2) I, means (a_theta +- a rho^2)/(1+rho^2) and
    weights (1, exp(-2 a_theta . a / (1+rho^2))). Its + weight's share is
    expit(2t) = (1 + tanh(t))/2 with t = a_theta . a/(1+rho^2), so a row
    takes the + component where 2u - 1 < tanh(t), u uniform on [0, 1): the
    law of u < expit(2t), with numpy's SIMD tanh in place of scipy's
    scalar expit.

    The sampler accepts any leading axes in front of the (1, d) block axes
    and draws from rng, in this order, one rng.random per row and the
    normals of a_theta's shape. It takes a_theta . a by one gemv over the
    rows flattened to (-1, d), which numpy runs without the GIL. Its
    constants at one rho (1/(1 + rho^2), the two-row table
    [-a rho^2, +a rho^2] that a row's component indexes, and the noise
    scale) are computed at the first draw at that rho and kept for the last
    rho only. The gradient z - a + 2 expit(-2 z.a) a is computed as
    z - tanh(z.a) a, since 1 - 2 expit(-2s) = tanh(s); the group keeps no
    state that depends on the row count.
    """
    a = np.asarray(a, dtype=float)
    d = a.shape[0]
    at_rho = (None,)

    def value(z, rows):
        return 0.5 * np.sum((z - a) ** 2, axis=1) - _softplus(-2.0 * (z @ a))

    def gradient(z, rows):
        g = np.tanh(z @ a)[:, None] * a
        np.subtract(z, g, out=g)
        return g

    def sampler(a_theta, rho, rng):
        nonlocal at_rho
        if at_rho[0] != rho:
            a_rho2 = a * rho**2
            # Negation is exact, so the rows are (-+1.0) (a rho^2) bit for bit.
            at_rho = (rho, 1.0 / (1.0 + rho**2), np.stack([-a_rho2, a_rho2]),
                      math.sqrt(rho**2 / (1.0 + rho**2)))
        _, shrink, offsets, scale = at_rho
        t = a_theta.reshape(-1, d).dot(a).reshape(a_theta.shape[:-1])
        t *= shrink
        np.tanh(t, out=t)
        u = rng.random(t.shape)
        u *= 2.0
        u -= 1.0
        mu = offsets.take(u < t, axis=0)
        mu += a_theta
        mu *= shrink
        noise = rng.standard_normal(a_theta.shape)
        noise *= scale
        mu += noise
        return mu

    return FactorGroup(np.eye(d)[None], value, gradient, m=m, M=1.0, sampler=sampler)


def gaussian_mixture(d: int = 60, a_norm: float = 1.0 / math.sqrt(2.0)) -> SplitModel:
    """Symmetric two-component unit-covariance mixture with modes +-a, ||a|| < 1.

    a = (a_norm / sqrt(d)) (1, ..., 1). Strongly convex with
    m = 1 - ||a||^2 and M = 1; the global minimizer is the origin. Single
    identity split whose coupled conditional is an exact two-component
    mixture (mixture_group).
    """
    if d < 1:
        raise InvalidParameter(f"the mixture needs d >= 1, got d={d}")
    if not 0 < a_norm < 1:
        raise InvalidParameter("mixture needs 0 < ||a|| < 1 for strong convexity")
    a = np.full(d, a_norm / math.sqrt(d))
    model = SplitModel(d, [mixture_group(a, m=1.0 - a_norm**2)])
    model.mixture_direction = a
    return model


def _rademacher_data(d: int, n: int, seed: int):
    if d < 1 or n < 1:
        raise InvalidParameter(f"the logistic models need d >= 1 and n >= 1, got d={d}, n={n}")
    check_seed(seed)
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
    bit for bit, since multiplying by 1.0, 0.5 or 2.0 and summing one term
    are exact. The kernels hold the design as the contiguous half-scaled
    transpose X_j^T/2, of shape (b, k, s).
    """
    if design is None:
        m = np.full(labels.shape[0], alpha)
        M = np.full(labels.shape[0], alpha + 0.25)
        half_xt = None
    else:
        eigs = np.linalg.eigvalsh(np.swapaxes(design, 1, 2) @ design)
        m = alpha * np.maximum(eigs[:, 0], 0.0)
        M = (alpha + 0.25) * eigs[:, -1]
        half_xt = np.ascontiguousarray(0.5 * np.swapaxes(design, 1, 2))
    return _logit_kernels(a, half_xt, labels, alpha, m, M)


def _logit_kernels(a, half_xt, labels, alpha, m, M) -> FactorGroup:
    """The group of _logit_group with its constants given and its design as half_xt.

    half_xt is X_j^T/2 of shape (b, k, s), or None for the unit design. The
    kernels work on the half argument h = u/2 = X_j z/2, on which the
    per-observation residual is
    expit(u) - y + alpha u = (tanh(h) + (1 - 2y) + 4 alpha h)/2,
    with 1 - 2y and 4 alpha computed once per group: numpy's tanh runs in
    SIMD, where scipy's expit is a scalar loop. The gradient X_j^T r is
    np.matvec(X_j^T/2, 2r), and the value reads u = 2h. Every scaling by a
    power of two is exact, so u is X_j z up to the order of its sum.

    Centering folds the tilt into the labels: with u* = X_j z*_j and w the
    residual at u*, the gradient at z*_j is X_j^T w, and
    U_j(z) - <X_j^T w, z> is the same kernel with labels y + w.
    """
    flip = 1.0 - 2.0 * labels
    alpha4 = 4.0 * alpha

    def twice_residual(h, rows):
        """2 (expit(2h) - y + 2 alpha h) of the rows; h is consumed."""
        t = np.tanh(h)
        t += flip[rows]
        h *= alpha4
        t += h
        return t

    if half_xt is None:
        def value(z, rows):
            return (_softplus(z) + z * (0.5 * alpha * z - labels[rows]))[:, 0]

        def gradient(z, rows):
            g = twice_residual(0.5 * z, rows)
            g *= 0.5
            return g

    else:
        def value(z, rows):
            u = np.vecmat(z, half_xt[rows])
            u += u
            return np.add.reduce(_softplus(u) + u * (0.5 * alpha * u - labels[rows]), axis=1)

        def gradient(z, rows):
            x = half_xt[rows]
            return np.matvec(x, twice_residual(np.vecmat(z, x), rows))

    def recenter(a_theta_star, off):
        h = 0.5 * a_theta_star if half_xt is None else np.vecmat(a_theta_star, half_xt)
        w = twice_residual(h, ALL_BLOCKS)
        w *= 0.5
        return _logit_kernels(a, half_xt, labels + np.where(off[:, None], w, 0.0), alpha, m, M)

    return FactorGroup(a, value, gradient, m=m, M=M, recenter=recenter)


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
    if b < 1 or n % b != 0:
        raise InvalidParameter(f"group splitting expects b >= 1 to divide n, got b={b}, n={n}")
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
