"""Test oracles: the one-block rejection sampler, written out scalar by scalar,
and the L1 distance of two CDFs by quadrature.

splitmc draws every auxiliary block through the group path
(conditionals.warm_start_group, sample_z_group, _certificate); its one-block
names are wrappers over that path. This module keeps the plain scalar
algorithm those functions were derived from, so tests can compare the
group path against an independent implementation: warm starts, step counts
and certificates block by block, and draws bit for bit on a shared stream.
block_factors gives the oracle each block of a model as a SplitFactor.

cdf_l1_distance integrates |F - G| numerically; it checks the closed-form
Gaussian W1 distance (metrics.gaussian_w1_1d) and the empirical one.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

from splitmc.conditionals import DEFAULT_PROPOSAL_CAP, RejectionReport
from splitmc.errors import (
    AcceptanceStall,
    NonConvergence,
    NotSmooth,
    QuadratureFailure,
    check_rho,
)
from splitmc.model import Potential, SplitFactor
from splitmc.numerics import QuadratureSpec

# Warm starts stop once ||grad V_i|| <= (2/7) sqrt(1/rho^2 + m_i) / sqrt(d_i).
_GD_STOP_FACTOR = 2.0 / 7.0


def block_factors(model) -> tuple:
    """Every block of a model as a SplitFactor, in block order.

    Block j of a group is a view: its potential evaluates the group's
    value and gradient on row j, with the block's certified constants.
    """
    return tuple(_block_view(g, j) for g in model.groups for j in range(g.b))


def _block_view(group, j: int) -> SplitFactor:
    rows, k = slice(j, j + 1), group.k

    def value(z):
        return float(group.value(np.reshape(np.asarray(z, dtype=float), (1, k)), rows)[0])

    def gradient(z):
        return group.gradient(np.reshape(np.asarray(z, dtype=float), (1, k)), rows)[0]

    pot = Potential(dim=k, value=value, gradient=gradient, m=float(group.m[j]),
                    M=float(group.M[j]), L=float(group.L[j]))
    return SplitFactor(a=group.a[j], potential=pot)


def _norm(g) -> float:
    """||g||, summing the squares in numpy's pairwise order as the group path does.

    np.linalg.norm sums them by BLAS dot, whose order can differ in the last
    ulp once a block has more than one dimension; from carried starts on a
    10-dimensional logistic shard that moved a proposal scale by one ulp
    within 50 draws.
    """
    return math.sqrt(float(np.add.reduce(g * g)))


def _coupled_grad(factor: SplitFactor, z, a_theta, rho):
    return np.asarray(factor.potential.gradient(z), dtype=float) + (z - a_theta) / rho**2


def _coupled_value(factor: SplitFactor, z, a_theta, rho):
    return float(factor.potential.value(z)) + 0.5 * float(np.sum((z - a_theta) ** 2)) / rho**2


def gd_stop_threshold(factor: SplitFactor, rho: float) -> float:
    m = factor.potential.m
    return _GD_STOP_FACTOR * math.sqrt(1.0 / rho**2 + m) / math.sqrt(factor.dim)


def warm_start_minimize(factor: SplitFactor, a_theta: np.ndarray, rho: float,
                        target: float, z0: np.ndarray | None = None):
    """Gradient descent on V_i with step 1/(1/rho^2 + M_i) until ||grad V_i|| <= target.

    Returns (z_tilde, grad at z_tilde, step count). Certified constants
    keep the step count within
    ceil((log ||grad V_i(z0)|| - log target) / log(1/(1 - 1/kappa))), at
    least 1, with kappa = (1 + rho^2 M_i)/(1 + rho^2 m_i). Raises
    NonConvergence as soon as the count passes that bound or the gradient
    norm turns non-finite, both signs of an understated M_i.
    """
    M = factor.potential.M
    if not math.isfinite(M):
        raise NotSmooth("warm-start descent needs a finite smoothness constant")
    m = factor.potential.m
    step = 1.0 / (1.0 / rho**2 + M)
    z = np.array(a_theta, dtype=float) if z0 is None else np.array(z0, dtype=float)
    g = _coupled_grad(factor, z, a_theta, rho)
    gnorm = _norm(g)
    steps = 0
    bound = None
    while True:
        if not math.isfinite(gnorm):
            raise NonConvergence(f"warm-start gradient norm is {gnorm} after {steps} steps")
        if gnorm <= target:
            return z, g, steps
        if bound is None:
            kappa = (1.0 + rho**2 * M) / (1.0 + rho**2 * m)
            bound = 1 if kappa <= 1.0 else max(1, math.ceil(
                (math.log(gnorm) - math.log(target)) / math.log(1.0 / (1.0 - 1.0 / kappa))))
        if steps >= bound:
            raise NonConvergence(f"warm-start descent passed its step bound {int(bound)}; "
                                 "the certified M looks too small")
        z = z - step * g
        g = _coupled_grad(factor, z, a_theta, rho)
        gnorm = _norm(g)
        steps += 1


def _proposal_tightening(factor: SplitFactor, grad_norm: float, rho: float) -> float:
    """The proposal precision A~_i determined by the residual gradient at z~."""
    s = 1.0 / rho**2 + factor.potential.m
    if grad_norm == 0.0:
        return s
    g2d = grad_norm**2 / factor.dim
    return s + 0.5 * g2d - math.sqrt(0.25 * g2d**2 + s * g2d)


def expected_proposals_bound(factor: SplitFactor, theta: np.ndarray,
                             z_tilde: np.ndarray, rho: float) -> float:
    """Expected number of proposals until acceptance for the given warm start."""
    a_theta = factor.a @ np.asarray(theta, dtype=float)
    grad_norm = _norm(_coupled_grad(factor, np.atleast_1d(z_tilde), a_theta, rho))
    return _expected_bound_from_grad(factor, grad_norm, rho)


def _expected_bound_from_grad(factor: SplitFactor, grad_norm: float, rho: float) -> float:
    m, M, d = factor.potential.m, factor.potential.M, factor.dim
    if not math.isfinite(M):
        raise NotSmooth("the proposal bound needs a finite smoothness constant")
    a_tilde = _proposal_tightening(factor, grad_norm, rho)
    ratio = (1.0 / rho**2 + M) / a_tilde
    denom = 1.0 / rho**2 + m - a_tilde
    # grad_norm = 0 makes denom = 0; the exponent has limit 0 there.
    if grad_norm == 0.0 or denom <= 0.0:
        exponent = 0.0
    else:
        exponent = 0.5 * grad_norm**2 * (1.0 / denom - 1.0 / (1.0 / rho**2 + M))
    return ratio ** (d / 2.0) * math.exp(exponent)


def sample_z_rejection(factor: SplitFactor, theta: np.ndarray, rho: float, rng,
                       proposal_cap: int = DEFAULT_PROPOSAL_CAP,
                       z_warm: np.ndarray | None = None):
    """Exact draw from the coupled conditional of one auxiliary block.

    The target density is proportional to exp(-V_i(z)) with
    V_i(z) = U_i(z) + ||A_i theta - z||^2/(2 rho^2). A few gradient-descent
    steps from A_i theta (or from z_warm when carrying the previous block)
    give z~; proposals Z = z~ + A~^{-1/2} xi, xi ~ N(0, I), are accepted with
    probability exp(-r - [V_i(Z) - V_i(z~)] + ||xi||^2 / 2), where r
    collapses to 0 for an exactly centered warm start. ||xi||^2 / 2 is
    A~ ||Z - z~||^2 / 2, the proposal's own log density up to a constant,
    computed from the normals that made Z. The group path
    (sample_z_group) leaves out the coupling terms at a fresh warm start,
    where they are exactly zero; this reference keeps them, with the same
    results bit for bit.

    Returns (z, RejectionReport). Raises AcceptanceStall past proposal_cap:
    under correctly certified constants and the small-rho regime the
    expected number of proposals is at most 2, so a stall signals
    mis-stated constants rather than bad luck.
    """
    if not math.isfinite(factor.potential.M):
        raise NotSmooth("rejection sampling needs a finite smoothness constant")
    check_rho(rho)
    a_theta = factor.a @ np.asarray(theta, dtype=float)
    target = gd_stop_threshold(factor, rho)
    z_tilde, grad, gd_steps = warm_start_minimize(factor, a_theta, rho, target, z0=z_warm)
    grad_norm = _norm(grad)

    m = factor.potential.m
    s = 1.0 / rho**2 + m
    a_tilde = _proposal_tightening(factor, grad_norm, rho)
    denom = s - a_tilde
    log_r = 0.0 if (grad_norm == 0.0 or denom <= 0.0) else -0.5 * grad_norm**2 / denom
    v_tilde = _coupled_value(factor, z_tilde, a_theta, rho)
    sigma_prop = 1.0 / math.sqrt(a_tilde)
    expected = _expected_bound_from_grad(factor, grad_norm, rho)

    proposals = 0
    while True:
        if proposals >= proposal_cap:
            raise AcceptanceStall(
                f"no acceptance after {proposal_cap} proposals; certified (m, M) look wrong"
            )
        xi = rng.standard_normal(factor.dim)
        z = z_tilde + sigma_prop * xi
        proposals += 1
        log_accept = (log_r
                      - (_coupled_value(factor, z, a_theta, rho) - v_tilde)
                      + 0.5 * float(np.sum(xi**2)))
        if math.log(rng.uniform()) < log_accept:
            return z, RejectionReport(proposals_used=proposals,
                                      warm_start_gd_steps=gd_steps,
                                      expected_bound=expected)


def cdf_l1_distance(f_cdf, g_cdf, support: tuple[float, float],
                    spec: QuadratureSpec | None = None, breakpoints=None) -> float:
    """L1 distance between two CDFs, int |F - G| dx.

    The integration window starts from `support` and is widened until both
    CDFs carry less than abs_tol mass outside it. Known kinks or
    discontinuities (the crossing of two CDFs, the jumps of empirical CDFs)
    can be passed as breakpoints.
    """
    spec = spec or QuadratureSpec()
    lo, hi = float(support[0]), float(support[1])
    if not lo < hi:
        raise ValueError("support must be a nonempty interval")
    width = hi - lo
    for _ in range(200):
        if f_cdf(lo) + g_cdf(lo) <= spec.abs_tol:
            break
        lo -= width
        width = hi - lo
    else:
        raise QuadratureFailure("left tail never fell below abs_tol")
    for _ in range(200):
        if (1.0 - f_cdf(hi)) + (1.0 - g_cdf(hi)) <= spec.abs_tol:
            break
        hi += width
        width = hi - lo
    else:
        raise QuadratureFailure("right tail never fell below abs_tol")

    points = None
    if breakpoints is not None:
        points = sorted(p for p in breakpoints if lo < p < hi)
    value, abserr = integrate.quad(
        lambda x: abs(f_cdf(x) - g_cdf(x)), lo, hi, points=points,
        limit=max(spec.max_subdivisions, (len(points) + 1) * 2 if points else 0),
        epsabs=spec.abs_tol, epsrel=spec.rel_tol,
    )
    if abserr > max(spec.abs_tol, spec.rel_tol * max(value, 1e-300)) * 10.0:
        raise QuadratureFailure(
            f"cdf L1 quadrature missed tolerance: value={value}, err={abserr}"
        )
    return float(value)
