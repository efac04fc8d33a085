"""Test oracles: the one-block rejection sampler, written out scalar by scalar,
and the L1 distance of two CDFs by quadrature.

splitmc draws every auxiliary block through the group path
(conditionals.warm_start_group, sample_z_group, _certificate). This module
keeps the plain scalar algorithm that path was derived from, so tests can
compare it against an independent implementation: warm starts, step counts
and certificates block by block, and draws bit for bit on a shared stream.
The oracle stays the squeeze-free algorithm: it evaluates the exact
acceptance ratio for every proposal. The group path tests a curvature
squeeze first and evaluates V_i only where the squeeze leaves a proposal
open, and it must still match this oracle bit for bit, draw after draw.
The oracle reads block j of a factor group as (group, j): its potential is
the group's value and gradient on row j, with the block's certified
constants. replicate_block turns one block into a group of n copies, so a
law test draws n independent samples in one sample_z_group call, and
rejection_quadratic builds the quadratic block that the law tests draw by
rejection.

pi_rho_marginal_1d gives the cdf of pi_rho's theta-marginal on a grid, for
a group of scalar blocks on a one-dimensional theta, by Gauss-Hermite
quadrature over each block's own value; a law test draws theta from it and
checks that a sweep leaves it in place. pi_rho_cell_masses_2d does the
same at d = 2 for blocks of any dimension, by a tensor Gauss-Hermite rule,
as cell masses on a tensor grid.

cdf_l1_distance integrates |F - G| numerically; it checks the closed-form
Gaussian W1 distance (metrics.gaussian_w1_1d) and the empirical one.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate
from scipy.special import logsumexp

from splitmc.conditionals import PROPOSAL_CAP, RejectionReport
from splitmc.errors import (
    AcceptanceStall,
    NonConvergence,
    NotSmooth,
    QuadratureFailure,
    check_scale,
)
from splitmc.model import FactorGroup, make_quadratic_group

# Warm starts stop once ||grad V_i|| <= (2/7) sqrt(1/rho^2 + m_i) / sqrt(d_i).
_GD_STOP_FACTOR = 2.0 / 7.0


def replicate_block(group, j: int, n: int) -> FactorGroup:
    """n copies of block j of a group, without closed forms.

    Given theta the copies are independent draws of block j's conditional,
    so one sample_z_group call on this group makes n of them.
    """
    def at_j(fn):
        return lambda z, rows: fn(z, np.full(len(z), j))

    return FactorGroup(np.repeat(group.a[j:j + 1], n, axis=0), at_j(group.value),
                       at_j(group.gradient), group.m[j], group.M[j])


def rejection_quadratic(m: float, big_m: float | None = None, k: int = 1) -> FactorGroup:
    """One block m ||z||^2 / 2 on R^k, coupled by the identity, certified with
    M = big_m (m by default) and drawn by rejection: it has no closed form."""
    quad = make_quadratic_group(np.eye(k)[None], precision=m, center=0.0)
    return FactorGroup(quad.a, quad.value, quad.gradient, m, m if big_m is None else big_m)


def _value(group, j: int, z) -> float:
    z = np.reshape(np.asarray(z, dtype=float), (1, group.k))
    return float(group.value(z, slice(j, j + 1))[0])


def _gradient(group, j: int, z) -> np.ndarray:
    z = np.reshape(np.asarray(z, dtype=float), (1, group.k))
    return group.gradient(z, slice(j, j + 1))[0]


def _norm(g) -> float:
    """||g||, summing the squares in numpy's pairwise order as the group path does.

    np.linalg.norm sums them by BLAS dot, whose order can differ in the last
    ulp once a block has more than one dimension, which can move a proposal
    scale by one ulp.
    """
    return math.sqrt(float(np.add.reduce(g * g)))


def _coupled_grad(group, j, z, a_theta, rho):
    return np.asarray(_gradient(group, j, z), dtype=float) + (z - a_theta) / rho**2


def _coupled_value(group, j, z, a_theta, rho):
    return _value(group, j, z) + 0.5 * float(np.sum((z - a_theta) ** 2)) / rho**2


def gd_stop_threshold(group, j: int, rho: float) -> float:
    m = float(group.m[j])
    return _GD_STOP_FACTOR * math.sqrt(1.0 / rho**2 + m) / math.sqrt(group.k)


def warm_start_minimize(group, j: int, a_theta: np.ndarray, rho: float, target: float):
    """Gradient descent on V_j from a_theta, step 1/(1/rho^2 + M_j), to ||grad V_j|| <= target.

    Returns (z_tilde, grad at z_tilde, step count). Certified constants
    keep the step count within
    ceil((log ||grad V_j(a_theta)|| - log target) / log(1/(1 - 1/kappa))),
    at least 1, with kappa = (1 + rho^2 M_j)/(1 + rho^2 m_j). Raises
    NonConvergence as soon as the count passes that bound or the gradient
    norm turns non-finite, both signs of an understated M_j.
    """
    M = float(group.M[j])
    if not math.isfinite(M):
        raise NotSmooth("warm-start descent needs a finite smoothness constant")
    m = float(group.m[j])
    step = 1.0 / (1.0 / rho**2 + M)
    z = np.array(a_theta, dtype=float)
    g = _coupled_grad(group, j, z, a_theta, rho)
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
        g = _coupled_grad(group, j, z, a_theta, rho)
        gnorm = _norm(g)
        steps += 1


def _proposal_tightening(group, j: int, grad_norm: float, rho: float) -> float:
    """The proposal precision A~_j determined by the residual gradient at z~."""
    s = 1.0 / rho**2 + float(group.m[j])
    if grad_norm == 0.0:
        return s
    g2d = grad_norm**2 / group.k
    return s + 0.5 * g2d - math.sqrt(0.25 * g2d**2 + s * g2d)


def expected_proposals_bound(group, j: int, theta: np.ndarray,
                             z_tilde: np.ndarray, rho: float) -> float:
    """Expected number of proposals until acceptance for the given warm start."""
    a_theta = group.a[j] @ np.asarray(theta, dtype=float)
    grad_norm = _norm(_coupled_grad(group, j, np.atleast_1d(z_tilde), a_theta, rho))
    return _expected_bound_from_grad(group, j, grad_norm, rho)


def _expected_bound_from_grad(group, j: int, grad_norm: float, rho: float) -> float:
    m, M, d = float(group.m[j]), float(group.M[j]), group.k
    if not math.isfinite(M):
        raise NotSmooth("the proposal bound needs a finite smoothness constant")
    a_tilde = _proposal_tightening(group, j, grad_norm, rho)
    ratio = (1.0 / rho**2 + M) / a_tilde
    denom = 1.0 / rho**2 + m - a_tilde
    # grad_norm = 0 makes denom = 0; the exponent has limit 0 there.
    if grad_norm == 0.0 or denom <= 0.0:
        exponent = 0.0
    else:
        exponent = 0.5 * grad_norm**2 * (1.0 / denom - 1.0 / (1.0 / rho**2 + M))
    return ratio ** (d / 2.0) * math.exp(exponent)


def sample_z_rejection(group, j: int, theta: np.ndarray, rho: float, rng):
    """Exact draw from the coupled conditional of block j of a group.

    The target density is proportional to exp(-V_j(z)) with
    V_j(z) = U_j(z) + ||A_j theta - z||^2/(2 rho^2). A few gradient-descent
    steps from A_j theta give z~; proposals Z = z~ + A~^{-1/2} xi,
    xi ~ N(0, I), are accepted with probability
    exp(-r - [V_j(Z) - V_j(z~)] + ||xi||^2 / 2), where r collapses to 0 for
    an exactly centered warm start. ||xi||^2 / 2 is A~ ||Z - z~||^2 / 2, the
    proposal's own log density up to a constant, computed from the normals
    that made Z. The group path (sample_z_group) leaves out the coupling
    terms at A_j theta, where they are exactly zero; this reference keeps
    them, with the same results bit for bit.

    Returns (z, RejectionReport). Raises AcceptanceStall past PROPOSAL_CAP:
    under correctly certified constants and the small-rho regime the
    expected number of proposals is at most 2, so a stall signals
    mis-stated constants rather than bad luck.
    """
    if not math.isfinite(float(group.M[j])):
        raise NotSmooth("rejection sampling needs a finite smoothness constant")
    check_scale(rho)
    a_theta = group.a[j] @ np.asarray(theta, dtype=float)
    target = gd_stop_threshold(group, j, rho)
    z_tilde, grad, gd_steps = warm_start_minimize(group, j, a_theta, rho, target)
    grad_norm = _norm(grad)

    s = 1.0 / rho**2 + float(group.m[j])
    a_tilde = _proposal_tightening(group, j, grad_norm, rho)
    denom = s - a_tilde
    log_r = 0.0 if (grad_norm == 0.0 or denom <= 0.0) else -0.5 * grad_norm**2 / denom
    v_tilde = _coupled_value(group, j, z_tilde, a_theta, rho)
    sigma_prop = 1.0 / math.sqrt(a_tilde)
    expected = _expected_bound_from_grad(group, j, grad_norm, rho)

    proposals = 0
    while True:
        if proposals >= PROPOSAL_CAP:
            raise AcceptanceStall(
                f"no acceptance after {PROPOSAL_CAP} proposals; certified (m, M) look wrong"
            )
        xi = rng.standard_normal(group.k)
        z = z_tilde + sigma_prop * xi
        proposals += 1
        log_accept = (log_r
                      - (_coupled_value(group, j, z, a_theta, rho) - v_tilde)
                      + 0.5 * float(np.sum(xi**2)))
        if math.log(rng.uniform()) < log_accept:
            return z, RejectionReport(proposals_used=proposals,
                                      warm_start_gd_steps=gd_steps,
                                      expected_bound=expected)


def pi_rho_marginal_1d(group, rho: float, grid: np.ndarray, tilt=None):
    """The cdf of pi_rho's theta-marginal at d = 1, on grid.

    pi_rho(theta) is proportional to the product over the blocks j of
    int exp(-U_j(z) + tilt_j z - (z - a_j theta)^2 / (2 rho^2)) dz, with
    U_j the group's own value on row j and a_j its scalar coupling; tilt
    (one value per block, zero by default) adds the linear term that
    centering subtracts, so the centered law can be written from the raw
    rows. Each integral is a 40-point Gauss-Hermite rule in
    z = a_j theta + sqrt(2) rho t, summed in log space; on the logistic
    rows at rho = 2 the cdf agrees with a 160-point rule's to 2e-8. The
    cdf is accumulated by the trapezoid rule on grid, which must hold the
    mass: the density at both ends must be negligible.
    """
    if group.k != 1 or group.d != 1:
        raise ValueError("the marginal is written for scalar blocks on a scalar theta")
    grid = np.asarray(grid, dtype=float)
    t, w = np.polynomial.hermite.hermgauss(40)
    a = group.a[:, 0, 0]
    tilt = np.zeros(group.b) if tilt is None else np.asarray(tilt, dtype=float)
    center = np.multiply.outer(grid, a)
    rows = np.tile(np.arange(group.b), grid.size)
    log_terms = np.empty(t.shape + center.shape)
    for i in range(t.size):
        z = center + math.sqrt(2.0) * rho * t[i]
        u = group.value(z.reshape(-1, 1), rows).reshape(center.shape)
        log_terms[i] = math.log(w[i]) - u + tilt * z
    log_density = logsumexp(log_terms, axis=0).sum(axis=1)
    density = np.exp(log_density - log_density.max())
    if max(density[0], density[-1]) > 1e-10:
        raise ValueError("the grid does not hold the mass of the marginal")
    steps = 0.5 * (density[1:] + density[:-1]) * np.diff(grid)
    cdf = np.concatenate([[0.0], np.cumsum(steps)])
    return cdf / cdf[-1]


def pi_rho_cell_masses_2d(group, rho: float, axes, tilt=None, nodes: int = 12):
    """pi_rho's theta-marginal at d = 2 as masses of the cells of a tensor grid.

    axes are two equally spaced grids; cell (i, j) is centered at
    (axes[0][i], axes[1][j]) and gets the density there times its area,
    normalized to total mass one. The density is the product over the
    blocks j of int exp(-U_j(z) + <tilt_j, z> - ||z - A_j theta||^2 / (2 rho^2)) dz,
    as in pi_rho_marginal_1d, with each k-dimensional integral a tensor
    Gauss-Hermite rule of nodes^k points in z = A_j theta + sqrt(2) rho t,
    accumulated in log space; tilt has shape (b, k). On logistic-split2
    (d = 2, n = 16, b = 2) at rho = 1 the marginal cdfs of 12 nodes agree
    with 40 nodes' to 4e-7. The grid must hold the mass: the cells on its
    border must carry next to none.
    """
    if group.d != 2:
        raise ValueError("the masses are written for a two-dimensional theta")
    k = group.k
    t, w = np.polynomial.hermite.hermgauss(nodes)
    t_nodes = np.stack(np.meshgrid(*[t] * k, indexing="ij"), axis=-1).reshape(-1, k)
    log_w = np.log(np.stack(np.meshgrid(*[w] * k, indexing="ij"), axis=-1)).sum(axis=-1).ravel()
    tilt = np.zeros((group.b, k)) if tilt is None else np.asarray(tilt, dtype=float)
    thetas = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    center = np.einsum("jkd,pd->pjk", group.a, thetas)
    rows = np.tile(np.arange(group.b), len(thetas))
    log_integral = np.full(center.shape[:2], -np.inf)
    for q in range(len(t_nodes)):
        z = center + math.sqrt(2.0) * rho * t_nodes[q]
        u = group.value(z.reshape(-1, k), rows).reshape(center.shape[:2])
        log_integral = np.logaddexp(log_integral, log_w[q] - u + (z * tilt).sum(axis=-1))
    log_density = log_integral.sum(axis=1).reshape(len(axes[0]), len(axes[1]))
    mass = np.exp(log_density - log_density.max())
    mass /= mass.sum()
    if max(mass[[0, -1]].max(), mass[:, [0, -1]].max()) > 1e-6:
        raise ValueError("the grid does not hold the mass of the marginal")
    return mass


def cdf_l1_distance(f_cdf, g_cdf, support: tuple[float, float], breakpoints=None,
                    abs_tol: float = 1e-12, rel_tol: float = 1e-10, limit: int = 200) -> float:
    """L1 distance between two CDFs, int |F - G| dx.

    The integration window starts from `support` and is widened until both
    CDFs carry less than abs_tol mass outside it. Known kinks or
    discontinuities (the crossing of two CDFs, the jumps of empirical CDFs)
    can be passed as breakpoints. quad runs to abs_tol and rel_tol with at
    most limit subdivisions, or two per breakpoint interval if that is more.
    """
    lo, hi = float(support[0]), float(support[1])
    if not lo < hi:
        raise ValueError("support must be a nonempty interval")
    width = hi - lo
    for _ in range(200):
        if f_cdf(lo) + g_cdf(lo) <= abs_tol:
            break
        lo -= width
        width = hi - lo
    else:
        raise QuadratureFailure("left tail never fell below abs_tol")
    for _ in range(200):
        if (1.0 - f_cdf(hi)) + (1.0 - g_cdf(hi)) <= abs_tol:
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
        limit=max(limit, (len(points) + 1) * 2 if points else 0),
        epsabs=abs_tol, epsrel=rel_tol,
    )
    if abserr > max(abs_tol, rel_tol * max(value, 1e-300)) * 10.0:
        raise QuadratureFailure(
            f"cdf L1 quadrature missed tolerance: value={value}, err={abserr}"
        )
    return float(value)
