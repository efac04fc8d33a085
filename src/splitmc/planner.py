"""Turns certified constants and a target precision into (rho^2, t_mix) prescriptions.

Each planner returns the largest admissible coupling width rho^2 for the
requested precision, the contraction constant of the sweep kernel in the
metric w(x, y) = ||G^{1/2}(x - y)||, and the smallest integer iteration
count t_mix meeting the corresponding guarantee. Mixing times deliberately
bound log(1/(1-K)) from below by K, matching the stated prescriptions
rather than the marginally tighter log form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh

from .errors import (EpsilonOutOfRange, InvalidParameter, NotCentered, NotStronglyConvex,
                     SingularGram, check_scale)
from .model import ModelConstants, SplitModel, max_factor_gradient_at, model_constants

W1_SINGLE = "W1-single"
TV_SINGLE = "TV-single"
TV_MULTI = "TV-multi"
TV_NONSTRONGLY = "TV-nonstrongly"


@dataclass(frozen=True)
class Plan:
    """A sampling prescription: coupling width, contraction rate and step count.

    metadata holds each theorem's width branch and constants, and the law its
    guarantee starts from (initial_distribution).
    """

    rho2: float
    t_mix: int
    k_sgs: float
    theorem: str
    epsilon: float
    C: float | None = None
    regularizer_lambda: float | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 < self.rho2 < math.inf:
            raise InvalidParameter(f"rho^2 must be positive and finite, got {self.rho2}")
        if self.t_mix < 1:
            raise InvalidParameter("t_mix must be at least 1")
        if not 0.0 < self.k_sgs < 1.0:
            raise InvalidParameter(f"the contraction constant {self.k_sgs} is not in (0, 1)")

    @property
    def rho(self) -> float:
        return math.sqrt(self.rho2)


def _check_eps(eps: float):
    if not 0.0 < eps <= 1.0:
        raise EpsilonOutOfRange(f"precision must satisfy 0 < eps <= 1, got {eps}")


def k_sgs(model: SplitModel, rho: float) -> float:
    """Contraction constant of the sweep kernel:

    1 - || G^{-1/2} (sum_i A_i^T A_i / (1 + m_i rho^2)) G^{-1/2} ||,
    computed as the largest generalized eigenvalue of the weighted Gram pair.
    Dimension-free, and zero when every m_i is zero.
    """
    check_scale(rho)
    weighted = model.weighted_gram(1.0 / (1.0 + model.m * rho**2))
    try:
        eigs = eigh(weighted, np.asarray(model.gram), eigvals_only=True)
    except np.linalg.LinAlgError as exc:
        raise SingularGram("Gram matrix is numerically singular") from exc
    return 1.0 - float(eigs[-1])


def _t_mix(log_term: float, rate: float) -> int:
    """max(1, ceil(log_term / rate)), refused unless rate > 0 and the quotient is finite."""
    if not (rate > 0 and log_term / rate < math.inf):
        raise InvalidParameter(f"no finite mixing time follows from {log_term} / {rate}")
    return max(1, math.ceil(log_term / rate))


def plan_w1_single(m1: float, M1: float, eps: float) -> Plan:
    """Single-split Wasserstein prescription.

    rho^2 = max(eps^2/(4 m1), eps/sqrt(m1 M1));
    t_mix = ceil(log(3/eps) / log(1 + max(eps^2/4, eps sqrt(m1/M1)))).
    Guarantee: started from a point mass at the minimizer, after t_mix
    sweeps the chain is within eps*sqrt(d/m1) of the target in W1.
    """
    _check_eps(eps)
    if not (0.0 < m1 <= M1 and m1 * M1 > 0.0 and eps**2 > 0.0):
        raise InvalidParameter(f"need 0 < m1 <= M1, and m1 M1 and eps^2 that do not "
                               f"underflow, got m1 = {m1}, M1 = {M1} and eps = {eps}")
    quad_branch = eps**2 / (4.0 * m1)
    geo_branch = eps / math.sqrt(m1 * M1)
    rho2 = max(quad_branch, geo_branch)
    boundary_kappa = 16.0 / eps**2
    # m1 * rho2 equals the max in the step-count formula.
    growth = m1 * rho2
    t_mix = _t_mix(math.log(3.0 / eps), math.log1p(growth))
    k = growth / (1.0 + growth)
    return Plan(
        rho2=rho2, t_mix=t_mix, k_sgs=k, theorem=W1_SINGLE, epsilon=eps,
        metadata={
            "active_branch": "eps^2/(4m)" if quad_branch >= geo_branch else "eps/sqrt(mM)",
            "branch_boundary_kappa": boundary_kappa,
            "guarantee": "W1 <= eps*sqrt(d/m1) from the minimizer point mass",
            "initial_distribution": "dirac(theta_star)",
        },
    )


def plan_tv_single(m1: float, M1: float, d: int, eps: float) -> Plan:
    """Single-split total-variation prescription.

    Uses the largest admissible width rho^2 = eps/(d M1) (larger rho^2
    maximizes the contraction constant and so minimizes t_mix);
    K = m1 rho^2/(1 + m1 rho^2), C = 5d/8 + (d/2) log(M1/m1),
    t_mix = ceil((log(2/eps) + C/2)/K).
    """
    _check_eps(eps)
    if m1 <= 0:
        raise NotStronglyConvex("single-split TV plan needs m1 > 0; "
                                "use the regularized plan instead")
    if not (math.isfinite(m1) and math.isfinite(M1)):
        raise InvalidParameter(f"need finite m1 and M1, got {m1} and {M1}")
    if M1 < m1:
        raise InvalidParameter("need m1 <= M1")
    if d < 1:
        raise InvalidParameter(f"need d >= 1, got {d}")
    rho2 = eps / (d * M1)
    k = m1 * rho2 / (1.0 + m1 * rho2)
    c_const = 5.0 * d / 8.0 + 0.5 * d * math.log(M1 / m1)
    t_mix = _t_mix(math.log(2.0 / eps) + c_const / 2.0, k)
    return Plan(
        rho2=rho2, t_mix=t_mix, k_sgs=k, C=c_const, theorem=TV_SINGLE, epsilon=eps,
        metadata={
            "initial_distribution": "normal(theta_star, (M1 A1^T A1)^{-1})",
        },
    )


def plan_tv_multi(model: SplitModel, eps: float, theta_star: np.ndarray,
                  constants: ModelConstants | None = None) -> Plan:
    """Multi-split total-variation prescription for a model centered at its minimizer theta_star.

    rho^2 is the minimum of the quartic-root branch
    sum(d_i M_i) (sqrt(1 + 8 eps sigma_U^4 (2 + 3d/2) / sum(d_i M_i)^2) - 1)
      / (4 sigma_U^4 (2 + 3d/2))
    and the validity cap 1/(6 sigma_U^2);
    C = d sigma_U^2 + rho^4 (2+d) sigma_U^4 + (17/32) sum d_i + (1/2) log-det ratio.
    Raises NotCentered when a factor gradient at theta_star exceeds 1e-8;
    find_minimizer and center_model give theta_star and the centered model.
    Raises InvalidParameter (a validity failure, as for any width whose
    square leaves the double range) when the quartic root's argument
    8 eps sigma_U^4 (2 + 3d/2) / sum(d_i M_i)^2 is not a positive finite
    double: sigma_U^4 or sum(d_i M_i)^2 overflows or underflows.
    """
    _check_eps(eps)
    consts = constants if constants is not None else model_constants(model)
    if consts.m_U <= 0.0:
        raise NotStronglyConvex("multi-split TV plan needs m_U > 0")
    residual = max_factor_gradient_at(model, theta_star)
    if residual > 1e-8:
        raise NotCentered(
            f"factor gradients at the minimizer reach {residual:.3e}; center the model first"
        )
    d = consts.d
    poly = 2.0 + 1.5 * d
    sum_dM = consts.sum_dims_M
    try:
        s4 = consts.sigma2_U**2
        growth = 8.0 * eps * s4 * poly / sum_dM**2
    except (OverflowError, ZeroDivisionError):
        growth = math.nan
    if not 0.0 < growth < math.inf:
        raise InvalidParameter(
            f"sigma_U^2 = {consts.sigma2_U} and sum d_i M_i = {sum_dM} put the multi-split "
            "plan's 8 eps sigma_U^4 (2 + 3d/2) / (sum d_i M_i)^2 outside the double range")
    root_branch = sum_dM * (math.sqrt(1.0 + growth) - 1.0) / (4.0 * s4 * poly)
    cap_branch = 1.0 / (6.0 * consts.sigma2_U)
    rho2 = min(root_branch, cap_branch)
    k = k_sgs(model, math.sqrt(rho2))
    c_const = (d * consts.sigma2_U + rho2**2 * (2.0 + d) * s4
               + (17.0 / 32.0) * consts.sum_dims + 0.5 * consts.log_det_ratio)
    t_mix = _t_mix(math.log(2.0 / eps) + c_const / 2.0, k)
    return Plan(
        rho2=rho2, t_mix=t_mix, k_sgs=k, C=c_const, theorem=TV_MULTI, epsilon=eps,
        metadata={
            "active_branch": "quartic-root" if root_branch <= cap_branch else "sigma-cap",
            "sigma2_U": consts.sigma2_U,
            "initial_distribution": "normal(theta_star, (sum M_i A_i^T A_i)^{-1})",
        },
    )


def plan_tv_nonstrongly(M1: float, eps: float, R: float, d: int) -> Plan:
    """Total-variation prescription without strong convexity, via ridge regularization.

    Requires the fourth-moment certificate int ||theta - theta*||^4 dpi <= d^2 R^2.
    lambda = 4 eps/(3 d R); rho^2 = 2 eps/(3 d (M1 + lambda));
    K = lambda rho^2/(1 + lambda rho^2); C = 5d/8 + (d/2) log((M1+lambda)/lambda);
    t_mix = ceil((log(3/eps) + C/2)/K). The error budget is split in thirds:
    regularization bias, coupling bias, and chain non-stationarity.
    """
    _check_eps(eps)
    if not (0 < M1 < math.inf and 0 < R < math.inf):
        raise InvalidParameter(f"need finite M1 > 0 and R > 0, got {M1} and {R}")
    if d < 1:
        raise InvalidParameter(f"need d >= 1, got {d}")
    lam = 4.0 * eps / (3.0 * d * R)
    if not lam > 0.0:
        raise InvalidParameter(f"the ridge lambda = 4 eps/(3 d R) underflows to {lam}")
    rho2 = 2.0 * eps / (3.0 * d * (M1 + lam))
    k = lam * rho2 / (1.0 + lam * rho2)
    c_const = 5.0 * d / 8.0 + 0.5 * d * math.log((M1 + lam) / lam)
    t_mix = _t_mix(math.log(3.0 / eps) + c_const / 2.0, k)
    return Plan(
        rho2=rho2, t_mix=t_mix, k_sgs=k, C=c_const, theorem=TV_NONSTRONGLY,
        epsilon=eps, regularizer_lambda=lam,
        metadata={
            "error_budget": ("eps/3 regularization bias", "eps/3 coupling bias",
                             "eps/3 chain error"),
            "initial_distribution": "normal(theta_star, ((M1+lambda) A1^T A1)^{-1})",
        },
    )
