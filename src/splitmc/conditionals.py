"""Exact samplers for the two Gibbs blocks.

The master-parameter conditional is Gaussian with precision G/rho^2 and is
drawn through the model's cached Cholesky factor of G. Each auxiliary block
z_i is drawn either by its factor group's closed-form sampler (the only
closed form of a conditional; see FactorGroup) or by rejection sampling
from a Gaussian proposal centered at an approximate minimizer of
V_i(z) = U_i(z) + ||z - A_i theta||^2 / (2 rho^2).

The sweep draws all blocks of a factor group together with array
operations (warm_start_group, sample_z_group). The one-block functions
warm_start_minimize and sample_z_rejection are the reference they are
tested against.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import AcceptanceStall, NonConvergence, NotSmooth
from .model import ALL_BLOCKS, FactorGroup, SplitFactor, SplitModel

# Warm starts stop once ||grad V_i|| <= (2/7) sqrt(1/rho^2 + m_i) / sqrt(d_i).
_GD_STOP_FACTOR = 2.0 / 7.0

DEFAULT_PROPOSAL_CAP = 10_000


class ThetaConditional:
    """Sampler state for theta | z: mean solve plus pre-factorized noise transform.

    Built once per (model, rho); uses the model's lower Cholesky factor L
    of G = sum_i A_i^T A_i = L L^T at every sweep.
    """

    def __init__(self, model: SplitModel, rho: float):
        if rho <= 0:
            raise ValueError("rho must be positive")
        self.model = model
        self.rho = float(rho)
        self.chol_lower = model.chol_lower
        self._trtrs = get_lapack_funcs(("trtrs",), (self.chol_lower,))[0]

    def mean(self, z_blocks) -> np.ndarray:
        """mu(z) = G^{-1} sum_i A_i^T z_i; z per group or per block (see SplitModel.as_groups)."""
        return self.model.master_mean(self.model.as_groups(z_blocks))

    def sample(self, z_blocks, rng, size: int | None = None) -> np.ndarray:
        """Exact draw(s) from N(mu(z), rho^2 G^{-1}).

        With size=n, returns an (n, d) array of independent draws sharing
        the same conditioning blocks.
        """
        mu = self.mean(z_blocks)
        shape = self.model.d if size is None else (self.model.d, size)
        # L^T noise = xi, by LAPACK directly (see SplitModel.solve_gram).
        noise, info = self._trtrs(self.chol_lower, rng.standard_normal(shape), lower=1, trans=1)
        if info != 0:
            raise ValueError(f"triangular solve failed with LAPACK info {info}")
        if size is None:
            return mu + self.rho * noise
        return (mu[:, None] + self.rho * noise).T


@dataclass(frozen=True)
class RejectionReport:
    proposals_used: int
    warm_start_gd_steps: int
    expected_bound: float

    def __post_init__(self):
        if self.proposals_used < 1:
            raise ValueError("at least one proposal is always used")
        if self.expected_bound < 1.0:
            raise ValueError("the expected proposal count is never below one")


class BlockReports(Sequence):
    """The per-block reports of one sweep, held as arrays over the model's blocks.

    Item i is block i's RejectionReport, built on access, or None for a
    block drawn in closed form (proposals 0).
    """

    __slots__ = ("proposals", "gd_steps", "expected")

    def __init__(self, proposals: np.ndarray, gd_steps: np.ndarray, expected: np.ndarray):
        self.proposals = proposals
        self.gd_steps = gd_steps
        self.expected = expected

    def __len__(self) -> int:
        return len(self.proposals)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        used = int(self.proposals[i])
        if used == 0:
            return None
        return RejectionReport(proposals_used=used, warm_start_gd_steps=int(self.gd_steps[i]),
                               expected_bound=float(self.expected[i]))


def _coupled_grad(factor: SplitFactor, z, a_theta, rho):
    return np.asarray(factor.potential.gradient(z), dtype=float) + (z - a_theta) / rho**2


def _coupled_value(factor: SplitFactor, z, a_theta, rho):
    return float(factor.potential.value(z)) + 0.5 * float(np.sum((z - a_theta) ** 2)) / rho**2


def gd_stop_threshold(factor: SplitFactor, rho: float) -> float:
    m = factor.potential.m
    return _GD_STOP_FACTOR * math.sqrt(1.0 / rho**2 + m) / math.sqrt(factor.dim)


def _step_bounds(gnorm0, target, rho: float, m, M) -> np.ndarray:
    """Per-block descent step ceilings, the array form of warm_start_minimize's bound."""
    kappa = (1.0 + rho**2 * M) / (1.0 + rho**2 * m)
    with np.errstate(divide="ignore"):
        rate = np.log(1.0 / (1.0 - 1.0 / kappa))  # inf at kappa = 1: one exact step
        return np.maximum(np.ceil((np.log(gnorm0) - np.log(target)) / rate), 1.0)


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
    gnorm = float(np.linalg.norm(g))
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
        gnorm = float(np.linalg.norm(g))
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
    grad_norm = float(np.linalg.norm(_coupled_grad(factor, np.atleast_1d(z_tilde), a_theta, rho)))
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


def within_two_guarantee(factor: SplitFactor, grad_norm: float, rho: float) -> bool:
    """True when the run is inside the regime guaranteeing at most 2 expected proposals:

    rho^2 (2 d_i (M_i - m_i) - m_i) <= 1 and the warm-start residual is below
    the descent stopping threshold.
    """
    m, M, d = factor.potential.m, factor.potential.M, factor.dim
    if not math.isfinite(M):
        return False
    cond1 = rho**2 * (2.0 * d * (M - m) - m) <= 1.0
    cond2 = grad_norm <= gd_stop_threshold(factor, rho)
    return bool(cond1 and cond2)


def sample_z_rejection(factor: SplitFactor, theta: np.ndarray, rho: float, rng,
                       proposal_cap: int = DEFAULT_PROPOSAL_CAP,
                       z_warm: np.ndarray | None = None):
    """Exact draw from the coupled conditional of one auxiliary block.

    The target density is proportional to exp(-V_i(z)) with
    V_i(z) = U_i(z) + ||A_i theta - z||^2/(2 rho^2). A few gradient-descent
    steps from A_i theta (or from z_warm when carrying the previous block)
    give z~; proposals come from N(z~, A~^{-1} I) and are accepted with
    probability exp(-r - [V_i(Z) - V_i(z~)] + A~ ||Z - z~||^2 / 2), where r
    collapses to 0 for an exactly centered warm start.

    Returns (z, RejectionReport). Raises AcceptanceStall past proposal_cap:
    under correctly certified constants and the small-rho regime the
    expected number of proposals is at most 2, so a stall signals
    mis-stated constants rather than bad luck.
    """
    if not math.isfinite(factor.potential.M):
        raise NotSmooth("rejection sampling needs a finite smoothness constant")
    if rho <= 0:
        raise ValueError("rho must be positive")
    a_theta = factor.a @ np.asarray(theta, dtype=float)
    target = gd_stop_threshold(factor, rho)
    z_tilde, grad, gd_steps = warm_start_minimize(factor, a_theta, rho, target, z0=z_warm)
    grad_norm = float(np.linalg.norm(grad))

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
        z = z_tilde + sigma_prop * rng.standard_normal(factor.dim)
        proposals += 1
        log_accept = (log_r
                      - (_coupled_value(factor, z, a_theta, rho) - v_tilde)
                      + 0.5 * a_tilde * float(np.sum((z - z_tilde) ** 2)))
        if math.log(rng.uniform()) < log_accept:
            return z, RejectionReport(proposals_used=proposals,
                                      warm_start_gd_steps=gd_steps,
                                      expected_bound=expected)


def warm_start_group(group: FactorGroup, a_theta: np.ndarray, rho: float, target,
                     z0: np.ndarray | None = None):
    """warm_start_minimize for every block of a group at once.

    Descends only the blocks still above their target (target is a scalar
    or one value per block). Returns (z_tilde, gradient norms, steps), all
    per block; raises NonConvergence like the single-block descent,
    naming the first failing block of the group.
    """
    if not group.smooth:
        raise NotSmooth("warm-start descent needs a finite smoothness constant")
    z = np.array(a_theta if z0 is None else z0, dtype=float)
    g = group.gradient(z, ALL_BLOCKS) + (z - a_theta) / rho**2
    gnorm = np.linalg.norm(g, axis=1)
    steps = np.zeros(group.b, dtype=np.int64)
    pending = np.flatnonzero(~(gnorm <= target))
    if pending.size:
        step = 1.0 / (1.0 / rho**2 + group.M)
        target = np.broadcast_to(target, (group.b,))
        bound = _step_bounds(gnorm[pending], target[pending], rho, group.m[pending],
                             group.M[pending])
    while pending.size:
        bad = ~np.isfinite(gnorm[pending])
        if bad.any():
            j = int(pending[bad][0])
            raise NonConvergence(f"block {j}: warm-start gradient norm is {gnorm[j]} "
                                 f"after {steps[j]} steps")
        over = steps[pending] >= bound
        if over.any():
            j = int(pending[over][0])
            raise NonConvergence(f"block {j}: warm-start descent passed its step bound "
                                 f"{int(bound[over][0])}; the certified M looks too small")
        zp = z[pending] - step[pending, None] * g[pending]
        gp = group.gradient(zp, pending) + (zp - a_theta[pending]) / rho**2
        z[pending], g[pending] = zp, gp
        gnorm[pending] = np.linalg.norm(gp, axis=1)
        steps[pending] += 1
        keep = ~(gnorm[pending] <= target[pending])
        pending, bound = pending[keep], bound[keep]
    return z, gnorm, steps


def sample_z_group(group: FactorGroup, a_theta: np.ndarray, rho: float, rng,
                   proposal_cap: int = DEFAULT_PROPOSAL_CAP,
                   z_warm: np.ndarray | None = None):
    """Exact draws of every block of a group: sample_z_rejection as array operations.

    a_theta has shape (b, k). One masked descent gives every warm start;
    then each round proposes once for every block still pending, taking
    the normals and then the uniforms from rng in block order, and retires
    the accepted blocks. Returns (z, proposals, gd_steps, expected_bound),
    the last three per block. Raises AcceptanceStall when a block is still
    pending after proposal_cap rounds.
    """
    if not group.smooth:
        raise NotSmooth("rejection sampling needs a finite smoothness constant")
    if rho <= 0:
        raise ValueError("rho must be positive")
    k = group.k
    s = 1.0 / rho**2 + group.m
    target = _GD_STOP_FACTOR * np.sqrt(s) / math.sqrt(k)
    z_tilde, gnorm, gd_steps = warm_start_group(group, a_theta, rho, target, z0=z_warm)

    gnorm2 = gnorm**2
    g2d = gnorm2 / k
    a_tilde = s + 0.5 * g2d - np.sqrt(0.25 * g2d**2 + s * g2d)
    denom = s - a_tilde
    top = 1.0 / rho**2 + group.M
    # gnorm = 0 makes denom = 0; both exponents have limit 0 there.
    flat = (gnorm == 0.0) | (denom <= 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_r = np.where(flat, 0.0, -0.5 * gnorm2 / denom)
        exponent = np.where(flat, 0.0, 0.5 * gnorm2 * (1.0 / denom - 1.0 / top))
    expected = (top / a_tilde) ** (k / 2.0) * np.exp(exponent)
    v_tilde = group.value(z_tilde, ALL_BLOCKS)
    if z_warm is not None or gd_steps.any():
        # Otherwise no block moved from a_theta and the quadratic term is zero.
        v_tilde = v_tilde + 0.5 * np.sum((z_tilde - a_theta) ** 2, axis=1) / rho**2
    sigma_prop = 1.0 / np.sqrt(a_tilde)

    # Round 1 proposes for every block through basic slices, which copy
    # nothing; later rounds gather the blocks still pending.
    z = None
    proposals = np.zeros(group.b, dtype=np.int64)
    rows, n_rows = ALL_BLOCKS, group.b
    rounds = 0
    while n_rows:
        if rounds >= proposal_cap:
            first = 0 if z is None else int(rows[0])
            raise AcceptanceStall(
                f"block {first}: no acceptance after {proposal_cap} proposals; "
                "certified (m, M) look wrong"
            )
        rounds += 1
        proposals[rows] = rounds
        center = z_tilde[rows]
        zp = center + sigma_prop[rows, None] * rng.standard_normal((n_rows, k))
        u = rng.uniform(size=n_rows)
        v = group.value(zp, rows) + 0.5 * np.sum((zp - a_theta[rows]) ** 2, axis=1) / rho**2
        log_accept = (log_r[rows] - (v - v_tilde[rows])
                      + 0.5 * a_tilde[rows] * np.sum((zp - center) ** 2, axis=1))
        with np.errstate(divide="ignore"):
            accepted = np.log(u) < log_accept
        if z is None:
            # The rejected rows of z are overwritten when they are accepted.
            z, rows = zp, np.flatnonzero(~accepted)
        else:
            z[rows[accepted]] = zp[accepted]
            rows = rows[~accepted]
        n_rows = rows.size
    return z, proposals, gd_steps, expected

