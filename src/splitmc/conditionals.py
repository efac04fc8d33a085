"""Exact samplers for the two Gibbs blocks.

The master-parameter conditional is Gaussian with precision G/rho^2 and is
drawn through the model's cached Cholesky factor of G. Each auxiliary block
z_i is drawn either by its factor group's closed-form sampler (the only
closed form of a conditional; see FactorGroup) or by rejection sampling
from a Gaussian proposal centered at an approximate minimizer of
V_i(z) = U_i(z) + ||z - A_i theta||^2 / (2 rho^2).

There is one rejection sampler: all blocks of a factor group are drawn
together with array operations (warm_start_group, sample_z_group), and
_certificate holds the one formula for the proposal precision and the
certified bound on expected proposals. A single block is a group with
b = 1; a law test draws n samples of one block in one call, on a group of
n copies of it.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import AcceptanceStall, NonConvergence, NotSmooth, SingularGram, check_scale
from .model import ALL_BLOCKS, FactorGroup, SplitModel

# Warm starts stop once ||grad V_i|| <= (2/7) sqrt(1/rho^2 + m_i) / sqrt(d_i).
_GD_STOP_FACTOR = 2.0 / 7.0

# Added to the uniforms before their log: the smallest normal double, so it
# survives flush-to-zero and gives u = 0 a finite log, and far below half an
# ulp of 2^-53, so it changes no nonzero uniform.
_U_OFFSET = float(np.finfo(float).tiny)

PROPOSAL_CAP = 10_000


class ThetaConditional:
    """Sampler state for theta | z: mean solve plus pre-factorized noise transform.

    Built once per (model, rho); uses the model's lower Cholesky factor L
    of G = sum_i A_i^T A_i = L L^T at every sweep. The mean is two calls,
    SplitModel.assemble (one gemv for a one-group model) and
    SplitModel.solve_gram (LAPACK potrs); the noise is one LAPACK trtrs.
    The mean is also the master step of the sweep's mode twins
    (engine.am_solve, engine.admm_solve).
    """

    def __init__(self, model: SplitModel, rho: float):
        check_scale(rho)
        self.model = model
        self.rho = float(rho)
        self.chol_lower = model.chol_lower
        self._trtrs = model._trtrs

    def mean(self, z_groups) -> np.ndarray:
        """mu(z) = G^{-1} sum_i A_i^T z_i, with z one (b_g, k_g) array per group."""
        model = self.model
        return model.solve_gram(model.assemble(z_groups))

    def sample(self, z_groups, rng, size: int | None = None) -> np.ndarray:
        """Exact draw(s) from N(mu(z), rho^2 G^{-1}).

        With size=n, returns an (n, d) array of independent draws sharing
        the same conditioning blocks.
        """
        mu = self.mean(z_groups)
        shape = self.model.d if size is None else (self.model.d, size)
        # L^T noise = xi, by LAPACK directly (see SplitModel.solve_gram).
        noise, info = self._trtrs(self.chol_lower, rng.standard_normal(shape), lower=1, trans=1)
        if info != 0:
            raise SingularGram(f"triangular solve failed with LAPACK info {info}")
        if size is None:
            # In place, with the bits of mu + rho * noise: both products and sums commute.
            noise *= self.rho
            noise += mu
            return noise
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


class _RhoConstants:
    """What the group draw needs of a factor group at one rho, per block.

    s = 1/rho^2 + m and top = 1/rho^2 + M; target = (2/7) sqrt(s/k) is the
    descent's stop rule and step = 1/top its step. The step bound of a
    block that starts at gradient norm g0 is
    max(1, ceil((log g0 - log_target)/rate)), with rate = log(1/(1 - 1/kappa))
    and kappa = (1 + rho^2 M)/(1 + rho^2 m); rate is inf at kappa = 1 (one
    exact step).
    """

    __slots__ = ("rho", "s", "top", "target", "log_target", "step", "rate")

    def __init__(self, group: FactorGroup, rho: float):
        check_scale(rho)
        self.rho = rho
        self.s = 1.0 / rho**2 + group.m
        self.top = 1.0 / rho**2 + group.M
        self.target = _GD_STOP_FACTOR * np.sqrt(self.s) / math.sqrt(group.k)
        self.log_target = np.log(self.target)
        self.step = 1.0 / self.top
        kappa = (1.0 + rho**2 * group.M) / (1.0 + rho**2 * group.m)
        with np.errstate(divide="ignore"):
            self.rate = np.log(1.0 / (1.0 - 1.0 / kappa))


# The constants of the last rho each live group was drawn at. Weak keys:
# the map never keeps a model alive.
_RHO_CONSTANTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _rho_constants(group: FactorGroup, rho: float) -> _RhoConstants:
    """group's constants at rho, computed once and kept while the group lives.

    Only the last rho is kept per group: a chain draws at one rho.
    """
    c = _RHO_CONSTANTS.get(group)
    if c is None or c.rho != rho:
        c = _RHO_CONSTANTS[group] = _RhoConstants(group, rho)
    return c


def _norms(g: np.ndarray) -> np.ndarray:
    """Row norms; what np.linalg.norm(g, axis=1) computes, without its wrapper."""
    return np.sqrt(np.add.reduce(g * g, axis=1))


def warm_start_group(group: FactorGroup, a_theta: np.ndarray, rho: float, target=None):
    """Gradient descent on V_i with step 1/(1/rho^2 + M_i), every block of a group at once.

    Descends only the blocks still above their target (a scalar, one value
    per block, or None for the rejection draw's stop rule
    (2/7) sqrt((1/rho^2 + m)/k)); a block at or below it keeps its iterate.
    Returns (z_tilde, gradient norms, steps), all per block; when no block
    starts above its target, z_tilde is a_theta itself, not a copy. The
    descent starts at a_theta, where the coupling term (z - a_theta)/rho^2
    of the gradient is exactly zero, so it is left out there; the
    conditional of z_i depends on theta alone, and so does its start.
    Certified constants keep a block's step count within
    ceil((log ||grad V_i(a_theta)|| - log target) / log(1/(1 - 1/kappa))),
    at least 1, with kappa = (1 + rho^2 M_i)/(1 + rho^2 m_i);
    NonConvergence, naming the first failing block of the group and its
    step count, is raised as soon as a count passes that bound or a
    gradient norm turns non-finite, both signs of an understated M_i.
    """
    if not group.smooth:
        raise NotSmooth("warm-start descent needs a finite smoothness constant")
    c = _rho_constants(group, rho)
    if target is None:
        target, log_target = c.target, c.log_target
    else:
        target = np.broadcast_to(target, (group.b,))
        with np.errstate(divide="ignore"):
            log_target = np.log(target)
    return _descend(group, np.asarray(a_theta, dtype=float), c, target, log_target)


def _descend(group: FactorGroup, a_theta: np.ndarray, c: _RhoConstants, target, log_target):
    """warm_start_group with the group's constants c at rho = c.rho and the targets resolved.

    The group is read through ALL_BLOCKS only, without gathering. Blocks
    still descending share one step counter: the bound check compares it
    with the smallest pending bound, and a block that stops takes it as its
    step count. Every bound is at least 1, so the bounds are computed only
    once some block is still pending after its first step. While every
    block descends, each step's arrays replace the iterate (a_theta is
    never written). Once some block has stopped, or started at or below its
    target, the pending mask keeps the iterate, gradient and norm of the
    others (np.where); their norms, at or below target, are finite, so the
    finiteness check reads every block.
    """
    g = group.gradient(a_theta, ALL_BLOCKS)
    gnorm = _norms(g)
    steps = np.zeros(group.b, dtype=np.int64)
    pending = ~(gnorm <= target)
    n_pending = np.count_nonzero(pending)
    if not n_pending:
        return a_theta, gnorm, steps
    masked = n_pending < group.b
    _check_finite(gnorm, 0)
    z, step, it = a_theta, c.step[:, None], 0
    bound_min = math.inf  # every bound is at least 1: none can fire before the first step
    while True:
        if it >= bound_min:
            j = int(np.flatnonzero(pending & (bound <= it))[0])
            raise NonConvergence(f"block {j}: warm-start descent passed its step bound "
                                 f"{int(bound[j])}; the certified M looks too small")
        zp = z - step * g
        gp = group.gradient(zp, ALL_BLOCKS) + (zp - a_theta) / c.rho**2
        gnorm_p = _norms(gp)
        it += 1
        stop = gnorm_p <= target
        if masked:
            stop &= pending
            keep = pending[:, None]
            zp, gp = np.where(keep, zp, z), np.where(keep, gp, g)
            gnorm_p = np.where(pending, gnorm_p, gnorm)
        n_stop = np.count_nonzero(stop)
        if n_stop == n_pending:
            steps[pending] = it
            return zp, gnorm_p, steps
        if it == 1:  # gnorm still holds the start norms; rate is 0 past kappa = 2^53
            with np.errstate(divide="ignore", invalid="ignore"):
                bound = np.maximum(np.ceil((np.log(gnorm) - log_target) / c.rate), 1.0)
        z, g, gnorm = zp, gp, gnorm_p
        _check_finite(gnorm, it)
        if n_stop:
            steps[stop] = it
            pending &= ~stop
            n_pending -= n_stop
            masked = True
        if n_stop or it == 1:
            bound_min = bound[pending].min()


def _check_finite(gnorm: np.ndarray, it: int) -> None:
    """Raise NonConvergence naming the first block whose gradient norm is not finite."""
    finite = np.isfinite(gnorm)
    if not finite.all():
        j = int(np.flatnonzero(~finite)[0])
        raise NonConvergence(f"block {j}: warm-start gradient norm is {gnorm[j]} after {it} steps")


def _certificate(gnorm: np.ndarray, k: int, s: np.ndarray, top: np.ndarray):
    """Per-block proposal precision A~, log r and expected-proposal bound.

    gnorm is the residual gradient norm g at the warm start; s = 1/rho^2 + m
    and top = 1/rho^2 + M. With g2d = g^2/k,
    A~ = s + g2d/2 - sqrt(g2d^2/4 + s g2d); at k = 1, g2d is g^2 itself and
    g2d/2 is g^2/2. g = 0 makes A~ - s = 0 exactly (flat); log r and the
    bound's exponent have limit 0 there, so one test of A~ - s < 0 over the
    blocks picks the branch. Elsewhere log r = (g^2/2)/(A~ - s), the same
    bits as -(g^2/2)/(s - A~), and the exponent (g^2/2)(1/(s - A~) - 1/top)
    is -log r - g^2/(2 top).
    """
    gnorm2 = gnorm**2
    half_g2 = 0.5 * gnorm2
    g2d = gnorm2 / k if k > 1 else gnorm2
    half_g2d = 0.5 * g2d if k > 1 else half_g2
    a_tilde = s + half_g2d - np.sqrt(0.25 * g2d**2 + s * g2d)
    neg_denom = a_tilde - s
    if neg_denom.max() < 0.0:
        log_r = half_g2 / neg_denom
        exponent = -log_r - half_g2 / top
    else:
        flat = neg_denom >= 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            log_r = np.where(flat, 0.0, half_g2 / neg_denom)
        exponent = np.where(flat, 0.0, -log_r - half_g2 / top)
    return a_tilde, log_r, (top / a_tilde) ** (k / 2.0) * np.exp(exponent)


def sample_z_group(group: FactorGroup, a_theta: np.ndarray, rho: float, rng):
    """Exact draws of every block of a group from its coupled conditional.

    The target density of block i is proportional to exp(-V_i(z)) with
    V_i(z) = U_i(z) + ||A_i theta - z||^2/(2 rho^2). Proposals
    Z = z~ + A~^{-1/2} xi, xi ~ N(0, I), around the warm start z~ are
    accepted with probability exp(log r - [V_i(Z) - V_i(z~)] + ||xi||^2/2)
    (see _certificate). Under correctly certified constants and the small-rho
    regime the expected number of proposals is at most 2, so a stall
    signals mis-stated constants or a width outside that regime rather than
    bad luck.

    a_theta has shape (b, k). One masked descent (warm_start_group) gives
    every warm start; then each round proposes once for every block still
    pending, taking the normals xi and then the uniforms from rng in block
    order, and retires the accepted blocks. The proposal term
    A~ ||Z - z~||^2 / 2 of the acceptance ratio is computed as
    ||xi||^2 / 2. The descent begins at a_theta, where the coupling term of
    the gradient is exactly zero and is left out, as is the coupling term
    of V_i(z~) when no block took a descent step (the descent then returns
    a_theta itself). The constants that depend only on (group, rho) are
    looked up once per call and kept for the group's lifetime; the descent
    and the first round address the blocks through basic slices. When
    every block accepts in round one, that round's proposals are returned
    as they are; otherwise the blocks still pending are gathered. A block
    accepts when log(u + _U_OFFSET) < log_accept: the uniforms are
    multiples of 2^-53, so the offset (the smallest normal double) changes
    no nonzero u and u = 0 gets a finite log without an errstate. The
    proposal counts start at one and are written from round 2 on. Returns
    (z, proposals, gd_steps, expected_bound), the last three per block.
    Raises AcceptanceStall when a block is still pending after
    PROPOSAL_CAP rounds; the message names rho and the block's certified
    bound, and blames the width when that bound exceeds the cap and the
    constants otherwise.
    """
    if not group.smooth:
        raise NotSmooth("rejection sampling needs a finite smoothness constant")
    c = _rho_constants(group, rho)
    a_theta = np.asarray(a_theta, dtype=float)
    z_tilde, gnorm, gd_steps = _descend(group, a_theta, c, c.target, c.log_target)
    k = group.k
    a_tilde, log_r, expected = _certificate(gnorm, k, c.s, c.top)
    v_tilde = group.value(z_tilde, ALL_BLOCKS)
    if z_tilde is not a_theta:
        # Some block descended; otherwise the quadratic term is zero.
        dz = z_tilde - a_theta
        v_tilde = v_tilde + 0.5 * np.add.reduce(dz * dz, axis=1) / rho**2
    sigma_prop = 1.0 / np.sqrt(a_tilde)

    # Round 1 proposes for every block through basic slices, which copy
    # nothing; later rounds gather the blocks still pending.
    z = None
    proposals = np.ones(group.b, dtype=np.int64)
    rows, n_rows = ALL_BLOCKS, group.b
    rounds = 0
    while n_rows:
        if rounds >= PROPOSAL_CAP:
            first = 0 if z is None else int(rows[0])
            bound = float(expected[first])
            stalled = (f"block {first}: no acceptance after {PROPOSAL_CAP} proposals at "
                       f"rho={rho:.6g}, where its certified expected-proposal bound is {bound:.3g}")
            if bound > PROPOSAL_CAP:
                raise AcceptanceStall(f"{stalled}; the width is outside the sampler's "
                                      "regime, try a smaller rho")
            raise AcceptanceStall(f"{stalled}; certified (m, M) look wrong")
        rounds += 1
        if z is not None:
            proposals[rows] = rounds
        xi = rng.standard_normal((n_rows, k))
        zp = z_tilde[rows] + sigma_prop[rows, None] * xi
        u = rng.random(n_rows)
        dz = zp - a_theta[rows]
        v = group.value(zp, rows) + 0.5 * np.add.reduce(dz * dz, axis=1) / rho**2
        log_accept = log_r[rows] - (v - v_tilde[rows]) + 0.5 * np.add.reduce(xi * xi, axis=1)
        accepted = np.log(u + _U_OFFSET) < log_accept
        if z is None:
            if accepted.all():
                return zp, proposals, gd_steps, expected
            # The rejected rows of z are overwritten when they are accepted.
            z, rows = zp, np.flatnonzero(~accepted)
        else:
            z[rows[accepted]] = zp[accepted]
            rows = rows[~accepted]
        n_rows = rows.size
    return z, proposals, gd_steps, expected


def within_two_guarantee(group: FactorGroup, gnorm: np.ndarray, rho: float) -> np.ndarray:
    """Per block: is the draw inside the regime guaranteeing at most 2 expected proposals?

    True where rho^2 (2 k (M_i - m_i) - m_i) <= 1, M_i is finite and the
    warm-start residual gnorm (per block, as warm_start_group returns it)
    is below the descent's stop rule.
    """
    narrow = rho**2 * (2.0 * group.k * (group.M - group.m) - group.m) <= 1.0
    return narrow & np.isfinite(group.M) & (np.asarray(gnorm) <= _rho_constants(group, rho).target)
