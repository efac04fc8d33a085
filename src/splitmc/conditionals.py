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

Each proposal can first be tested against a squeeze, a lower bound on its
log acceptance ratio that the certified curvature bound 1/rho^2 + M gives
without evaluating V_i; only the proposals it leaves open are gathered for
the exact test. Where the squeeze runs, exactness rests on the certified M
as well as on m. The first draw through each kernel (ThetaConditional) is a
checking draw: it tests every block exactly and checks the curvature bound
the squeeze relies on at every proposal (ConstantsContradicted when it
fails). It keeps the squeeze on for later draws only if its certificate says
the squeeze settles at least _SQUEEZE_MIN_SHARE of the proposals. Every
later exact evaluation of a squeezed group checks the bound too.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (AcceptanceStall, ConstantsContradicted, NonConvergence, NotSmooth,
                     SingularGram, check_scale)
from .model import ALL_BLOCKS, FactorGroup, SplitModel

# Warm starts stop once ||grad V_i|| <= (2/7) sqrt(1/rho^2 + m_i) / sqrt(d_i).
_GD_STOP_FACTOR = 2.0 / 7.0

# Added to the uniforms before their log: the smallest normal double, so it
# survives flush-to-zero and gives u = 0 a finite log, and far below half an
# ulp of 2^-53, so it changes no nonzero uniform.
_U_OFFSET = float(np.finfo(float).tiny)

PROPOSAL_CAP = 10_000

# Relative rounding tolerance of the check that a proposal's potential rise
# stays within the certified curvature bound.
_BOUND_RTOL = 1e-9

# The squeeze stays on after a group's checking draw only if the mean over
# its blocks of 1/B, the share of proposals the squeeze settles, is at least
# this: the harmonic mean of the certified bounds B is at most 5/3. It costs
# a few numpy calls a round and saves evaluations of V only on the proposals
# it settles. Toggled on 100 chain states, it breaks even on logistic-split2
# between shares 0.53 and 0.67: the benchmark's shards drew 15% faster with
# it at 0.78 and 9% at 0.66 (a wider rho), b = 5 at rho = 0.2 (0.64) 6%
# faster, b = 10 at rho = 0.3 (0.56) 3-11% slower and at 0.5 (0.26) 6%.
# logistic-split1, whose scalar V is cheap, breaks even above 0.76: 17%
# slower at rho = 3 (0.51), 9% at 1.5 (0.76), 35% faster at share 1.
_SQUEEZE_MIN_SHARE = 0.6


class ThetaConditional:
    """The sweep's kernel at (model, rho): the draw of theta | z and each group's constants.

    Built once per (model, rho); uses the model's lower Cholesky factor L
    of G = sum_i A_i^T A_i = L L^T at every sweep. The mean is two calls,
    SplitModel.assemble (one gemv for a one-group model) and
    SplitModel.solve_gram (LAPACK potrs); the noise is one LAPACK trtrs.
    The mean is also the master step of the sweep's mode twins
    (engine.am_solve, engine.admm_solve). constants holds each group's
    RhoConstants at rho, squeeze gate included (see sample_z_group), or
    None for a group with a closed-form sampler and mode.
    """

    def __init__(self, model: SplitModel, rho: float):
        check_scale(rho)
        self.model = model
        self.rho = float(rho)
        self.chol_lower = model.chol_lower
        self._trtrs = model._trtrs
        self.constants = tuple(None if g.sampler is not None and g.mode is not None
                               else RhoConstants(g, self.rho) for g in model.groups)

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


class RhoConstants:
    """What the group draw and the descent need of a factor group at one rho, per block.

    Holds the group, for sample_z_group, warm_start_group and
    within_two_guarantee. s = 1/rho^2 + m and top = 1/rho^2 + M;
    target = (2/7) sqrt(s/k) is the descent's stop rule and step = 1/top
    its step. The step bound of a block that starts at gradient norm g0 is
    max(1, ceil((log g0 - log_target)/rate)), with rate = log(1/(1 - 1/kappa))
    and kappa = (1 + rho^2 M)/(1 + rho^2 m); rate is inf at kappa = 1 (one
    exact step). squeeze is None until the checking draw through these
    constants returns, then whether later draws test the squeeze first (see
    sample_z_group). ThetaConditional checks rho.
    """

    __slots__ = ("group", "rho", "s", "top", "target", "log_target", "step", "rate", "squeeze")

    def __init__(self, group: FactorGroup, rho: float):
        self.group = group
        self.rho = rho
        self.squeeze = None
        self.s = 1.0 / rho**2 + group.m
        self.top = 1.0 / rho**2 + group.M
        self.target = _GD_STOP_FACTOR * np.sqrt(self.s) / math.sqrt(group.k)
        self.log_target = np.log(self.target)
        self.step = 1.0 / self.top
        kappa = (1.0 + rho**2 * group.M) / (1.0 + rho**2 * group.m)
        with np.errstate(divide="ignore"):
            self.rate = np.log(1.0 / (1.0 - 1.0 / kappa))


def _norms(g: np.ndarray) -> np.ndarray:
    """Row norms; what np.linalg.norm(g, axis=1) computes, without its wrapper."""
    return np.sqrt(_row_sums(g * g))


def warm_start_group(c: RhoConstants, a_theta: np.ndarray, target=None):
    """Gradient descent on V_i with step 1/(1/rho^2 + M_i), every block of a group at once.

    The group and rho are those of its constants c. Descends only the
    blocks still above their target (a scalar, one value per block, or None
    for the rejection draw's stop rule (2/7) sqrt((1/rho^2 + m)/k)); a
    block at or below it keeps its iterate.
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
    if not c.group.smooth:
        raise NotSmooth("warm-start descent needs a finite smoothness constant")
    if target is None:
        target, log_target = c.target, c.log_target
    else:
        target = np.broadcast_to(target, (c.group.b,))
        with np.errstate(divide="ignore"):
            log_target = np.log(target)
    return _descend(c, np.asarray(a_theta, dtype=float), target, log_target)[:3]


def _descend(c: RhoConstants, a_theta: np.ndarray, target, log_target):
    """warm_start_group with the group's constants c at rho = c.rho and the targets resolved.

    Returns warm_start_group's three arrays and, fourth, the gradient of V_i
    at each block's warm start.

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
    group = c.group
    g = group.gradient(a_theta, ALL_BLOCKS)
    gnorm = _norms(g)
    steps = np.zeros(group.b, dtype=np.int64)
    pending = ~(gnorm <= target)
    n_pending = np.count_nonzero(pending)
    if not n_pending:
        return a_theta, gnorm, steps, g
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
            return zp, gnorm_p, steps, gp
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
    """Per-block proposal precision A~, log r, expected-proposal bound and top/A~.

    gnorm is the residual gradient norm g at the warm start; s = 1/rho^2 + m
    and top = 1/rho^2 + M. With g2d = g^2/k,
    A~ = s + g2d/2 - sqrt(g2d^2/4 + s g2d); at k = 1, g2d is g^2 itself and
    g2d/2 is g^2/2. g = 0 makes A~ - s = 0 exactly (flat); log r and the
    bound's exponent have limit 0 there, so one test of A~ - s < 0 over the
    blocks picks the branch. Elsewhere log r = (g^2/2)/(A~ - s), the same
    bits as -(g^2/2)/(s - A~), and the exponent (g^2/2)(1/(s - A~) - 1/top)
    is -log r - g^2/(2 top), the same bits as -(log r + g^2/(2 top)). The
    bound is (top/A~)^(k/2) exp(exponent); top/A~ is returned for the
    squeeze. The arithmetic runs in place, in the formulas' order up to
    commuted sums and products, which keep the bits.
    """
    gnorm2 = gnorm * gnorm
    half_g2 = 0.5 * gnorm2
    if k > 1:
        g2d = np.divide(gnorm2, k, out=gnorm2)
        half_g2d = 0.5 * g2d
    else:
        g2d, half_g2d = gnorm2, half_g2
    root = g2d * g2d
    root *= 0.25
    g2d *= s
    root += g2d
    np.sqrt(root, out=root)
    a_tilde = s + half_g2d
    a_tilde -= root
    neg_denom = np.subtract(a_tilde, s, out=root)
    if neg_denom.max() < 0.0:
        log_r = np.divide(half_g2, neg_denom, out=neg_denom)
        exponent = np.divide(half_g2, top, out=half_g2)
        exponent += log_r
        np.negative(exponent, out=exponent)
    else:
        flat = neg_denom >= 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            log_r = np.where(flat, 0.0, half_g2 / neg_denom)
        exponent = np.where(flat, 0.0, -log_r - half_g2 / top)
    curvature = top / a_tilde
    bound = curvature ** (k / 2.0)
    bound *= np.exp(exponent, out=exponent)
    return a_tilde, log_r, bound, curvature


def sample_z_group(c: RhoConstants, a_theta: np.ndarray, rng):
    """Exact draws of every block of a group from its coupled conditional.

    The group and rho are those of its constants c. The target density of
    block i is proportional to exp(-V_i(z)) with
    V_i(z) = U_i(z) + ||A_i theta - z||^2/(2 rho^2). Proposals
    Z = z~ + A~^{-1/2} xi, xi ~ N(0, I), around the warm start z~ are
    accepted with probability exp(log r - [V_i(Z) - V_i(z~)] + ||xi||^2/2)
    (see _certificate). Under correctly certified constants and the small-rho
    regime the expected number of proposals is at most 2, so a stall
    signals mis-stated constants or a width outside that regime rather than
    bad luck.

    a_theta has shape (b, k). One masked descent (_descend) gives every
    warm start and the gradient of V_i there; then each round proposes
    once for every block still pending, taking the normals xi and then the
    uniforms from rng in block order, and retires the accepted blocks.
    Round 1 reads the per-block fields of the draw (z~, sigma, log r,
    sigma grad V_i(z~) and 1 - top/A~) from the full arrays, which copies
    nothing. The pending set is gathered only when it changes: each time
    blocks retire, the fields of those still pending, with A_i theta and
    V_i(z~), are gathered once and serve every round until the next
    retirement. A round that accepts nothing gathers nothing.

    Each proposal can first be tested against a squeeze (Marsaglia 1977):
    with sigma = A~^{-1/2}, top = 1/rho^2 + M_i, a = top/A~ and
    g = grad V_i(z~), a Hessian of V_i at most top bounds V_i(Z) - V_i(z~)
    by sigma <g, xi> + a ||xi||^2/2, so log u below
    lower = log r - sigma <g, xi> - (a - 1) ||xi||^2/2 accepts without
    evaluating V_i. Only the proposals it leaves open are gathered and go
    through the exact test. Both tests read the same normals and uniforms,
    and up to rounding the squeeze never accepts what the exact test
    rejects, so the draws, proposal counts, descent steps and certificates
    are those of the exact test alone.

    The squeeze settles a proposal of block i with probability exactly
    1/B_i, B_i its certified bound (Devroye 1986, section II.5). Proof: over
    xi, lower is at most log r + ||g||^2/(2 (top - A~)), which is
    (||g||^2/2) (1/(top - A~) - 1/(s - A~)) <= 0 as s <= top (or 0 at g = 0).
    So the chance is E[exp(lower)] = r a^{-k/2} exp(||g||^2/(2 top)), a
    Gaussian integral, and log B_i = (k/2) log a - log r - ||g||^2/(2 top).

    The first draw through each kernel (each RhoConstants) is a checking
    draw: it runs the exact test on every block and, once it returns, sets
    c.squeeze to whether the mean over blocks of 1/B_i is at least
    _SQUEEZE_MIN_SHARE; one that raises leaves it unset. The checking draw
    and every exact evaluation of a squeezed draw check that the exact log
    ratio is at least the squeeze's bound, within a relative rounding
    tolerance _BOUND_RTOL (the two differ by V_i(Z) - V_i(z~) less its
    curvature bound), and raise
    ConstantsContradicted, naming the block, rho and M, when V_i rose
    faster than top allows. An understated M that no exact evaluation
    catches can bias the squeezed draws. A group whose squeeze is off draws
    by the exact test alone, whose exactness does not rest on M, and skips
    the check.

    Round 1 evaluates V_i(z~) and V_i(Z) of the blocks it tests exactly in
    one value call, as two rows per block; value is row by row, so a row's
    bits do not depend on the rows evaluated with it. Later rounds evaluate
    V_i(Z) alone. The proposal term A~ ||Z - z~||^2 / 2 of the acceptance
    ratio is computed as ||xi||^2 / 2. The descent begins at a_theta, where
    the coupling term of the gradient is exactly zero and is left out; the
    coupling term of V_i(z~) is added for every block, exactly zero for one
    that took no descent step. A block accepts when log(u + _U_OFFSET) is
    below its log ratio: the uniforms are multiples of 2^-53, so the offset
    (the smallest normal double) changes no nonzero u and u = 0 gets a
    finite log without an errstate. The proposal counts start at one; a
    block accepted in a later round gets that round's number. Returns (z, proposals, gd_steps,
    expected_bound), the last three per block. Raises AcceptanceStall when
    a block is still pending after PROPOSAL_CAP rounds; the message names
    rho and the block's certified bound B, and blames the width when B
    exceeds the cap and the constants otherwise, giving
    (1 - 1/B)^PROPOSAL_CAP, the most that correct constants leave to
    chance: the squeeze's bound, which the exact ratio passes wherever M
    holds, accepts with probability exactly 1/B.
    """
    group, rho = c.group, c.rho
    if not group.smooth:
        raise NotSmooth("rejection sampling needs a finite smoothness constant")
    a_theta = np.asarray(a_theta, dtype=float)
    z_tilde, gnorm, gd_steps, grad = _descend(c, a_theta, c.target, c.log_target)
    k = group.k
    a_tilde, log_r, expected, curvature = _certificate(gnorm, k, c.s, c.top)
    sigma = np.sqrt(a_tilde)[:, None]
    np.divide(1.0, sigma, out=sigma)
    checking = c.squeeze is None
    squeezing = not checking and c.squeeze
    bounded = checking or squeezing  # the rounds compute the squeeze's lower bound

    # The fields of the pending blocks: the full arrays in round 1, then
    # gathered each time blocks retire. Every block pending after round 1
    # was tested exactly there, so its V(z~) is known.
    zt, sig, lr = z_tilde, sigma, log_r
    if bounded:
        sg = sigma_grad = sigma * grad
        cg = curv_gap = np.subtract(1.0, curvature, out=curvature)
    z = None
    proposals = np.empty(group.b, dtype=np.int64)
    proposals.fill(1)
    rows, n_rows = ALL_BLOCKS, group.b
    rounds = 0
    while True:
        if rounds >= PROPOSAL_CAP:
            first = 0 if z is None else int(rows[0])
            bound = float(expected[first])
            stalled = (f"block {first}: no acceptance after {PROPOSAL_CAP} proposals at "
                       f"rho={rho:.6g}, where its certified expected-proposal bound is {bound:.3g}")
            if bound > PROPOSAL_CAP:
                raise AcceptanceStall(f"{stalled}; the width is outside the sampler's "
                                      "regime, try a smaller rho")
            chance = math.exp(PROPOSAL_CAP * math.log1p(-1.0 / bound)) if bound > 1.0 else 0.0
            raise AcceptanceStall(f"{stalled}; certified (m, M) look wrong: correct ones "
                                  f"leave this a chance of at most {chance:.3g}")
        rounds += 1
        xi = rng.standard_normal((n_rows, k))
        zp = sig * xi
        zp += zt
        log_u = rng.random(n_rows)
        half_xi2 = 0.5 * _row_sums(xi * xi)
        log_u += _U_OFFSET
        np.log(log_u, out=log_u)
        exact = ALL_BLOCKS
        if bounded:
            # The squeeze's lower bound on the log ratio:
            # log r - sigma <grad V(z~), xi> + (1 - top/A~) ||xi||^2/2.
            lower = _row_dots(sg, xi)
            np.subtract(lr, lower, out=lower)
            lower += cg * half_xi2
            if squeezing:
                accepted = log_u < lower
                n_settled = np.count_nonzero(accepted)
                if n_settled:
                    exact = (~accepted).nonzero()[0] if n_settled < n_rows else None
        if exact is not None:
            half_e = half_xi2[exact]
            if z is None:
                # V(z~) and V(Z) of the blocks tested exactly, in one call;
                # dz holds both halves of points less A theta.
                at = np.arange(group.b) if exact is ALL_BLOCKS else exact
                zp_e = zp.take(at, 0)
                points = np.concatenate((z_tilde.take(at, 0), zp_e))
                dz = (points.reshape(2, -1, k) - a_theta.take(at, 0)).reshape(-1, k)
                both = group.value(points, np.concatenate((at, at)))
                both += 0.5 * _row_sums(dz * dz) / rho**2
                vt, v = both[:at.size], both[at.size:]
            else:
                at, vt, zp_e = rows[exact], vt_p[exact], zp[exact]
                dz = zp_e - at_p[exact]
                v = group.value(zp_e, at)
                v += 0.5 * _row_sums(dz * dz) / rho**2
            log_ratio = v - vt
            np.subtract(lr[exact], log_ratio, out=log_ratio)
            log_ratio += half_e
            if bounded:
                # V(Z) - V(z~) less its curvature bound; below the screen,
                # within every tolerance.
                excess = lower[exact] - log_ratio
                if excess.max() > _BOUND_RTOL:
                    _check_rise(c, at, zp_e, v, vt, excess, half_e / a_tilde[at])
            exact_accepted = log_u[exact] < log_ratio
            if exact is ALL_BLOCKS:
                accepted = exact_accepted
            else:
                accepted[exact] = exact_accepted
        n_accepted = n_rows if exact is None else np.count_nonzero(accepted)
        if z is None:
            # The rejected rows of z are overwritten when they are accepted.
            z = zp
            if n_accepted == n_rows:
                break
            # Every block still pending was tested exactly.
            rows, vt_p, accepted = at, vt, exact_accepted
        else:
            if not n_accepted:
                continue
            hit = accepted.nonzero()[0]
            done = rows[hit]
            z[done] = zp.take(hit, 0)
            proposals[done] = rounds
            if n_accepted == n_rows:
                break
        # The pending set changed: gather the fields of the blocks in it.
        keep = ~accepted
        rows, vt_p = rows[keep], vt_p[keep]
        n_rows = rows.size
        zt, sig, lr = z_tilde.take(rows, 0), sigma.take(rows, 0), log_r[rows]
        at_p = a_theta.take(rows, 0)
        if bounded:
            sg, cg = sigma_grad.take(rows, 0), curv_gap[rows]
    if checking:
        # The squeeze settles a proposal of block i with probability 1/B_i;
        # on if their mean is at least _SQUEEZE_MIN_SHARE (np.mean costs more).
        c.squeeze = bool(np.add.reduce(1.0 / expected) >= _SQUEEZE_MIN_SHARE * group.b)
    return z, proposals, gd_steps, expected


def _row_sums(x: np.ndarray) -> np.ndarray:
    """np.add.reduce(x, axis=1), read as column 0 when x has one column (the same bits)."""
    return x[:, 0] if x.shape[1] == 1 else np.add.reduce(x, axis=1)


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.vecdot(x, y), as the product of the columns when they have one (the same bits).

    On one column np.vecdot runs a loop per row: at b = 1000 it costs
    about three times the column product.
    """
    return x[:, 0] * y[:, 0] if x.shape[1] == 1 else np.vecdot(x, y)


def _check_rise(c: RhoConstants, at, zp, v, v_tilde, excess, half_step2) -> None:
    """Raise ConstantsContradicted where V(Z) - V(z~) exceeds its curvature bound.

    The rows at of the group c.group were tested exactly, with proposals zp,
    potentials v = V(Z) and v_tilde = V(z~), half squared step lengths
    half_step2 = ||Z - z~||^2/2 = ||xi||^2/(2 A~) and excess = V(Z) - V(z~)
    - sigma <grad V(z~), xi> - top half_step2. The tolerance is _BOUND_RTOL
    times 1 + |V(Z)| + |V(z~)| + top (half_step2 + ||Z||^2), which bounds the rounding
    of both sides: the last term covers the rounding of Z itself, which
    dominates at small rho, where V's gradient at Z is about top times the
    step. A quadratic block at its certified M meets the bound with
    equality, within that tolerance.
    """
    top = c.top[at]
    tol = _BOUND_RTOL * (1.0 + np.abs(v) + np.abs(v_tilde) + top * (half_step2 + _row_sums(zp * zp)))
    over = excess > tol
    if over.any():
        j = int(over.nonzero()[0][0])
        block = int(at[j])
        raise ConstantsContradicted(
            f"block {block}: V rose by {v[j] - v_tilde[j]:.6g} over a proposal step where "
            f"curvature at most 1/rho^2 + M allows {v[j] - v_tilde[j] - excess[j]:.6g}, at "
            f"rho={c.rho:.6g} with certified M={c.group.M[block]:.6g}; the certified M is too "
            "small")


def within_two_guarantee(c: RhoConstants, gnorm: np.ndarray) -> np.ndarray:
    """Per block: is the draw inside the regime guaranteeing at most 2 expected proposals?

    True, for the group and rho of c, where rho^2 (2 k (M_i - m_i) - m_i) <= 1,
    M_i is finite and the warm-start residual gnorm (per block, as
    warm_start_group returns it) is below the descent's stop rule.
    """
    group = c.group
    narrow = c.rho**2 * (2.0 * group.k * (group.M - group.m) - group.m) <= 1.0
    return narrow & np.isfinite(group.M) & (np.asarray(gnorm) <= c.target)
