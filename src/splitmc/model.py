"""Composite potentials U(theta) = sum_i U_i(A_i theta) with certified constants.

A model is a list of factors (A_i, U_i), and FactorGroup is the one type
that holds them: b blocks of one dimension with a stacked coupling matrix
and array-valued potentials, so that everything done to all blocks runs as
array operations. A single factor is a group with b = 1. Each block
carries its strong-convexity constant m and gradient-Lipschitz constant M
(may be inf); the constants are user-certified inputs, validated only by
spot finite-difference checks in the test suite.

Models are immutable after construction and safe to share across chains.
"""

from __future__ import annotations

import copy
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cholesky, get_lapack_funcs

from .errors import (
    DimensionMismatch,
    InvalidParameter,
    NonConvergence,
    NotSmooth,
    NotStronglyConvex,
    SingularGram,
    UnsupportedModel,
)
from .numerics import lambda_extremes

ALL_BLOCKS = slice(None)


class FactorGroup:
    """b coupling blocks of one dimension k whose conditionals are drawn together.

    a has shape (b, k, d): block j couples through the (k, d) matrix a[j].
    value(z, rows) and gradient(z, rows) evaluate the potentials of the
    blocks selected by rows (an index array or a slice into the group) at the
    matching rows of z, of shape (r, k); value returns shape (r,), gradient
    (r, k), each a new array (the warm-start descent updates the gradient
    in place). Both work row by row: a row's result does not depend on the
    other rows of the call, which may repeat a block (the rejection sampler
    evaluates V at two points of a block in one call). m and M hold the certified constants of every block.
    sampler(a_theta, rho, rng) / mode(a_theta, rho), when present, draw from
    or minimize every block's coupled conditional at once, with a_theta of
    shape (b, k); they are the only closed forms of a conditional. Groups
    without them go through the rejection sampler and the warm-start descent,
    which need smooth, i.e. every M finite.

    recenter(a_theta_star, off), when present, returns the group whose
    blocks selected by the boolean mask off carry the potential
    U_j(z) - <grad U_j(a_theta_star[j]), z> (up to a constant per block),
    as a group of the same family: same kernels, same closed forms, the
    same coupling a and the same m and M, since a linear tilt changes no
    curvature. center_model calls it, and relies on that contract: the
    centered model keeps its parent's Gram matrix, Cholesky factor and
    aggregate constants instead of computing them again, and refuses a
    group whose coupling or m, M differ.
    """

    def __init__(self, a, value, gradient, m, M, sampler=None, mode=None, recenter=None):
        a = np.array(a, dtype=float)
        if a.ndim != 3 or 0 in a.shape:
            raise DimensionMismatch(f"group coupling has shape {a.shape}, expected (b, k, d)")
        a.setflags(write=False)
        b = a.shape[0]
        m, M = (np.broadcast_to(np.asarray(c, dtype=float), (b,)).copy() for c in (m, M))
        # Both comparisons are false for NaN, so a NaN constant is refused too.
        if not (m >= 0).all():
            raise InvalidParameter("constants must be nonnegative")
        bad = np.flatnonzero(~(m <= M * (1 + 1e-12)))
        if bad.size:
            j = int(bad[0])
            raise InvalidParameter(f"block {j}: m={m[j]} exceeds M={M[j]}")
        for c in (m, M):
            c.setflags(write=False)
        self.smooth = bool(np.isfinite(M).all())
        self.a = a
        self.a_flat = a.reshape(-1, a.shape[2])
        self.value = value
        self.gradient = gradient
        self.m, self.M = m, M
        self.sampler = sampler
        self.mode = mode
        self.recenter = recenter

    @property
    def b(self) -> int:
        return self.a.shape[0]

    @property
    def k(self) -> int:
        return self.a.shape[1]

    @property
    def d(self) -> int:
        return self.a.shape[2]

    @cached_property
    def _block_shape(self) -> tuple[int, int]:
        return self.a.shape[:2]

    def couple(self, theta: np.ndarray) -> np.ndarray:
        """A_j theta for every block, shape (b, k)."""
        # ndarray.dot calls the same BLAS gemv as @, with less dispatch.
        return self.a_flat.dot(theta).reshape(self._block_shape)


class SplitModel:
    """Ambient dimension d plus an ordered list of factor groups.

    factors is a sequence of FactorGroups; blocks are numbered group by
    group. The stacked matrix [A_1; ...; A_b] must have rank d, i.e. the
    Gram matrix G = sum_i A_i^T A_i must be positive definite; this is
    checked once at construction, and the lower Cholesky factor chol_lower
    (G = L L^T) is cached for every master solve and master-draw noise
    transform. The constants of model_constants are computed on first use
    and kept with the model.
    """

    def __init__(self, d: int, factors):
        groups = tuple(factors)
        if not groups:
            raise InvalidParameter("a model needs at least one factor")
        for g in groups:
            if g.d != d:
                raise DimensionMismatch(
                    f"factor matrix has {g.d} columns, model dimension is {d}"
                )
        self.d = int(d)
        self.groups = groups
        self.m = np.concatenate([g.m for g in groups])
        self.M = np.concatenate([g.M for g in groups])
        self.m.setflags(write=False)
        self.M.setflags(write=False)
        # Every group draws its conditional in closed form: no rejection draws.
        self.closed_form = all(g.sampler is not None for g in groups)
        # Refused before the Gram product, which would warn on NaN or inf.
        if not all(np.isfinite(g.a).all() for g in groups):
            raise SingularGram("stacked coupling matrix is not finite")
        # A finite coupling can still overflow its Gram matrix, which is
        # refused just below, and the factorization does not check for NaN:
        # it would return a NaN factor.
        with np.errstate(over="ignore", invalid="ignore"):
            gram = self.weighted_gram(np.ones(self.b))
        gram.setflags(write=False)
        self.gram = gram
        if not np.isfinite(gram).all():
            raise SingularGram("the Gram matrix of the stacked coupling is not finite")
        try:
            self.chol_lower = cholesky(gram, lower=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise SingularGram("stacked coupling matrix is rank deficient") from exc
        # LAPACK's Cholesky and triangular solves, called directly: cho_solve's
        # argument checks cost more than the solve itself at the sizes a sweep
        # uses. The master draw (ThetaConditional) uses trtrs.
        self._potrs, self._trtrs = get_lapack_funcs(("potrs", "trtrs"), (self.chol_lower,))
        self._constants = None

    def _tilted(self, groups) -> SplitModel:
        """This model with each group replaced by a tilt of it (FactorGroup.recenter).

        A tilt keeps the coupling and (m, M), so the tilted model is a
        shallow copy of this one: it shares the Gram matrix, Cholesky factor,
        LAPACK handles, constants and every other attribute rather than
        rebuilding them. A group whose coupling or constants differ from
        the group it replaces is refused.
        """
        for j, (old, new) in enumerate(zip(self.groups, groups)):
            if new is not old and not (np.array_equal(new.a, old.a)
                                       and np.array_equal(new.m, old.m)
                                       and np.array_equal(new.M, old.M)):
                raise UnsupportedModel(f"the recenter hook of factor group {j} changed "
                                       "its coupling or constants")
        tilted = copy.copy(self)
        tilted.groups = tuple(groups)
        tilted.closed_form = all(g.sampler is not None for g in groups)
        return tilted

    @property
    def b(self) -> int:
        return len(self.m)

    @property
    def block_dims(self) -> tuple[int, ...]:
        return tuple(np.repeat([g.k for g in self.groups], [g.b for g in self.groups]).tolist())

    def _check_theta(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.d,):
            raise DimensionMismatch(f"theta has shape {theta.shape}, expected ({self.d},)")
        return theta

    def potential(self, theta: np.ndarray) -> float:
        """U(theta) = sum_i U_i(A_i theta)."""
        theta = self._check_theta(theta)
        return float(sum(np.sum(g.value(g.couple(theta), ALL_BLOCKS)) for g in self.groups))

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        """grad U(theta) = sum_i A_i^T grad U_i(A_i theta)."""
        theta = self._check_theta(theta)
        return self.assemble([g.gradient(g.couple(theta), ALL_BLOCKS) for g in self.groups])

    def weighted_gram(self, weights) -> np.ndarray:
        """sum_i w_i A_i^T A_i for one weight per block, symmetrized."""
        out = np.zeros((self.d, self.d))
        start = 0
        for g in self.groups:
            w = np.repeat(np.asarray(weights[start:start + g.b], dtype=float), g.k)
            out += g.a_flat.T @ (w[:, None] * g.a_flat)
            start += g.b
        return 0.5 * (out + out.T)

    def assemble(self, z_groups) -> np.ndarray:
        """sum_i A_i^T z_i, with z given as one (b_g, k_g) array per group."""
        if len(self.groups) == 1:
            (z,) = z_groups
            return self.groups[0].a_flat.T.dot(z.reshape(-1))
        s = np.zeros(self.d)
        for g, z in zip(self.groups, z_groups):
            s += g.a_flat.T.dot(z.reshape(-1))
        return s

    def solve_gram(self, rhs: np.ndarray) -> np.ndarray:
        """G^{-1} rhs through the cached Cholesky factor, for rhs of shape (d,) or (d, n)."""
        try:
            x, info = self._potrs(self.chol_lower, rhs, lower=1)
            if x.ndim > 2:  # potrs folds the trailing axes of rhs into n
                raise ValueError("more than two axes")
        except ValueError as exc:
            # The length is checked only here: a shape check before every
            # solve costs more than a third of the solve at the sizes a sweep uses.
            if np.ndim(rhs) <= 2 and np.shape(rhs)[:1] == (self.d,):
                raise
            raise DimensionMismatch(f"right-hand side has shape {np.shape(rhs)}, "
                                    f"expected ({self.d},) or ({self.d}, n)") from exc
        if info != 0:
            raise SingularGram(f"Cholesky solve failed with LAPACK info {info}")
        return x


@dataclass(frozen=True)
class Minimizer:
    theta_star: np.ndarray
    grad_norm: float
    iterations: int


@dataclass(frozen=True)
class ModelConstants:
    """Aggregate constants of a model, consumed by planners and bias bounds."""

    d: int
    b: int
    dims: tuple[int, ...]
    m_list: tuple[float, ...]
    M_list: tuple[float, ...]
    m_U: float                 # lambda_min(sum_i m_i A_i^T A_i)
    sigma2_U: float            # ||A^T A|| (max_i M_i)^2 / m_U
    gram_norm: float           # ||A^T A|| = lambda_max(G)
    lambda_max_M: float        # lambda_max(sum_i M_i A_i^T A_i)
    log_det_ratio: float       # log det(sum M_i A_i^T A_i) - log det(sum m_i A_i^T A_i)

    @property
    def sum_dims(self) -> int:
        return int(sum(self.dims))

    @property
    def sum_dims_M(self) -> float:
        return float(sum(map(operator.mul, self.dims, self.M_list)))

    @property
    def max_M(self) -> float:
        return max(self.M_list)


def model_constants(model: SplitModel) -> ModelConstants:
    """Spectral aggregates of a model: m_U, sigma^2_U, norms and det ratios.

    Computed once per model and kept with it (models are immutable); a
    centered model carries its parent's (see center_model).
    """
    if model._constants is None:
        model._constants = _compute_constants(model)
    return model._constants


def _compute_constants(model: SplitModel) -> ModelConstants:
    d = model.d
    weighted_m = model.weighted_gram(model.m)
    weighted_M = model.weighted_gram(np.where(np.isfinite(model.M), model.M, 0.0))

    m_U = lambda_extremes(weighted_m)[0]
    if m_U < 0:
        m_U = 0.0
    gram_norm = lambda_extremes(model.gram)[1]
    max_M = float(model.M.max())

    if m_U > 0.0 and math.isfinite(max_M):
        try:
            sigma2_U = gram_norm * max_M**2 / m_U
        except OverflowError:  # max_M^2 is beyond the double range, and so is sigma2_U
            sigma2_U = math.inf
        sign_M, logdet_M = np.linalg.slogdet(weighted_M)
        sign_m, logdet_m = np.linalg.slogdet(weighted_m)
        log_det_ratio = float(logdet_M - logdet_m) if sign_M > 0 and sign_m > 0 else math.inf
        lambda_max_M = lambda_extremes(weighted_M)[1]
    else:
        sigma2_U = math.inf
        log_det_ratio = math.inf
        lambda_max_M = lambda_extremes(weighted_M)[1] if math.isfinite(max_M) else math.inf

    return ModelConstants(
        d=d,
        b=model.b,
        dims=model.block_dims,
        m_list=tuple(model.m.tolist()),
        M_list=tuple(model.M.tolist()),
        m_U=float(m_U),
        sigma2_U=float(sigma2_U),
        gram_norm=float(gram_norm),
        lambda_max_M=float(lambda_max_M),
        log_det_ratio=log_det_ratio,
    )


def find_minimizer(model: SplitModel, tol: float | None = None,
                   theta0: np.ndarray | None = None) -> Minimizer:
    """Safeguarded Barzilai-Borwein gradient descent to the global minimizer of U.

    The first step, and every fallback, has the certified length 1/L with
    L = lambda_max(sum_i M_i A_i^T A_i). Such a step contracts the gradient
    norm by at least q = 1 - m_U/L, since grad U(x - grad U/L) equals
    (I - H/L) grad U for an average Hessian H between m_U and L. Every
    other step first tries the two-point length s^T s / s^T y of the last
    step s and gradient change y (Barzilai & Borwein 1988), and keeps it only
    if it contracts the gradient norm by q as well; otherwise it takes the
    certified step from the same point. So every step taken contracts by q,
    as in plain gradient descent. Stops at ||grad U|| <= tol (default 1e-10
    (1 + ||grad U(0)||)), or raises NonConvergence after
    ceil(10 kappa log(1/min(tol, 1/2))) steps or at a non-finite gradient.
    Raises NotSmooth, before the constants are computed, if a group is not smooth.
    """
    if not all(group.smooth for group in model.groups):
        raise NotSmooth("minimizer search needs finite smoothness constants; "
                        "supply theta_star directly for non-smooth potentials")
    consts = model_constants(model)
    if consts.m_U <= 0.0:
        raise NotStronglyConvex(
            "aggregate strong convexity is zero; add a quadratic regularizer first"
        )
    theta = np.zeros(model.d) if theta0 is None else np.array(theta0, dtype=float)
    g = model.gradient(theta)
    if tol is None:
        g0 = g if theta0 is None else model.gradient(np.zeros(model.d))
        tol = 1e-10 * (1.0 + float(np.linalg.norm(g0)))
    kappa = consts.lambda_max_M / consts.m_U
    cap = max(1, int(math.ceil(10.0 * kappa * math.log(1.0 / min(tol, 0.5)))))
    step = 1.0 / consts.lambda_max_M
    rate = 1.0 - consts.m_U / consts.lambda_max_M

    def step_from(length):
        theta_new = theta - length * g
        g_new = model.gradient(theta_new)
        return theta_new, g_new, float(np.linalg.norm(g_new))

    it = 0
    gnorm = float(np.linalg.norm(g))
    s = y = None
    # Understated constants make the search diverge, often into overflow
    # before the cap: that ends in NonConvergence, without warnings on the way.
    with np.errstate(over="ignore", invalid="ignore"):
        while not gnorm <= tol:
            if not (it < cap and math.isfinite(gnorm)):
                raise NonConvergence(f"gradient norm {gnorm} after {it} iterations (tol {tol})")
            nxt = None
            if s is not None and (sy := float(s @ y)) > 0.0:
                nxt = step_from(float(s @ s) / sy)
                if not nxt[2] <= rate * gnorm:
                    nxt = None
            if nxt is None:
                nxt = step_from(step)
            s, y = nxt[0] - theta, nxt[1] - g
            theta, g, gnorm = nxt
            it += 1
    return Minimizer(theta_star=theta, grad_norm=gnorm, iterations=it)


def center_model(model: SplitModel, theta_star: np.ndarray) -> SplitModel:
    """Tilt each factor by a linear term so its gradient vanishes at A_i theta_star.

    U_i(z) -> U_i(z) - <z, grad U_i(A_i theta_star)>. The total potential
    changes only by a theta-linear term whose gradient is grad U(theta_star),
    which is ~0 when theta_star is a minimizer; m, M, L are unchanged. Each
    group re-parametrizes its own blocks through its recenter hook (see
    FactorGroup), so the centered kernels cost what the raw ones do and
    closed forms survive. Blocks whose gradient norm is within 1e-12 are left
    as they are, and groups whose blocks all are are returned untouched,
    which makes the operation idempotent. Raises UnsupportedModel for a
    group with blocks to tilt and no recenter hook.

    The centered model shares its parent's Gram matrix, Cholesky factor and
    model_constants, which a tilt leaves as they are (SplitModel._tilted).
    """
    theta_star = np.asarray(theta_star, dtype=float)
    if theta_star.shape != (model.d,):
        raise DimensionMismatch("theta_star has the wrong length")
    new_groups = []
    for g in model.groups:
        a_star = g.couple(theta_star)
        off = np.linalg.norm(g.gradient(a_star, ALL_BLOCKS), axis=1) > 1e-12
        if not off.any():
            new_groups.append(g)
            continue
        if g.recenter is None:
            j = int(np.flatnonzero(off)[0])
            raise UnsupportedModel(f"block {j} needs centering, and its factor group "
                                   "has no recenter hook")
        new_groups.append(g.recenter(a_star, off))
    return model._tilted(new_groups)


def max_factor_gradient_at(model: SplitModel, theta_star: np.ndarray) -> float:
    """max_i ||grad U_i(A_i theta_star)||, the centering residual."""
    theta_star = np.asarray(theta_star, dtype=float)
    return max(
        float(np.linalg.norm(g.gradient(g.couple(theta_star), ALL_BLOCKS), axis=1).max())
        for g in model.groups
    )


# ---------------------------------------------------------------------------
# Quadratic factors with exact Gaussian conditionals


def make_quadratic_group(a, precision, center) -> FactorGroup:
    """Stacked Gaussian blocks (1/2)(z - c_j)^T P (z - c_j) with exact conditionals.

    a has shape (b, k, d); P is one scalar or diagonal (shape (k,))
    precision shared by all blocks; center broadcasts to (b, k). The
    coupled conditional is Gaussian with precision P + I/rho^2: with
    shrink = 1/(1 + rho^2 P), its mean is shrink (a_theta + rho^2 P c) and
    its variance rho^2 shrink. The constants that depend on rho alone
    (shrink, the noise scale sqrt(rho^2 shrink) and rho^2 P shrink c) are
    computed at the first draw at a rho and kept for the last rho only, as
    a chain draws at one rho. The sampler is the mode plus scaled noise,
    so null noise turns it into the mode bit for bit, and it accepts any
    leading axes in front of the (b, k) block axes. Centering moves the
    center of a tilted block to A_j theta* on the coordinates where P > 0
    (the tilt is zero on the others): U_j(z) - <P (A_j theta* - c_j), z>
    is (1/2)(z - A_j theta*)^T P (z - A_j theta*) plus a constant.
    """
    a = np.asarray(a, dtype=float)
    p = np.asarray(precision, dtype=float)
    if p.ndim > 1 or (p < 0).any():
        raise InvalidParameter("group precision must be a nonnegative scalar or diagonal")
    m, M = p.min(), p.max()
    # A Python float and a contiguous center keep the arithmetic cheap at the
    # small block sizes of a chain; the values are the same.
    p = float(p) if p.ndim == 0 else p
    c = np.array(np.broadcast_to(np.asarray(center, dtype=float), a.shape[:2]))

    def value(z, rows):
        return 0.5 * np.sum(p * (z - c[rows]) ** 2, axis=1)

    def gradient(z, rows):
        return p * (z - c[rows])

    at_rho = (None,)

    def constants(rho):
        """(rho, shrink, noise scale, rho^2 P shrink c), computed once per rho."""
        nonlocal at_rho
        if at_rho[0] != rho:
            shrink = 1.0 / (1.0 + p * rho**2)
            at_rho = (rho, shrink, np.sqrt(rho**2 * shrink), (rho**2 * p * shrink) * c)
        return at_rho

    # In-place updates save two temporaries per draw on chain populations.
    def mode(a_theta, rho):
        _, shrink, _, offset = constants(rho)
        z = a_theta * shrink
        z += offset
        return z

    def sampler(a_theta, rho, rng):
        noise = rng.standard_normal(a_theta.shape)
        noise *= constants(rho)[2]
        z = mode(a_theta, rho)
        z += noise
        return z

    def recenter(a_theta_star, off):
        moved = off[:, None] & (p > 0)
        return make_quadratic_group(a, p, np.where(moved, a_theta_star, c))

    return FactorGroup(a, value, gradient, m=m, M=M, sampler=sampler, mode=mode,
                       recenter=recenter)
