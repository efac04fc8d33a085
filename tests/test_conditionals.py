"""Exactness of both Gibbs-block samplers and the rejection-efficiency guarantees."""

import gc
import hashlib
import math
import weakref

import numpy as np
import pytest
from scipy import integrate
from scipy.optimize import brentq
from scipy.special import expit
from scipy.stats import ks_2samp, kstest, norm

from splitmc import (
    AcceptanceStall,
    ConstantsContradicted,
    NonConvergence,
    NotSmooth,
    SamplerConfig,
    SplitModel,
    ThetaConditional,
    build_model,
    k_sgs,
    make_quadratic_group,
    model_constants,
    run_chain,
    sample_z_group,
    tv_bound_strongly_convex,
)
from splitmc import conditionals
from splitmc.conditionals import warm_start_group, within_two_guarantee
from splitmc.errors import InvalidParameter, SingularGram
from splitmc.model import ALL_BLOCKS, FactorGroup
from splitmc.zoo import mixture_group

import scalar_reference as reference
from scalar_reference import rejection_quadratic, replicate_block


def scalar_group(value, gradient, m, big_m, big_l=math.inf):
    """One identity-coupled scalar block with no closed form; value and gradient
    map z of shape (r, 1) to shapes (r,) and (r, 1)."""
    return FactorGroup(np.ones((1, 1, 1)), lambda z, rows: value(z), lambda z, rows: gradient(z),
                       m, big_m, big_l)


class TestThetaConditional:
    def test_small_rho_concentrates_on_z(self):
        model = SplitModel(3, [make_quadratic_group(np.eye(3)[None], precision=1.0,
                                                    center=np.zeros(3))])
        cond = ThetaConditional(model, rho=1e-6)
        z = np.array([[0.3, -1.2, 2.0]])
        rng = np.random.default_rng(0)
        draws = cond.sample([z], rng, size=200)
        assert np.abs(draws - z).max() < 1e-4

    def test_toy_strategy1_mean_and_variance(self):
        # theta | z is N(mean of the blocks, rho^2/b).
        model = build_model("toy-gaussian-1", sigma=3.0, b=10)
        rho = 0.7
        cond = ThetaConditional(model, rho)
        rng = np.random.default_rng(1)
        z = rng.standard_normal((10, 1))
        n = 100_000
        draws = cond.sample([z], rng, size=n)[:, 0]
        zbar = float(z.mean())
        var = rho**2 / 10
        se_mean = math.sqrt(var / n)
        assert abs(draws.mean() - zbar) <= 4 * se_mean
        se_var = var * math.sqrt(2.0 / n)
        assert abs(draws.var() - var) <= 4 * se_var

    def test_random_model_covariance(self):
        rng = np.random.default_rng(7)
        factors = [
            make_quadratic_group(rng.standard_normal((2, 5))[None], precision=0.0, center=0.0),
            make_quadratic_group(np.eye(5)[None], precision=1.0, center=np.zeros(5)),
        ]
        model = SplitModel(5, factors)
        rho = 1.3
        cond = ThetaConditional(model, rho)
        z = [rng.standard_normal((1, 2)), rng.standard_normal((1, 5))]
        n = 100_000
        draws = cond.sample(z, rng, size=n)
        target = rho**2 * np.linalg.inv(np.asarray(model.gram))
        sample_cov = np.cov(draws.T)
        for i in range(5):
            for j in range(5):
                se = math.sqrt((target[i, i] * target[j, j] + target[i, j] ** 2) / n)
                assert abs(sample_cov[i, j] - target[i, j]) <= 4 * se

    def test_deterministic_given_seed(self):
        model = build_model("toy-gaussian-1")
        cond = ThetaConditional(model, rho=1.0)
        z = [np.arange(10.0)[:, None]]
        a = cond.sample(z, np.random.default_rng(99))
        b = cond.sample(z, np.random.default_rng(99))
        assert np.array_equal(a, b)

    def test_singular_factor_is_typed(self):
        # A zero on the diagonal of the triangular factor makes LAPACK's
        # trtrs report info > 0, which is a SingularGram, not a ValueError.
        cond = ThetaConditional(build_model("aniso-gaussian", d=3), rho=0.5)
        cond.chol_lower = np.diag([1.0, 0.0, 1.0])
        with pytest.raises(SingularGram, match="LAPACK info 2"):
            cond.sample([np.zeros((1, 3))], np.random.default_rng(0))

    def test_factorization_reproduces_gram(self):
        model = build_model("logistic-split2", d=4, n=24, b=4, seed=1)
        cond = ThetaConditional(model, rho=0.7)
        rebuilt = cond.chol_lower @ cond.chol_lower.T
        assert np.abs(rebuilt - np.asarray(model.gram)).max() <= 1e-10


class TestRejectionSampler:
    def test_quadratic_matches_closed_form_ks(self):
        # U(z) = m z^2/2 makes the coupled conditional Gaussian:
        # mean theta/(rho^2 (m + 1/rho^2)), variance 1/(m + 1/rho^2).
        m, rho, theta = 0.8, 0.6, np.array([1.4])
        n = 100_000
        group = replicate_block(rejection_quadratic(m), 0, n)
        z, _, _, _ = sample_z_group(group, group.couple(theta), rho, np.random.default_rng(12))
        prec = m + 1.0 / rho**2
        mean = theta[0] / (rho**2 * prec)
        result = kstest(z[:, 0], lambda x: norm.cdf(x, loc=mean, scale=1.0 / math.sqrt(prec)))
        assert result.pvalue > 0.01

    def test_exact_warm_start_bound(self):
        # A fresh start A theta at the minimizer of U is the minimizer of V
        # too: the draw descends no step, the proposal matches the target
        # curvature floor and the expected count is the pure ratio.
        m, big_m, rho = 0.5, 2.0, 0.4

        def gradient(z):
            return 0.5 * z + 0.875 / (1.0 + np.exp(-2.0 * z))

        group = scalar_group(
            lambda z: 0.25 * z[:, 0] ** 2 + 0.875 * np.logaddexp(0.0, 2 * z[:, 0]) / 2.0,
            gradient, m, big_m)
        z_star = brentq(lambda z: gradient(np.array([[z]]))[0, 0], -5.0, 5.0, xtol=1e-15)

        def bound_at_mode(group, z_star):
            _, _, steps, expected = sample_z_group(group, np.array([[z_star]]), rho,
                                                   np.random.default_rng(0))
            assert steps[0] == 0
            return expected[0]

        ratio = (1.0 / rho**2 + big_m) / (1.0 / rho**2 + m)
        assert bound_at_mode(group, z_star) == pytest.approx(ratio ** 0.5, rel=1e-6)
        # Equal curvature bounds turn the proposal into the target itself.
        assert bound_at_mode(rejection_quadratic(0.7), 0.0) == pytest.approx(1.0, rel=1e-8)

    def test_expected_bound_below_two_in_guaranteed_regime(self):
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(1000):
            m = rng.uniform(0.0, 2.0)
            big_m = m + rng.uniform(0.0, 3.0)
            d = int(rng.integers(1, 6))
            # Width inside the guaranteed regime.
            cap = 1.0 / max(2.0 * d * (big_m - m) - m, 1e-9)
            rho = math.sqrt(rng.uniform(0.05, 1.0) * min(cap, 4.0))
            group = rejection_quadratic(m, big_m, k=d)
            a_theta = group.couple(rng.standard_normal(d) * 2.0)
            _, gnorm, _ = warm_start_group(group, a_theta, rho)
            if within_two_guarantee(group, gnorm, rho)[0]:
                checked += 1
                _, _, _, expected = sample_z_group(group, a_theta, rho, np.random.default_rng(0))
                assert expected[0] <= 2.0 + 1e-12
        assert checked > 900

    def test_empirical_proposals_match_bound(self):
        m, rho = 0.5, 0.8
        theta = np.array([2.0])
        n = 10_000
        group = replicate_block(rejection_quadratic(m), 0, n)
        _, proposals, _, expected = sample_z_group(group, group.couple(theta), rho,
                                                   np.random.default_rng(8))
        bound = expected[0]
        assert (expected == bound).all()
        se = proposals.std(ddof=1) / math.sqrt(n)
        assert proposals.mean() <= bound + 3 * se

    def test_logistic_factor_ks_against_quadrature_cdf(self):
        model = build_model("logistic-split1", d=3, n=20, seed=5)
        rho = 0.5
        theta = np.full(3, 0.4)
        n = 100_000
        group = replicate_block(model.groups[0], 0, n)
        z, _, _, _ = sample_z_group(group, group.couple(theta), rho, np.random.default_rng(31))
        result = kstest(z[:, 0], _row_cdf(group, theta, rho))
        assert result.pvalue > 0.01

    def test_stall_on_misstated_constants(self):
        # A potential whose certified curvature wildly understates the truth
        # (1e12 z^2 certified with M = 0.05) ends in a typed error, never a
        # hang: the checking draw evaluates the first proposal exactly, and
        # its potential rises far past the bound that 1/rho^2 + M allows.
        values = []

        def value(z):
            values.append(len(z))
            return 1e12 * z[:, 0] ** 2

        lying = scalar_group(value, np.zeros_like, 0.0, 0.05)
        with pytest.raises(ConstantsContradicted, match=r"^block 0: V rose by .* at rho=1 with "
                           r"certified M=0\.05; the certified M is too small$") as refused:
            sample_z_group(lying, np.zeros((1, 1)), 1.0, np.random.default_rng(0))
        assert refused.value.exit_code == 2
        assert values == [1, 1]  # V(z~) and the first proposal: refused in round 1

    def test_stall_outside_the_regime_suggests_a_smaller_rho(self, monkeypatch):
        # The same potential with honest constants (m, M) = (0, 2e12): its
        # certified bound sqrt(1 + rho^2 M) = 1.41e6 exceeds the cap, so the
        # stall is the width leaving the regime, not wrong constants.
        monkeypatch.setattr(conditionals, "PROPOSAL_CAP", 64)
        honest = scalar_group(lambda z: 1e12 * z[:, 0] ** 2, np.zeros_like, 0.0, 2e12)
        with pytest.raises(AcceptanceStall, match=r"after 64 proposals at rho=1, where its "
                           r"certified expected-proposal bound is 1\.41e\+06; the width is "
                           r"outside the sampler's regime, try a smaller rho$") as stall:
            sample_z_group(honest, np.zeros((1, 1)), 1.0, np.random.default_rng(0))
        assert stall.value.exit_code == 3

    def test_stall_within_its_bound_gives_the_chance(self, monkeypatch):
        # U = 1.5 z^2 certified with (m, M) = (0, 3): honest, and quadratic at
        # M, so the exact ratio equals the squeeze's bound and a proposal is
        # accepted with probability 1/B = 1/2. With PROPOSAL_CAP = 3 the
        # stream of seed 1 rejects three times; below the cap the stall
        # blames the constants and gives the chance (1 - 1/B)^3 that correct
        # ones leave it.
        monkeypatch.setattr(conditionals, "PROPOSAL_CAP", 3)
        honest = scalar_group(lambda z: 1.5 * z[:, 0] ** 2, lambda z: 3.0 * z, 0.0, 3.0)
        with pytest.raises(AcceptanceStall, match=r"^block 0: no acceptance after 3 proposals at "
                           r"rho=1, where its certified expected-proposal bound is 2; certified "
                           r"\(m, M\) look wrong: correct ones leave this a chance of at most "
                           r"0\.125$") as stall:
            sample_z_group(honest, np.zeros((1, 1)), 1.0, np.random.default_rng(1))
        assert stall.value.exit_code == 3

    def test_stall_names_first_pending_block(self, monkeypatch):
        # With PROPOSAL_CAP = 1 the sampler stops after the first round and
        # names the first block it rejected. An uncapped draw from the same
        # stream makes the same first round, so its proposal counts tell
        # which blocks were rejected there.
        model = build_model("logistic-split1", d=4, n=200, seed=2)
        (group,) = model.groups
        a_theta = group.couple(np.full(4, 0.3))
        rho = 1.2
        _, proposals, _, _ = sample_z_group(group, a_theta, rho, np.random.default_rng(7))
        rejected = np.flatnonzero(proposals > 1)
        assert rejected.size and rejected[0] > 0
        monkeypatch.setattr(conditionals, "PROPOSAL_CAP", 1)
        with pytest.raises(AcceptanceStall, match=f"^block {rejected[0]}: .* after 1 proposals"):
            sample_z_group(group, a_theta, rho, np.random.default_rng(7))

    def test_understated_curvature_is_typed_nonconvergence(self):
        # U(z) = 5 z^2 certified with M = 1: the descent step 1/(1/rho^2 + M)
        # overshoots and diverges. The descent and the draw stop at the step
        # bound (4 here) with NonConvergence instead of returning nan.
        calls = []

        def gradient(z):
            calls.append(1)
            return 10.0 * z

        steep = scalar_group(lambda z: 5.0 * z[:, 0] ** 2, gradient, 0.5, 1.0)
        rho = 1.0
        a_theta = steep.couple(np.array([3.0]))
        # The bound is computed lazily, after the first step: it still fires
        # at step 4, and no floating-point flag escapes on the way.
        with np.errstate(all="raise"):
            with pytest.raises(NonConvergence, match="block 0: .* step bound 4;"):
                warm_start_group(steep, a_theta, rho)
            assert len(calls) == 5
            calls.clear()
            with pytest.raises(NonConvergence, match="block 0: .* step bound 4;"):
                sample_z_group(steep, a_theta, rho, np.random.default_rng(0))
            assert len(calls) == 5

    def test_descent_without_a_finite_step_bound(self):
        # At kappa = 1 + rho^2 M >= 2^53 the bound's rate log(1/(1 - 1/kappa))
        # is 0, so the bound is inf. U(z) = 100 log cosh z (curvature at most
        # M = 100) from a_theta = 3 takes several steps of 1/(1/rho^2 + M),
        # and the division by the zero rate raises no FloatingPointError.
        rho = 1e8
        flat_top = scalar_group(lambda z: 100.0 * np.log(np.cosh(z[:, 0])),
                                lambda z: 100.0 * np.tanh(z), 0.0, 100.0)
        assert (1.0 + rho**2 * 100.0) >= 2.0**53
        with np.errstate(all="raise"):
            z, gnorm, steps = warm_start_group(flat_top, flat_top.couple(np.array([3.0])), rho)
        assert steps[0] >= 2
        assert gnorm[0] <= conditionals._rho_constants(flat_top, rho).target[0]
        assert np.isfinite(z).all()

    def test_zero_uniforms_accept_in_round_one_without_flags(self):
        # Generator.random returns multiples of 2^-53, so u = 0 is the one
        # uniform whose log needs care: log(u + tiny), tiny the smallest
        # normal double, is finite and far below any log acceptance ratio
        # here, so every block accepts in
        # round 1 and no floating-point flag is raised.
        class ZeroUniforms:
            def __init__(self, seed):
                self._rng = np.random.default_rng(seed)

            def standard_normal(self, shape):
                return self._rng.standard_normal(shape)

            def random(self, n):
                return np.zeros(n)

        for group, theta, rho in [
                (replicate_block(rejection_quadratic(0.8, 1.2), 0, 50), np.array([1.4]), 0.6),
                (build_model("logistic-split2", d=4, n=40, b=4, seed=3).groups[0],
                 np.full(4, 0.3), 0.3)]:
            with np.errstate(all="raise"):
                z, proposals, _, _ = sample_z_group(group, group.couple(theta), rho,
                                                    ZeroUniforms(5))
            assert (proposals == 1).all()
            assert np.isfinite(z).all()

    @pytest.mark.parametrize("bad_block, bad_call", [(1, 2), (2, 3)])
    def test_non_finite_descent_names_block_and_steps(self, bad_block, bad_call):
        # Three scalar blocks U_j(z) = c_j z^2 / 2 from a_theta = 10, rho = 1.
        # Block 0 (c = M = 1) is exact after one step and stops; blocks 1
        # and 2 (c = 0.6) need two. The gradient of bad_block turns NaN at
        # gradient call bad_call (call 1 is the start): after one step,
        # while block 0 stops, or after two, while the pending mask holds
        # block 0 where it stopped.
        curvature = np.array([1.0, 0.6, 0.6])
        calls = []

        def gradient(z, rows):
            calls.append(rows)
            g = curvature[rows, None] * z
            if len(calls) == bad_call:
                g[np.arange(3)[rows] == bad_block] = np.nan
            return g

        group = FactorGroup(np.ones((3, 1, 1)), lambda z, rows: 0.5 * curvature[rows] * z[:, 0]**2,
                            gradient, m=[1.0, 0.5, 0.5], M=1.0)
        a_theta = np.full((3, 1), 10.0)
        steps = bad_call - 1
        with pytest.raises(NonConvergence, match=f"block {bad_block}: .* after {steps} steps"):
            warm_start_group(group, a_theta, 1.0)
        assert len(calls) == bad_call
        assert all(rows is ALL_BLOCKS for rows in calls)

    def test_group_certificates_match_scalar_reference(self):
        # Given theta, warm starts and certificates are deterministic: the
        # group path reproduces the scalar oracle block by block.
        rng = np.random.default_rng(19)
        total_steps = 0
        for model, rho in [(build_model("logistic-split1", d=4, n=40, seed=3), 0.8),
                           (build_model("logistic-split2", d=4, n=40, b=4, seed=3), 0.3)]:
            (group,) = model.groups
            for _ in range(5):
                theta = rng.standard_normal(model.d) * 2.0
                _, proposals, steps, expected = sample_z_group(
                    group, group.couple(theta), rho, np.random.default_rng(0))
                assert (proposals >= 1).all()
                for j in range(group.b):
                    z_tilde, _, ref_steps = reference.warm_start_minimize(
                        group, j, group.a[j] @ theta, rho,
                        reference.gd_stop_threshold(group, j, rho))
                    assert steps[j] == ref_steps
                    ref = reference.expected_proposals_bound(group, j, theta, z_tilde, rho)
                    assert expected[j] == pytest.approx(ref, rel=1e-12)
                total_steps += int(steps.sum())
        assert total_steps > 0

    @pytest.mark.parametrize("case", ["criterion-4 quadratic", "logistic-split2 shard"])
    def test_group_of_one_reproduces_scalar_draws(self, case):
        # sample_z_group on a group of one consumes the stream like the
        # scalar oracle and does the same arithmetic: the same draws,
        # proposal counts and descent steps bit for bit, draw after draw.
        if case == "criterion-4 quadratic":
            source = group = rejection_quadratic(0.8)
            theta, rho, seed, n = np.array([1.4]), 0.6, 1001, 20_000
        else:
            # Shard 0 of five, as a group of one; the oracle reads it in place.
            source = build_model("logistic-split2", d=10, n=200, b=5, seed=0).groups[0]
            group = replicate_block(source, 0, 1)
            m, big_m = float(source.m[0]), float(source.M[0])
            # The edge of the at-most-2-proposals regime.
            rho = 1.0 / math.sqrt(2.0 * source.k * (big_m - m) - m)
            theta, seed, n = np.full(10, 0.5), 7, 3_000
        a_theta = group.couple(theta)
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        total_steps = total_proposals = 0
        for _ in range(n):
            z_ref, ref = reference.sample_z_rejection(source, 0, theta, rho, ref_rng)
            z, proposals, steps, expected = sample_z_group(group, a_theta, rho, rng)
            assert z[0].tobytes() == z_ref.tobytes()
            assert proposals[0] == ref.proposals_used
            assert steps[0] == ref.warm_start_gd_steps
            assert expected[0] == pytest.approx(ref.expected_bound, rel=1e-12)
            total_steps += int(steps[0])
            total_proposals += int(proposals[0])
        assert total_steps > 0
        if case == "logistic-split2 shard":
            assert total_proposals > n

    def test_flat_certificate_at_exact_warm_start(self):
        # Quadratic blocks drawn by rejection whose fresh warm start A_j theta
        # is their center, so the residual gradient is exactly zero: log r is
        # 0 and the bound is the pure curvature ratio (top/s)^(k/2), where
        # the general formulas would give 0/0.
        from splitmc.conditionals import _certificate
        p, c = np.array([0.5, 1.0, 2.0]), np.array([0.3, -1.2, 0.7])
        quad = make_quadratic_group(np.tile(np.eye(3), (4, 1, 1)), precision=p, center=c)
        group = FactorGroup(quad.a, quad.value, quad.gradient, quad.m, quad.M)
        rho = 0.5
        a_theta = group.couple(c)
        z, proposals, steps, expected = sample_z_group(group, a_theta, rho,
                                                       np.random.default_rng(3))
        assert (steps == 0).all() and (proposals >= 1).all() and np.isfinite(z).all()
        top, s = 1.0 / rho**2 + group.M, 1.0 / rho**2 + group.m
        assert expected.tobytes() == ((top / s) ** (3 / 2.0)).tobytes()
        a_tilde, log_r, bound = _certificate(np.zeros(4), 3, s, top)
        assert a_tilde.tobytes() == s.tobytes()
        assert (log_r == 0.0).all()
        assert bound.tobytes() == expected.tobytes()

    def test_non_smooth_refused(self):
        rough = scalar_group(lambda z: np.abs(z[:, 0]), np.sign, 0.0, math.inf, 1.0)
        with pytest.raises(NotSmooth):
            sample_z_group(rough, np.zeros((1, 1)), 0.5, np.random.default_rng(0))
        with pytest.raises(NotSmooth):
            warm_start_group(rough, np.full((1, 1), 0.3), 0.5, 1e-3)
        assert not within_two_guarantee(rough, np.zeros(1), 0.5).any()

    def test_warm_start_step_bound_holds(self):
        # The descent step count respects its contraction-rate ceiling.
        model = build_model("logistic-split2", d=4, n=40, b=4, seed=2)
        (group,) = model.groups
        rng = np.random.default_rng(17)
        for j in range(group.b):
            for _ in range(10):
                theta = rng.standard_normal(4) * 3.0
                rho = float(rng.uniform(0.05, 1.0))
                a_theta = group.couple(theta)
                target = reference.gd_stop_threshold(group, j, rho)
                steps = warm_start_group(group, a_theta, rho)[2][j]
                kappa = (1.0 + rho**2 * group.M[j]) / (1.0 + rho**2 * group.m[j])
                g0 = np.linalg.norm(group.gradient(a_theta, ALL_BLOCKS)[j])
                if g0 > target:
                    bound = math.ceil((math.log(g0) - math.log(target))
                                      / math.log(1.0 / (1.0 - 1.0 / kappa)))
                    assert steps <= bound


def _row_cdf(group, theta, rho):
    """The cdf of a replicated scalar logistic block's conditional, by quadrature on a grid."""
    a_theta = float(group.couple(theta)[0, 0])
    grid = np.linspace(a_theta - 8 * rho, a_theta + 8 * rho, 4001)
    # The replicated group evaluates block 0 on every row it is given.
    logpdf = -(group.value(grid[:, None], ALL_BLOCKS) + 0.5 * (grid - a_theta) ** 2 / rho**2)
    logpdf -= logpdf.max()
    cdf = integrate.cumulative_trapezoid(np.exp(logpdf), grid, initial=0.0)
    cdf /= cdf[-1]
    return lambda x: np.interp(x, grid, cdf)


def recording(group):
    """A copy of group whose value and gradient log the rows argument of every call."""
    calls = {"value": [], "gradient": []}

    def logged(name, fn):
        def call(z, rows):
            calls[name].append(rows)
            return fn(z, rows)
        return call

    copy = FactorGroup(group.a, logged("value", group.value), logged("gradient", group.gradient),
                       group.m, group.M)
    return copy, calls


def _scalar_blocks(curvature, m, nan_call=None, nan_block=None):
    """Scalar blocks U_j(z) = c_j z^2 / 2 certified with M = 1, drawn by rejection.

    The gradient of block nan_block is NaN at gradient call nan_call.
    """
    curvature = np.asarray(curvature, dtype=float)
    calls = []

    def gradient(z, rows):
        calls.append(rows)
        g = curvature[rows, None] * z
        if len(calls) == nan_call:
            g[np.arange(curvature.size)[rows] == nan_block] = np.nan
        return g

    return FactorGroup(np.ones((curvature.size, 1, 1)),
                       lambda z, rows: 0.5 * curvature[rows] * z[:, 0] ** 2, gradient, m=m, M=1.0)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestGroupDescent:
    def _assert_matches_reference(self, group, theta, rho, z_tilde, steps, expected):
        for j in range(group.b):
            ref_z, _, ref_steps = reference.warm_start_minimize(
                group, j, group.a[j] @ theta, rho, reference.gd_stop_threshold(group, j, rho))
            assert steps[j] == ref_steps
            np.testing.assert_allclose(z_tilde[j], ref_z, rtol=1e-12, atol=1e-12)
            ref = reference.expected_proposals_bound(group, j, theta, ref_z, rho)
            assert expected[j] == pytest.approx(ref, rel=1e-12)

    def test_descent_addresses_blocks_by_slice_until_some_stop(self):
        # Uncentered logistic-split2: every block starts above its stop rule,
        # so the descent reads the group through ALL_BLOCKS and gathers
        # nothing. Quadratic blocks of which only block 0 starts off its
        # center: the descent still reads every block through ALL_BLOCKS,
        # and its pending mask keeps the others where they started.
        model = build_model("logistic-split2", d=10, n=200, b=5, seed=4)
        group, calls = recording(model.groups[0])
        rho = 0.2
        theta = np.full(10, 0.3)
        a_theta = group.couple(theta)

        _, proposals, steps, expected = sample_z_group(group, a_theta, rho,
                                                       np.random.default_rng(5))
        assert (steps >= 1).all() and (proposals >= 1).all()
        assert len(calls["gradient"]) == 1 + steps.max()
        assert all(rows is ALL_BLOCKS for rows in calls["gradient"])
        assert calls["value"][0] is ALL_BLOCKS and calls["value"][1] is ALL_BLOCKS
        calls["gradient"].clear()
        z_tilde, _, ws_steps = warm_start_group(group, a_theta, rho)
        assert all(rows is ALL_BLOCKS for rows in calls["gradient"])
        assert (ws_steps == steps).all()
        self._assert_matches_reference(group, theta, rho, z_tilde, steps, expected)

        # Blocks 1.. are centered at A_j theta, where their gradient is zero.
        theta = np.array([0.3, -1.2, 0.7])
        centers = np.tile(theta, (5, 1))
        centers[0] += 1.0
        quad = make_quadratic_group(np.tile(np.eye(3), (5, 1, 1)), precision=[0.5, 1.0, 2.0],
                                    center=centers)
        group, calls = recording(FactorGroup(quad.a, quad.value, quad.gradient, quad.m, quad.M))
        a_theta = group.couple(theta)
        _, proposals, steps, expected = sample_z_group(group, a_theta, rho,
                                                       np.random.default_rng(5))
        assert steps[0] >= 1 and (steps[1:] == 0).all() and (proposals >= 1).all()
        descent = calls["gradient"][1:]
        assert calls["gradient"][0] is ALL_BLOCKS and len(descent) == steps[0]
        assert all(rows is ALL_BLOCKS for rows in descent)
        z_tilde, _, _ = warm_start_group(group, a_theta, rho)
        assert z_tilde[1:].tobytes() == a_theta[1:].tobytes()
        self._assert_matches_reference(group, theta, rho, z_tilde, steps, expected)

    @pytest.mark.parametrize("name, params, rho, step_counts, pinned", [
        # Uncentered chains at theta = 1: partial descents (blocks that
        # start below their stop rule next to blocks that descend) and
        # multi-step ones that stop at different steps.
        ("logistic-split1", {"n": 200}, 1.0, [42, 158],
         "ffc4895afe3e8235f4d07a60f0d8a82d642c95109bca3f636189c152b92b9bfd"),
        ("logistic-split1", {"n": 200}, 3.0, [5, 193, 2],
         "7b25fc121fe7a8006169d5eba200ce64bf764f576b96791f8f38c28183177a52"),
        ("logistic-split2", {"n": 200, "b": 5}, 1.0, [0, 0, 0, 0, 2, 3],
         "9847f99d806022cd789050b76f457a140d905297d7ccaecaae161316e4ac0a06"),
    ])
    def test_logistic_descents_are_pinned(self, name, params, rho, step_counts, pinned):
        (group,) = build_model(name, d=10, seed=0, **params).groups
        z, gnorm, steps = warm_start_group(group, group.couple(np.ones(10)), rho)
        assert np.bincount(steps).tolist() == step_counts
        assert _digest(z, gnorm, steps) == pinned

    def test_descent_with_three_stopping_steps_is_pinned(self):
        # U_j = c_j z^2/2 at rho = 1, M = 1: block 0 is exact after one
        # step, blocks 1 and 2 contract by 0.2 and 0.4 per step, and block
        # 3 starts below its stop rule (2/7) sqrt(1.1).
        group = _scalar_blocks([1.0, 0.6, 0.2, 0.2], m=0.1)
        z, gnorm, steps = warm_start_group(group, np.array([[10.0], [10.0], [10.0], [1.0]]), 1.0)
        assert steps.tolist() == [1, 2, 3, 0]
        assert [v.hex() for v in z[:, 0].tolist()] == [
            "0x1.4000000000000p+2", "0x1.999999999999ap+2", "0x1.0e147ae147ae1p+3",
            "0x1.0000000000000p+0"]
        assert [v.hex() for v in gnorm.tolist()] == [
            "0x0.0p+0", "0x1.eb851eb851ec0p-3", "0x1.0624dd2f1a9e8p-3", "0x1.999999999999ap-3"]

    @pytest.mark.parametrize("group, a_theta, message", [
        # A non-finite start norm, from the gradient and from the coupling.
        (_scalar_blocks([1.0, 0.6, 0.2], m=0.1, nan_call=1, nan_block=1), np.full((3, 1), 10.0),
         "block 1: warm-start gradient norm is nan after 0 steps"),
        (_scalar_blocks([1.0, 0.6, 0.2], m=0.1), np.array([[10.0], [np.inf], [10.0]]),
         "block 1: warm-start gradient norm is inf after 0 steps"),
        # Block 2 understates its curvature 5 as M = 1 and passes its bound:
        # while every block descends, and after block 0 has stopped.
        (_scalar_blocks([1.0, 0.6, 5.0], m=0.5), np.full((3, 1), 3.0),
         "block 2: warm-start descent passed its step bound 3; the certified M looks too small"),
        (_scalar_blocks([1.0, 0.6, 5.0, 0.6], m=0.5), np.array([[3.0], [3.0], [0.1], [30.0]]),
         "block 2: warm-start descent passed its step bound 1; the certified M looks too small"),
    ])
    def test_descent_failures_are_pinned(self, group, a_theta, message):
        with pytest.raises(NonConvergence) as info:
            warm_start_group(group, a_theta, 1.0)
        assert str(info.value) == message

    def test_rho_constants_built_once_per_group_and_rho(self, monkeypatch):
        built = []

        class Counting(conditionals._RhoConstants):
            __slots__ = ()

            def __init__(self, group, rho):
                built.append(rho)
                super().__init__(group, rho)

        monkeypatch.setattr(conditionals, "_RhoConstants", Counting)
        model = build_model("logistic-split2", d=10, n=200, b=5, seed=4)
        report = run_chain(model, SamplerConfig(rho=0.2, sweeps=50), seed=8)
        assert report.sweeps_run == 50 and report.gd_steps_total.sum() > 0
        assert built == [0.2]

    def test_each_rho_gets_its_own_constants(self):
        # A group drawn at two widths holds each width's own constants,
        # equal to a fresh computation, and draws as a group never drawn before.
        model = build_model("logistic-split2", d=10, n=200, b=5, seed=4)
        (group,) = model.groups
        fields = ("s", "top", "target", "log_target", "step", "rate")
        seen = []
        for rho in (0.2, 0.5):
            fresh = conditionals._RhoConstants(group, rho)
            kept = conditionals._rho_constants(group, rho)
            assert kept.rho == rho
            for name in fields:
                assert getattr(kept, name).tobytes() == getattr(fresh, name).tobytes()
            seen.append(kept)
        for name in ("target", "step", "rate"):
            assert (getattr(seen[0], name) != getattr(seen[1], name)).all()
        a_theta = group.couple(np.full(10, 0.3))
        twin = build_model("logistic-split2", d=10, n=200, b=5, seed=4).groups[0]
        for rho in (0.2, 0.5, 0.2):
            drawn = sample_z_group(group, a_theta, rho, np.random.default_rng(3))
            ref = sample_z_group(twin, a_theta, rho, np.random.default_rng(3))
            conditionals._RHO_CONSTANTS.pop(twin)
            for got, want in zip(drawn, ref):
                assert got.tobytes() == want.tobytes()

    def test_constants_do_not_keep_the_group_alive(self):
        model = build_model("logistic-split2", d=4, n=40, b=4, seed=1)
        run_chain(model, SamplerConfig(rho=0.3, sweeps=2), seed=1)
        ref = weakref.ref(model.groups[0])
        assert ref() in conditionals._RHO_CONSTANTS
        del model
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf])
    def test_non_finite_width_is_invalid(self, rho):
        model = build_model("logistic-split2", d=4, n=40, b=4, seed=1)
        (group,) = model.groups
        with pytest.raises(InvalidParameter):
            sample_z_group(group, group.couple(np.zeros(4)), rho, np.random.default_rng(0))
        with pytest.raises(InvalidParameter):
            warm_start_group(group, group.couple(np.zeros(4)), rho)
        with pytest.raises(InvalidParameter):
            ThetaConditional(model, rho)
        with pytest.raises(InvalidParameter):
            SamplerConfig(rho=rho, sweeps=1)
        with pytest.raises(InvalidParameter):
            k_sgs(model, rho)
        with pytest.raises(InvalidParameter):
            tv_bound_strongly_convex(model_constants(model), rho)


def _rows_read(calls, b: int) -> int:
    """How many rows the recorded value calls read, a slice counting as all b."""
    return sum(b if isinstance(rows, slice) else len(rows) for rows in calls["value"])


class TestSqueezedDraws:
    """Draws made after a group's checking draw, where the squeeze tests first."""

    def test_logistic_row_ks_after_the_checking_draw(self):
        # The row of test_logistic_factor_ks_against_quadrature_cdf at
        # rho = 0.5. Its first call is the checking draw, so the law is
        # tested on the second, where the squeeze settles most proposals:
        # value reads about 0.59 rows per block there, against 2.34 in the
        # checking draw.
        model = build_model("logistic-split1", d=3, n=20, seed=5)
        rho, theta, n = 0.5, np.full(3, 0.4), 100_000
        group, calls = recording(replicate_block(model.groups[0], 0, n))
        a_theta = group.couple(theta)
        sample_z_group(group, a_theta, rho, np.random.default_rng(30))
        assert conditionals._rho_constants(group, rho).squeeze
        calls["value"].clear()
        z, _, _, _ = sample_z_group(group, a_theta, rho, np.random.default_rng(31))
        assert _rows_read(calls, n) < n
        result = kstest(z[:, 0], _row_cdf(group, theta, rho))
        assert result.pvalue > 0.01

    def test_shard_ks_against_checking_draws(self):
        # A logistic-split2 shard (k = 10) at the edge of the
        # at-most-2-proposals regime, as in
        # test_group_of_one_reproduces_scalar_draws. Squeezed draws (second
        # calls) against checking draws (first calls, the exact test on every
        # block) from other streams: two-sample KS tests on coordinate 0 and
        # on a fixed random direction.
        source = build_model("logistic-split2", d=10, n=200, b=5, seed=0).groups[0]
        m, big_m = float(source.m[0]), float(source.M[0])
        rho = 1.0 / math.sqrt(2.0 * source.k * (big_m - m) - m)
        theta, n = np.full(10, 0.5), 2_000
        direction = np.random.default_rng(4).standard_normal(10)
        checking, squeezed = [], []
        for rep in range(4):
            group, calls = recording(replicate_block(source, 0, n))
            a_theta = group.couple(theta)
            checking.append(sample_z_group(group, a_theta, rho, np.random.default_rng(100 + rep))[0])
            calls["value"].clear()
            squeezed.append(sample_z_group(group, a_theta, rho, np.random.default_rng(200 + rep))[0])
            assert _rows_read(calls, n) < n
        checking, squeezed = np.concatenate(checking), np.concatenate(squeezed)
        assert ks_2samp(checking[:, 0], squeezed[:, 0]).pvalue > 0.01
        assert ks_2samp(checking @ direction, squeezed @ direction).pvalue > 0.01

    @pytest.mark.parametrize("name, params, rho, squeeze", [
        ("logistic-split1", {"n": 200}, 0.05, True),
        ("logistic-split1", {"n": 200}, 0.5, True),
        ("logistic-split2", {"n": 200, "b": 5}, 0.1, True),
        ("logistic-split2", {"n": 200, "b": 5}, 0.3, False),
    ])
    def test_squeezed_draws_equal_checking_draws(self, name, params, rho, squeeze):
        # The squeeze accepts only what the exact test accepts: a group's
        # second draw equals, bit for bit, the checking draw of a fresh twin
        # on the same stream. Where the checking draw kept the squeeze on,
        # the second draw reads value on fewer rows than the checking draw,
        # which reads every block at least twice (at rho = 0.1 the shards'
        # second draw reads V(z~) and V(Z) of block 2 in one call). The
        # logistic-split2 shards at rho = 0.3 settle under half their
        # proposals by the squeeze, so their second draw tests every
        # proposal exactly again.
        model = build_model(name, d=10, seed=0, **params)
        group, calls = recording(model.groups[0])
        a_theta = group.couple(np.full(10, 0.3))
        sample_z_group(group, a_theta, rho, np.random.default_rng(1))
        assert _rows_read(calls, group.b) >= 2 * group.b
        assert conditionals._rho_constants(group, rho).squeeze is squeeze
        calls["value"].clear()
        drawn = sample_z_group(group, a_theta, rho, np.random.default_rng(2))
        if squeeze:
            assert _rows_read(calls, group.b) < group.b
        else:
            assert _rows_read(calls, group.b) >= 2 * group.b
        twin = build_model(name, d=10, seed=0, **params).groups[0]
        for got, want in zip(drawn, sample_z_group(twin, a_theta, rho, np.random.default_rng(2))):
            assert got.tobytes() == want.tobytes()

    def test_rounding_at_tiny_widths_contradicts_nothing(self):
        # At rho = 1e-10 a proposal's step is about 1e-10 while the blocks sit
        # near 1, so the rounding of Z moves V(Z) - V(z~) by about 1e-6 of
        # itself: the check's tolerance covers it (term top ||Z||^2).
        model = build_model("logistic-split1", d=10, n=200, seed=0)
        (group,) = model.groups
        a_theta = group.couple(np.ones(10))
        for seed in range(3):
            z, proposals, _, _ = sample_z_group(group, a_theta, 1e-10, np.random.default_rng(seed))
            assert np.isfinite(z).all() and (proposals >= 1).all()


def draw_one(group, theta, rho, rng):
    """One closed-form draw of a one-block group's conditional given theta."""
    return group.sampler(group.couple(theta), rho, rng)[0]


class TestClosedFormConditionals:
    def test_mixture_orthogonal_theta_is_balanced(self):
        a = np.array([1.0, 0.0, 0.0, 0.0]) * 0.7
        group = mixture_group(a, m=1.0 - float(a @ a))
        theta = np.array([0.0, 2.0, -1.0, 0.5])  # orthogonal to a
        rho = 0.9
        rng = np.random.default_rng(2)
        n = 40_000
        us = np.empty(n)
        for k in range(n):
            z = draw_one(group, theta, rho, rng)
            us[k] = z[0]
        # Balanced two-component mixture along a: mean of the projection is 0.
        comp_sep = 0.7 * rho**2 / (1.0 + rho**2)
        se = math.sqrt((comp_sep**2 + rho**2 / (1 + rho**2)) / n)
        assert abs(us.mean()) <= 4 * se

    def test_mixture_collapses_for_aligned_theta(self):
        a = np.full(3, 0.4)
        group = mixture_group(a, m=1.0 - float(a @ a))
        theta = 50.0 * a
        rho = 1.0
        rng = np.random.default_rng(4)
        mu1 = (theta + a * rho**2) / (1.0 + rho**2)
        draws = np.array([draw_one(group, theta, rho, rng) for _ in range(2000)])
        assert np.linalg.norm(draws.mean(axis=0) - mu1) <= 0.05

    def test_mixture_projection_chi2_at_plan_width(self):
        # 1e5 conditional draws binned along the mode direction against the
        # analytic two-component density, 40 equal-probability bins, 5% level.
        # The sampler takes leading axes, so all draws come from one call.
        from scipy.stats import chi2 as chi2_dist

        d = 60
        model = build_model("gaussian-mixture", d=d)
        (group,) = model.groups
        a = model.mixture_direction
        na = float(np.linalg.norm(a))
        from splitmc import plan_tv_single
        plan = plan_tv_single(0.5, 1.0, d, 0.1)
        rho = plan.rho
        theta = np.zeros(d)
        rng = np.random.default_rng(9)
        n = 100_000
        a_theta = np.broadcast_to(group.couple(theta), (n, 1, d))
        us = (group.sampler(a_theta, rho, rng)[:, 0] @ a) / na
        shared_sd = math.sqrt(rho**2 / (1.0 + rho**2))
        mu_proj = na * rho**2 / (1.0 + rho**2)

        def proj_cdf(u):
            return 0.5 * (norm.cdf(u, loc=mu_proj, scale=shared_sd)
                          + norm.cdf(u, loc=-mu_proj, scale=shared_sd))

        qs = np.linspace(0.0, 1.0, 41)[1:-1]
        from scipy.optimize import brentq
        edges = [brentq(lambda u, q=q: proj_cdf(u) - q, -10, 10) for q in qs]
        counts = np.histogram(us, bins=np.concatenate([[-np.inf], edges, [np.inf]]))[0]
        expected = n / 40
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < chi2_dist.ppf(0.95, 39)

    @staticmethod
    def assert_gaussian_law(draws, mean, var):
        """Per-coordinate sample mean and variance of (n, ...) draws within 5 SE."""
        n = draws.shape[0]
        assert np.all(np.abs(draws.mean(axis=0) - mean) <= 5 * np.sqrt(var / n))
        assert np.all(np.abs(draws.var(axis=0) - var) <= 5 * var * math.sqrt(2.0 / (n - 1)))

    def test_quadratic_group_law_one_block(self):
        # Diagonal precision P and center c: the coupled conditional is
        # N((P c + a_theta/rho^2)/(P + 1/rho^2), 1/(P + 1/rho^2)) per coordinate.
        p, c = np.array([0.5, 2.0, 1.0]), np.array([1.0, -1.0, 0.5])
        group = make_quadratic_group(np.eye(3)[None], precision=p, center=c)
        theta, rho, n = np.array([0.2, 0.3, -0.4]), 0.8, 100_000
        prec = p + 1.0 / rho**2
        mean = (p * c + theta / rho**2) / prec
        a_theta = group.couple(theta)
        assert np.allclose(group.mode(a_theta, rho)[0], mean, rtol=1e-14, atol=0)
        draws = group.sampler(np.broadcast_to(a_theta, (n, 1, 3)), rho,
                              np.random.default_rng(5))
        self.assert_gaussian_law(draws[:, 0], mean, 1.0 / prec)

    def test_quadratic_group_law_multi_block(self):
        # Four blocks of dimension 2 with their own couplings and centers.
        rng = np.random.default_rng(6)
        p = np.array([0.5, 2.0])
        a = rng.standard_normal((4, 2, 3))
        c = rng.standard_normal((4, 2))
        group = make_quadratic_group(a, precision=p, center=c)
        theta, rho, n = rng.standard_normal(3), 0.6, 100_000
        a_theta = group.couple(theta)
        prec = p + 1.0 / rho**2
        mean = (p * c + a_theta / rho**2) / prec
        assert np.allclose(group.mode(a_theta, rho), mean, rtol=1e-14, atol=0)
        draws = group.sampler(np.broadcast_to(a_theta, (n, 4, 2)), rho, rng)
        self.assert_gaussian_law(draws, mean, np.broadcast_to(1.0 / prec, (4, 2)))

    @staticmethod
    def closed_form_groups():
        rng = np.random.default_rng(8)
        a = rng.standard_normal((4, 2, 3))
        return {
            "quadratic-scalar": lambda: make_quadratic_group(a, precision=0.7,
                                                             center=np.arange(8.0).reshape(4, 2)),
            "quadratic-diagonal": lambda: make_quadratic_group(a, precision=[0.5, 2.0],
                                                               center=0.25),
            "mixture": lambda: mixture_group(np.array([0.3, -0.2, 0.4]), m=0.71),
        }

    @pytest.mark.parametrize("name", ["quadratic-scalar", "quadratic-diagonal", "mixture"])
    def test_rho_constants_follow_the_rho_of_each_draw(self, name):
        # A group keeps the constants of the last rho it drew at; drawing at
        # rho1, rho2 and rho1 again gives the draws of fresh groups, bit for
        # bit, for single chains and for populations on a leading axis.
        make = self.closed_form_groups()[name]
        used = make()
        a_theta = used.couple(np.array([0.4, -1.1, 0.8]))
        population = np.broadcast_to(a_theta, (5,) + a_theta.shape)
        for rho in (0.3, 1.7, 0.3):
            for x in (a_theta, population):
                got = used.sampler(x, rho, np.random.default_rng(3))
                want = make().sampler(x, rho, np.random.default_rng(3))
                assert np.array_equal(got, want)
            if used.mode is not None:
                assert np.array_equal(used.mode(a_theta, rho), make().mode(a_theta, rho))

    @pytest.mark.parametrize("name", ["quadratic-scalar", "quadratic-diagonal"])
    def test_mode_is_the_sampler_under_null_noise(self, name):
        class NullNoise:
            def standard_normal(self, size=None):
                return np.zeros(size)

        group = self.closed_form_groups()[name]()
        a_theta = group.couple(np.array([0.4, -1.1, 0.8]))
        for rho in (0.3, 1.7, 0.3):
            assert np.array_equal(group.sampler(a_theta, rho, NullNoise()),
                                  group.mode(a_theta, rho))

    def test_quadratic_draws_keep_their_formula(self):
        # The per-rho constants are the expressions the draw computed inline.
        p, c = np.array([0.5, 2.0]), np.array([[1.0, -1.0]])
        group = make_quadratic_group(np.eye(2)[None], precision=p, center=c)
        a_theta = np.array([[0.3, 0.9]])
        for rho in (0.6, 2.5):
            shrink = 1.0 / (1.0 + p * rho**2)
            mode = a_theta * shrink + (rho**2 * p * shrink) * c
            noise = np.random.default_rng(4).standard_normal(a_theta.shape)
            assert np.array_equal(group.mode(a_theta, rho), mode)
            assert np.array_equal(group.sampler(a_theta, rho, np.random.default_rng(4)),
                                  mode + noise * np.sqrt(rho**2 * shrink))

    def test_mixture_draws_keep_their_formula(self):
        # The sampler's vecdot, random() and table of +-a rho^2 give the bits
        # of the 3-D dot, uniform() and sign broadcast it replaced, on a single
        # chain, a population and a stride-0 population, across rho changes.
        a = np.array([0.3, -0.2, 0.4, 0.1])
        group = mixture_group(a, m=1.0 - float(a @ a))
        rng = np.random.default_rng(12)
        single = group.couple(rng.standard_normal(4))
        population = rng.standard_normal((2500, 1, 4))
        stride0 = np.broadcast_to(single, (2500, 1, 4))

        def formula(a_theta, rho, rng):
            s = a_theta.dot(a)
            p_first = expit(2.0 * s / (1.0 + rho**2))
            signs = np.where(rng.uniform(size=s.shape) < p_first, 1.0, -1.0)
            mu = (a_theta + signs[..., None] * (a * rho**2)) / (1.0 + rho**2)
            return mu + rng.standard_normal(a_theta.shape) * math.sqrt(rho**2 / (1.0 + rho**2))

        for rho in (0.3, 1.7, 0.3):
            for x in (single, population, stride0):
                got = group.sampler(x, rho, np.random.default_rng(5))
                assert np.array_equal(got, formula(x, rho, np.random.default_rng(5)))

    def test_mixture_gradient_keeps_its_formula(self):
        # The gradient against its tile of a, kept for the last row count,
        # gives the bits of the broadcast expression as the count changes.
        a = np.array([0.3, -0.2, 0.4, 0.1])
        group = mixture_group(a, m=1.0 - float(a @ a))
        rng = np.random.default_rng(13)
        for n in (1, 2500, 1):
            z = 2.0 * rng.standard_normal((n, 4))
            want = z - a + 2.0 * expit(-2.0 * (z @ a))[:, None] * a
            assert np.array_equal(group.gradient(z, ALL_BLOCKS), want)
