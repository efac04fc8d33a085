"""Exactness of both Gibbs-block samplers and the rejection-efficiency guarantees."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import kstest, norm

from splitmc import (
    AcceptanceStall,
    NonConvergence,
    NotSmooth,
    SplitModel,
    ThetaConditional,
    build_model,
    expected_proposals_bound,
    make_quadratic_group,
    sample_z_group,
    sample_z_rejection,
)
from splitmc.conditionals import gd_stop_threshold, warm_start_minimize, within_two_guarantee
from splitmc.model import FactorGroup, Potential, SplitFactor
from splitmc.zoo import mixture_group


def scalar_quadratic_factor(m, a=1.0, center=0.0):
    return SplitFactor(a=np.array([[a]]),
                       potential=Potential(
                           dim=1,
                           value=lambda z, m=m, c=center: 0.5 * m * float((z[0] - c) ** 2),
                           gradient=lambda z, m=m, c=center: m * (np.atleast_1d(z) - c),
                           m=m, M=m, L=math.inf))


def replicate_block(group, j, n):
    """n copies of block j of a group: one sample_z_group call makes n independent draws."""
    def at_j(fn):
        return lambda z, rows: fn(z, np.full(len(z), j))

    return FactorGroup(np.repeat(group.a[j:j + 1], n, axis=0), at_j(group.value),
                       at_j(group.gradient), group.m[j], group.M[j], group.L[j])


class TestThetaConditional:
    def test_small_rho_concentrates_on_z(self):
        model = SplitModel(3, [make_quadratic_group(np.eye(3)[None], precision=1.0,
                                                    center=np.zeros(3))])
        cond = ThetaConditional(model, rho=1e-6)
        z = np.array([0.3, -1.2, 2.0])
        rng = np.random.default_rng(0)
        draws = cond.sample([z], rng, size=200)
        assert np.abs(draws - z).max() < 1e-4

    def test_toy_strategy1_mean_and_variance(self):
        # theta | z is N(mean of the blocks, rho^2/b).
        model = build_model("toy-gaussian-1", sigma=3.0, b=10)
        rho = 0.7
        cond = ThetaConditional(model, rho)
        rng = np.random.default_rng(1)
        z = list(rng.standard_normal((10, 1)))
        n = 100_000
        draws = cond.sample(z, rng, size=n)[:, 0]
        zbar = float(np.mean([v[0] for v in z]))
        var = rho**2 / 10
        se_mean = math.sqrt(var / n)
        assert abs(draws.mean() - zbar) <= 4 * se_mean
        se_var = var * math.sqrt(2.0 / n)
        assert abs(draws.var() - var) <= 4 * se_var

    def test_random_model_covariance(self):
        rng = np.random.default_rng(7)
        factors = [
            SplitFactor(a=rng.standard_normal((2, 5)),
                        potential=Potential(dim=2, value=lambda z: 0.0,
                                            gradient=lambda z: np.zeros(2),
                                            m=0.0, M=0.0)),
            make_quadratic_group(np.eye(5)[None], precision=1.0, center=np.zeros(5)),
        ]
        model = SplitModel(5, factors)
        rho = 1.3
        cond = ThetaConditional(model, rho)
        z = [rng.standard_normal(2), rng.standard_normal(5)]
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
        z = [np.array([float(i)]) for i in range(10)]
        a = cond.sample(z, np.random.default_rng(99))
        b = cond.sample(z, np.random.default_rng(99))
        assert np.array_equal(a, b)

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
        factor = scalar_quadratic_factor(m)
        rng = np.random.default_rng(12)
        n = 100_000
        draws = np.empty(n)
        for k in range(n):
            z, _ = sample_z_rejection(factor, theta, rho, rng)
            draws[k] = z[0]
        prec = m + 1.0 / rho**2
        mean = theta[0] / (rho**2 * prec)
        result = kstest(draws, lambda x: norm.cdf(x, loc=mean, scale=1.0 / math.sqrt(prec)))
        assert result.pvalue > 0.01

    def test_exact_warm_start_bound(self):
        # With the warm start at the exact minimizer the proposal matches the
        # target curvature floor and the expected count is the pure ratio.
        m, big_m, rho = 0.5, 2.0, 0.4
        factor = SplitFactor(a=np.array([[1.0]]),
                             potential=Potential(
                                 dim=1,
                                 value=lambda z: 0.25 * float(z[0] ** 2)
                                 + 0.875 * float(np.logaddexp(0.0, 2 * z[0]) / 2.0),
                                 gradient=lambda z: np.atleast_1d(
                                     0.5 * z + 0.875 / (1.0 + np.exp(-2.0 * z))),
                                 m=m, M=big_m, L=math.inf))
        theta = np.array([0.9])
        target = 1e-13
        z_star, _, _ = warm_start_minimize(factor, factor.a @ theta, rho, target)
        e = expected_proposals_bound(factor, theta, z_star, rho)
        ratio = (1.0 / rho**2 + big_m) / (1.0 / rho**2 + m)
        assert e == pytest.approx(ratio ** 0.5, rel=1e-6)
        # Equal curvature bounds turn the proposal into the target itself.
        flat = scalar_quadratic_factor(0.7)
        z_star, _, _ = warm_start_minimize(flat, flat.a @ theta, rho, 1e-13)
        assert expected_proposals_bound(flat, theta, z_star, rho) == pytest.approx(1.0, rel=1e-8)

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
            factor = SplitFactor(
                a=np.eye(d),
                potential=Potential(dim=d,
                                    value=lambda z, m=m: 0.5 * m * float(z @ z),
                                    gradient=lambda z, m=m: m * np.asarray(z),
                                    m=m, M=big_m, L=math.inf))
            theta = rng.standard_normal(d) * 2.0
            target = gd_stop_threshold(factor, rho)
            z_tilde, grad, _ = warm_start_minimize(factor, factor.a @ theta, rho, target)
            if within_two_guarantee(factor, float(np.linalg.norm(grad)), rho):
                checked += 1
                assert expected_proposals_bound(factor, theta, z_tilde, rho) <= 2.0 + 1e-12
        assert checked > 900

    def test_empirical_proposals_match_bound(self):
        m, rho = 0.5, 0.8
        factor = scalar_quadratic_factor(m)
        theta = np.array([2.0])
        rng = np.random.default_rng(8)
        n = 10_000
        counts = np.empty(n)
        bound = None
        for k in range(n):
            _, report = sample_z_rejection(factor, theta, rho, rng)
            counts[k] = report.proposals_used
            bound = report.expected_bound
        se = counts.std(ddof=1) / math.sqrt(n)
        assert counts.mean() <= bound + 3 * se
        # The group sampler, one round per proposal, obeys the same bound.
        group = replicate_block(FactorGroup.of(factor), 0, n)
        _, proposals, _, expected = sample_z_group(group, group.couple(theta), rho,
                                                   np.random.default_rng(9))
        se = proposals.std(ddof=1) / math.sqrt(n)
        assert expected[0] == pytest.approx(bound, rel=1e-12)
        assert proposals.mean() <= bound + 3 * se

    def test_logistic_factor_ks_against_quadrature_cdf(self):
        model = build_model("logistic-split1", d=3, n=20, seed=5)
        factor = model.factors[0]
        rho = 0.5
        theta = np.full(3, 0.4)
        rng = np.random.default_rng(31)
        n = 100_000
        draws = np.empty(n)
        for k in range(n):
            z, _ = sample_z_rejection(factor, theta, rho, rng)
            draws[k] = z[0]
        a_theta = float((factor.a @ theta)[0])

        def neg_log(z):
            return (factor.potential.value(np.array([z]))
                    + 0.5 * (z - a_theta) ** 2 / rho**2)

        center = a_theta
        grid = np.linspace(center - 8 * rho, center + 8 * rho, 4001)
        logpdf = -np.array([neg_log(z) for z in grid])
        logpdf -= logpdf.max()
        pdf = np.exp(logpdf)
        cdf = integrate.cumulative_trapezoid(pdf, grid, initial=0.0)
        cdf /= cdf[-1]
        result = kstest(draws, lambda x: np.interp(x, grid, cdf))
        assert result.pvalue > 0.01
        # The same block drawn n times at once by the group sampler.
        group = replicate_block(model.groups[0], 0, n)
        z, _, _, _ = sample_z_group(group, group.couple(theta), rho, np.random.default_rng(32))
        result = kstest(z[:, 0], lambda x: np.interp(x, grid, cdf))
        assert result.pvalue > 0.01

    def test_stall_on_misstated_constants(self):
        # A potential whose certified curvature wildly understates the truth
        # must hit the proposal cap instead of looping forever.
        lying = SplitFactor(a=np.array([[1.0]]),
                            potential=Potential(
                                dim=1,
                                value=lambda z: 1e12 * float(z[0] ** 2),
                                gradient=lambda z: np.zeros(1),
                                m=0.0, M=0.05, L=math.inf))
        with pytest.raises(AcceptanceStall):
            sample_z_rejection(lying, np.array([0.0]), 1.0,
                               np.random.default_rng(0), proposal_cap=64)
        group = FactorGroup.of(lying)
        with pytest.raises(AcceptanceStall):
            sample_z_group(group, np.zeros((1, 1)), 1.0, np.random.default_rng(0),
                           proposal_cap=64)

    def test_stall_names_first_pending_block(self):
        # With proposal_cap=1 the sampler stops after the first round and
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
        with pytest.raises(AcceptanceStall, match=f"^block {rejected[0]}: .* after 1 proposals"):
            sample_z_group(group, a_theta, rho, np.random.default_rng(7), proposal_cap=1)

    def test_understated_curvature_is_typed_nonconvergence(self):
        # U(z) = 5 z^2 certified with M = 1: the descent step 1/(1/rho^2 + M)
        # overshoots and diverges. Both paths stop at the step bound (4 here)
        # with NonConvergence instead of returning nan.
        calls = []

        def gradient(z):
            calls.append(1)
            return 10.0 * np.atleast_1d(z)

        steep = SplitFactor(a=np.array([[1.0]]),
                            potential=Potential(dim=1, value=lambda z: 5.0 * float(z[0] ** 2),
                                                gradient=gradient, m=0.5, M=1.0, L=math.inf))
        rho, theta = 1.0, np.array([3.0])
        target = gd_stop_threshold(steep, rho)
        with pytest.raises(NonConvergence):
            warm_start_minimize(steep, steep.a @ theta, rho, target)
        assert len(calls) == 5
        with pytest.raises(NonConvergence):
            sample_z_rejection(steep, theta, rho, np.random.default_rng(0))
        group = FactorGroup.of(steep)
        calls.clear()
        with pytest.raises(NonConvergence, match="block 0"):
            sample_z_group(group, group.couple(theta), rho, np.random.default_rng(0))
        assert len(calls) == 5

    def test_group_certificates_match_scalar_reference(self):
        # Given theta, warm starts and certificates are deterministic: the
        # group path reproduces the one-block reference block by block, from
        # the fresh anchor and from a carried-over start.
        rng = np.random.default_rng(19)
        total_steps = 0
        for model, rho in [(build_model("logistic-split1", d=4, n=40, seed=3), 0.8),
                           (build_model("logistic-split2", d=4, n=40, b=4, seed=3), 0.3)]:
            (group,) = model.groups
            for _ in range(5):
                theta = rng.standard_normal(model.d) * 2.0
                stale = group.couple(rng.standard_normal(model.d))
                for z_warm in (None, stale):
                    _, proposals, steps, expected = sample_z_group(
                        group, group.couple(theta), rho, np.random.default_rng(0), z_warm=z_warm)
                    assert (proposals >= 1).all()
                    for j, factor in enumerate(model.factors):
                        z0 = None if z_warm is None else z_warm[j]
                        z_tilde, _, ref_steps = warm_start_minimize(
                            factor, factor.a @ theta, rho, gd_stop_threshold(factor, rho), z0=z0)
                        assert steps[j] == ref_steps
                        ref = expected_proposals_bound(factor, theta, z_tilde, rho)
                        assert expected[j] == pytest.approx(ref, rel=1e-12)
                    total_steps += int(steps.sum())
        assert total_steps > 0

    def test_non_smooth_refused(self):
        rough = SplitFactor(a=np.array([[1.0]]),
                            potential=Potential(dim=1,
                                                value=lambda z: abs(float(z[0])),
                                                gradient=lambda z: np.sign(np.atleast_1d(z)),
                                                m=0.0, M=math.inf, L=1.0))
        with pytest.raises(NotSmooth):
            sample_z_rejection(rough, np.array([0.0]), 0.5, np.random.default_rng(0))
        with pytest.raises(NotSmooth):
            sample_z_group(FactorGroup.of(rough), np.zeros((1, 1)), 0.5,
                           np.random.default_rng(0))

    def test_warm_start_step_bound_holds(self):
        # The descent step count respects its contraction-rate ceiling.
        model = build_model("logistic-split2", d=4, n=40, b=4, seed=2)
        rng = np.random.default_rng(17)
        for factor in model.factors:
            for _ in range(10):
                theta = rng.standard_normal(4) * 3.0
                rho = float(rng.uniform(0.05, 1.0))
                target = gd_stop_threshold(factor, rho)
                _, _, steps = warm_start_minimize(factor, factor.a @ theta, rho, target)
                kappa = (1.0 + rho**2 * factor.potential.M) / (1.0 + rho**2 * factor.potential.m)
                g0 = np.linalg.norm(factor.potential.gradient(factor.a @ theta))
                if g0 > target:
                    bound = math.ceil((math.log(g0) - math.log(target))
                                      / math.log(1.0 / (1.0 - 1.0 / kappa)))
                    assert steps <= bound


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
        us = np.empty(n)
        for k in range(n):
            z = draw_one(group, theta, rho, rng)
            us[k] = float(z @ a) / na
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
