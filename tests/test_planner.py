"""Contraction constant and the four prescription planners."""

import math

import numpy as np
import pytest

from splitmc import (
    EpsilonOutOfRange,
    InvalidParameter,
    NotCentered,
    NotStronglyConvex,
    SplitModel,
    build_model,
    center_model,
    find_minimizer,
    k_sgs,
    make_quadratic_group,
    plan_tv_multi,
    plan_tv_nonstrongly,
    plan_tv_single,
    plan_w1_single,
)
from splitmc.model import FactorGroup, model_constants


class TestContractionConstant:
    def test_toy_closed_forms_on_grid(self):
        # Strategy 1: rho^2/(sigma^2+rho^2); strategy 2: b rho^2/(sigma^2 + b rho^2).
        sigma = 3.0
        rhos = np.logspace(-3, 1, 12)
        for b in (1, 2, 5, 20):
            m1 = build_model("toy-gaussian-1", sigma=sigma, b=b)
            m2 = build_model("toy-gaussian-2", sigma=sigma, b=b)
            for rho in rhos:
                k1 = rho**2 / (sigma**2 + rho**2)
                k2 = b * rho**2 / (sigma**2 + b * rho**2)
                assert k_sgs(m1, rho) == pytest.approx(k1, abs=1e-12)
                assert k_sgs(m2, rho) == pytest.approx(k2, abs=1e-12)

    def test_zero_strong_convexity_gives_zero(self):
        flat = FactorGroup(np.eye(2)[None], value=lambda z, rows: np.abs(z).sum(axis=1),
                           gradient=lambda z, rows: np.sign(z),
                           m=0.0, M=math.inf, L=math.sqrt(2.0))
        model = SplitModel(2, [flat])
        assert k_sgs(model, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_range_and_monotonicity(self):
        model = build_model("logistic-split1", d=4, n=60, seed=0)
        rhos = np.logspace(-2, 1, 15)
        vals = [k_sgs(model, r) for r in rhos]
        assert all(0.0 <= v < 1.0 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_mixed_blocks_against_direct_eigensolve(self):
        rng = np.random.default_rng(5)
        factors = [
            FactorGroup(rng.standard_normal((2, 4))[None], value=lambda z, rows: np.zeros(len(z)),
                        gradient=lambda z, rows: np.zeros_like(z), m=0.3, M=1.0),
            make_quadratic_group(np.eye(4)[None], precision=0.8, center=np.zeros(4)),
        ]
        model = SplitModel(4, factors)
        rho = 0.9
        g = np.asarray(model.gram)
        weighted = sum((grp.a[j].T @ grp.a[j]) / (1.0 + grp.m[j] * rho**2)
                       for grp in model.groups for j in range(grp.b))
        g_half_inv = np.linalg.inv(_sqrtm(g))
        expected = 1.0 - np.linalg.norm(g_half_inv @ weighted @ g_half_inv, ord=2)
        assert k_sgs(model, rho) == pytest.approx(expected, abs=1e-12)


def _sqrtm(s):
    vals, vecs = np.linalg.eigh(s)
    return (vecs * np.sqrt(vals)) @ vecs.T


class TestWassersteinPlan:
    def test_unit_constants(self):
        plan = plan_w1_single(1.0, 1.0, 1.0)
        assert plan.rho2 == pytest.approx(1.0)
        assert plan.t_mix == 2  # ceil(log 3 / log 2)

    def test_scaling_invariance_of_t_mix(self):
        for alpha in (0.1, 1.0, 7.3):
            a = plan_w1_single(0.2 * alpha, 1.5 * alpha, 0.05)
            b = plan_w1_single(0.2, 1.5, 0.05)
            assert a.t_mix == b.t_mix

    def test_branch_boundary(self):
        eps = 0.1
        boundary = 16.0 / eps**2  # kappa = 1600
        at = plan_w1_single(1.0 / boundary, 1.0, eps)
        assert at.metadata["branch_boundary_kappa"] == pytest.approx(1600.0)
        quad = eps**2 / (4.0 / boundary)
        geo = eps / math.sqrt(1.0 / boundary)
        assert quad == pytest.approx(geo, rel=1e-12)
        below = plan_w1_single(1.0 / (boundary / 2), 1.0, eps)
        above = plan_w1_single(1.0 / (boundary * 2), 1.0, eps)
        assert below.metadata["active_branch"] == "eps/sqrt(mM)"
        assert above.metadata["active_branch"] == "eps^2/(4m)"

    def test_contraction_budget(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            m = rng.uniform(0.05, 2.0)
            M = m * rng.uniform(1.0, 50.0)
            eps = rng.uniform(0.01, 1.0)
            plan = plan_w1_single(m, M, eps)
            assert (1.0 - plan.k_sgs) ** plan.t_mix <= eps / 3.0 + 1e-12

    def test_eps_range_guard(self):
        with pytest.raises(EpsilonOutOfRange):
            plan_w1_single(1.0, 1.0, 1.5)


class TestTvSinglePlan:
    def test_reference_point(self):
        plan = plan_tv_single(0.5, 1.0, 60, 0.1)
        assert plan.rho2 == pytest.approx(1.0 / 600.0, rel=1e-12)
        assert plan.k_sgs == pytest.approx((0.5 / 600) / (1 + 0.5 / 600), rel=1e-12)
        assert plan.C == pytest.approx(37.5 + 30.0 * math.log(2.0), rel=1e-12)
        assert plan.t_mix == 38604

    def test_equal_constants_c(self):
        plan = plan_tv_single(1.0, 1.0, 16, 0.2)
        assert plan.C == pytest.approx(5.0 * 16 / 8.0, rel=1e-12)

    def test_t_mix_monotone_in_eps(self):
        eps_grid = np.linspace(0.01, 0.5, 12)
        ts = [plan_tv_single(0.25, 1.0, 10, e).t_mix for e in eps_grid]
        assert all(a >= b for a, b in zip(ts, ts[1:]))

    def test_budget_inequality(self):
        plan = plan_tv_single(0.3, 2.0, 8, 0.07)
        lhs = plan.t_mix * (-math.log1p(-plan.k_sgs))
        assert lhs >= math.log(2.0 / plan.epsilon) + plan.C / 2.0

    def test_zero_m_redirects(self):
        with pytest.raises(NotStronglyConvex):
            plan_tv_single(0.0, 1.0, 10, 0.1)


class TestTvMultiPlan:
    def test_single_split_reduction_matches_reference(self):
        model = build_model("gaussian-mixture", d=60)
        plan = plan_tv_multi(model, 0.1, theta_star=np.zeros(60))
        assert plan.rho2 == pytest.approx(1.634e-3, rel=1e-3)
        assert plan.t_mix == pytest.approx(1.1e5, rel=0.01)
        assert plan.metadata["sigma2_U"] == pytest.approx(2.0)

    def test_small_eps_branch_linearizes(self):
        model = build_model("gaussian-mixture", d=10)
        eps = 1e-4
        plan = plan_tv_multi(model, eps, theta_star=np.zeros(10))
        consts = model_constants(model)
        assert plan.rho2 == pytest.approx(eps / consts.sum_dims_M, rel=0.01)

    def test_not_centered_rejected(self):
        model = build_model("logistic-split1", d=3, n=30, seed=0)
        theta_star = find_minimizer(model).theta_star
        with pytest.raises(NotCentered):
            plan_tv_multi(model, 0.1, theta_star=theta_star)
        centered = center_model(model, theta_star)
        plan = plan_tv_multi(centered, 0.1, theta_star=theta_star)
        assert plan.t_mix >= 1

    def test_budget_inequality_and_metric_factor(self):
        model = build_model("gaussian-mixture", d=12)
        plan = plan_tv_multi(model, 0.05, theta_star=np.zeros(12))
        lhs = plan.t_mix * (-math.log1p(-plan.k_sgs))
        assert lhs >= math.log(2.0 / plan.epsilon) + plan.C / 2.0
        # The contraction constant is the sweep's, in the metric ||G^{1/2}(x - y)||.
        assert plan.k_sgs == k_sgs(model, plan.rho)

    def test_observation_split_beats_shard_split_when_ratio_large(self):
        d, n, b = 10, 1000, 5
        m1 = build_model("logistic-split1", d=d, n=n, seed=3)
        theta_star = find_minimizer(m1).theta_star
        p1 = plan_tv_multi(center_model(m1, theta_star), 0.01, theta_star=theta_star)
        m2 = build_model("logistic-split2", d=d, n=n, b=b, seed=3)
        p2 = plan_tv_multi(center_model(m2, theta_star), 0.01, theta_star=theta_star)
        x, _ = m2.data
        size = n // b
        num = den = 0.0
        for i in range(b):
            eigs = np.linalg.eigvalsh(x[i * size:(i + 1) * size].T
                                      @ x[i * size:(i + 1) * size])
            num += eigs[-1]
            den += eigs[0]
        assert num / den > 1.0
        assert p1.t_mix < p2.t_mix


class TestNonStronglyConvexPlan:
    def test_reference_point(self):
        plan = plan_tv_nonstrongly(1.0, 0.1, 1.0, 10)
        lam = 0.1 / 7.5
        assert plan.regularizer_lambda == pytest.approx(lam, rel=1e-12)
        assert plan.rho2 == pytest.approx(2 * 0.1 / (30 * (1 + lam)), rel=1e-12)
        assert plan.C == pytest.approx(5 * 10 / 8 + 5 * math.log((1 + lam) / lam),
                                       rel=1e-12)

    def test_regularized_model_constants(self):
        # Adding the ridge makes the quadratic family exactly (lam, M + lam).
        base = SplitModel(4, [make_quadratic_group(np.eye(4)[None], precision=1.0,
                                                   center=np.zeros(4))])
        lam = 0.25
        ridge = make_quadratic_group(np.eye(4)[None], precision=lam, center=np.zeros(4))
        reg = SplitModel(4, base.groups + (ridge,))
        consts = model_constants(reg)
        h = np.eye(4) * (1.0 + lam)
        eigs = np.linalg.eigvalsh(h)
        assert consts.m_U == pytest.approx(1.0 + lam)  # certified sum of both factors
        assert eigs[0] == pytest.approx(1.0 + lam)

    def test_budget_metadata(self):
        plan = plan_tv_nonstrongly(2.0, 0.3, 0.5, 6)
        assert len(plan.metadata["error_budget"]) == 3
        lhs = plan.t_mix * (-math.log1p(-plan.k_sgs))
        assert lhs >= math.log(3.0 / plan.epsilon) + plan.C / 2.0


class TestEpsilonGuards:
    def test_all_planners_reject_out_of_range(self):
        model = build_model("gaussian-mixture", d=4)
        for eps in (0.0, -0.1, 1.2):
            with pytest.raises(EpsilonOutOfRange):
                plan_tv_single(0.5, 1.0, 10, eps)
            with pytest.raises(EpsilonOutOfRange):
                plan_tv_multi(model, eps, theta_star=np.zeros(4))
            with pytest.raises(EpsilonOutOfRange):
                plan_tv_nonstrongly(1.0, eps, 1.0, 10)
        # Dimensions below one and non-finite constants are refused before any
        # arithmetic, instead of dividing by zero or taking the ceiling of nan.
        for m1, big_m1, d in [(0.5, 1.0, 0), (0.5, 1.0, -2), (0.5, math.inf, 10),
                              (math.nan, 1.0, 10), (0.5, math.nan, 10),
                              (math.inf, math.inf, 10)]:
            with pytest.raises(InvalidParameter):
                plan_tv_single(m1, big_m1, d, 0.1)
        for big_m1, r, d in [(1.0, 1.0, 0), (1.0, 1.0, -2), (math.inf, 1.0, 10),
                             (1.0, math.inf, 10), (math.nan, 1.0, 10), (1.0, math.nan, 10)]:
            with pytest.raises(InvalidParameter):
                plan_tv_nonstrongly(big_m1, 0.1, r, d)
