"""Model construction, composite potentials, centering and minimizer search."""

import math

import numpy as np
import pytest

from splitmc import (
    NotStronglyConvex,
    SplitModel,
    build_model,
    center_model,
    find_minimizer,
    make_quadratic_group,
    model_constants,
)
from splitmc.errors import DimensionMismatch, SingularGram
from splitmc.model import (
    ALL_BLOCKS,
    FactorGroup,
    Potential,
    SplitFactor,
    max_factor_gradient_at,
)


def fd_gradient(value, z, rel_step=1e-6):
    z = np.atleast_1d(np.asarray(z, dtype=float))
    g = np.zeros_like(z)
    for j in range(z.size):
        h = rel_step * (1.0 + abs(z[j]))
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        g[j] = (value(zp) - value(zm)) / (2 * h)
    return g


def assert_gradient_matches(potential, points, rtol=1e-5):
    for z in points:
        g = np.atleast_1d(potential.gradient(z))
        g_fd = fd_gradient(potential.value, z)
        scale = max(np.linalg.norm(g_fd), 1e-8)
        assert np.linalg.norm(g - g_fd) <= rtol * scale


class TestPotentialInvariants:
    def test_constants_ordering_enforced(self):
        with pytest.raises(ValueError):
            Potential(dim=1, value=lambda z: 0.0, gradient=lambda z: np.zeros(1),
                      m=2.0, M=1.0)
        with pytest.raises(ValueError, match="block 1"):
            FactorGroup(np.ones((3, 1, 1)), value=None, gradient=None,
                        m=[0.5, 2.0, 0.5], M=1.0)

    def test_gradient_matches_fd_on_quadratics(self):
        rng = np.random.default_rng(42)
        pot = make_quadratic_group(np.eye(3)[None], precision=np.array([0.5, 1.0, 2.0]),
                                   center=np.array([1.0, -2.0, 0.5])).factors[0].potential
        assert_gradient_matches(pot, rng.standard_normal((20, 3)))

    def test_logistic_factor_gradient_matches_fd(self):
        # Per-observation factors of the regression split, 20 random points.
        model = build_model("logistic-split1", d=4, n=30, seed=7)
        rng = np.random.default_rng(0)
        for factor in model.factors[:5]:
            assert_gradient_matches(factor.potential, rng.standard_normal((20, 1)))

    def test_strong_convexity_midpoint_property(self):
        # value(z) - m ||z||^2 / 2 must be midpoint-convex.
        model = build_model("logistic-split1", d=3, n=20, seed=1)
        rng = np.random.default_rng(3)
        for factor in model.factors[:4]:
            m = factor.potential.m
            f = lambda z: factor.potential.value(z) - 0.5 * m * float(np.sum(z**2))
            for _ in range(25):
                x, y = rng.standard_normal((2, 1)) * 3.0
                mid = 0.5 * (x + y)
                assert f(mid) <= 0.5 * (f(x) + f(y)) + 1e-10


class TestCompositePotential:
    def test_toy_strategy1_value(self):
        # b identical scalar quadratics: U(theta) = b theta^2 / (2 sigma^2).
        model = build_model("toy-gaussian-1", sigma=3.0, b=10)
        assert model.potential(np.array([3.0])) == pytest.approx(5.0, abs=1e-12)

    def test_zero_potential(self):
        pot = Potential(dim=2, value=lambda z: 0.0,
                        gradient=lambda z: np.zeros(2), m=0.0, M=0.0)
        model = SplitModel(2, [SplitFactor(a=np.eye(2), potential=pot)])
        rng = np.random.default_rng(5)
        for theta in rng.standard_normal((5, 2)):
            assert model.potential(theta) == 0.0

    def test_model_gradient_matches_fd(self):
        rng = np.random.default_rng(11)
        for name, kwargs in [("gaussian-mixture", {"d": 4}),
                             ("logistic-split1", {"d": 3, "n": 25, "seed": 2}),
                             ("logistic-split2", {"d": 3, "n": 25, "b": 5, "seed": 2})]:
            model = build_model(name, **kwargs)
            for theta in rng.standard_normal((50, model.d)):
                g = model.gradient(theta)
                g_fd = fd_gradient(model.potential, theta)
                assert np.linalg.norm(g - g_fd) <= 1e-5 * max(np.linalg.norm(g_fd), 1e-8)

    def test_dimension_mismatch_raises(self):
        model = build_model("toy-gaussian-1")
        with pytest.raises(DimensionMismatch):
            model.potential(np.zeros(2))

    def test_cached_gram_matches_recomputed_sum(self):
        model = build_model("logistic-split1", d=4, n=30, seed=6)
        fresh = sum(f.a.T @ f.a for f in model.factors)
        scale = np.abs(fresh).max()
        assert np.abs(np.asarray(model.gram) - fresh).max() <= 1e-12 * scale

    def test_rank_deficient_gram_rejected(self):
        # Single row factor in R^2 cannot determine theta.
        group = make_quadratic_group(np.array([[[1.0, 0.0]]]), precision=1.0, center=0.0)
        with pytest.raises(SingularGram, match="rank deficient"):
            SplitModel(2, [group])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_coupling_rejected(self):
        # The Cholesky factorization returns a NaN factor without raising, so
        # a non-finite coupling is refused before it, with its own message,
        # and before the Gram product, which would warn.
        for bad in (np.nan, np.inf):
            a = np.eye(2)[None].copy()
            a[0, 1, 0] = bad
            group = make_quadratic_group(a, precision=1.0, center=0.0)
            with pytest.raises(SingularGram, match="coupling matrix is not finite"):
                SplitModel(2, [group])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_gram_rejected(self):
        # A finite coupling whose Gram matrix overflows is refused too.
        a = np.eye(2)[None].copy()
        a[0, 1, 0] = 1e200
        group = make_quadratic_group(a, precision=1.0, center=0.0)
        with pytest.raises(SingularGram, match="Gram matrix of the stacked coupling is not finite"):
            SplitModel(2, [group])


class TestFindMinimizer:
    def test_toy_models_one_step_from_anywhere(self):
        for name in ("toy-gaussian-1", "toy-gaussian-2"):
            model = build_model(name, sigma=3.0, b=10)
            res = find_minimizer(model, theta0=np.array([7.5]))
            assert res.theta_star == pytest.approx(0.0, abs=1e-12)
            assert res.iterations == 1

    def test_mixture_minimizer_is_origin(self):
        model = build_model("gaussian-mixture", d=12)
        res = find_minimizer(model, tol=1e-10)
        assert np.linalg.norm(res.theta_star) <= 1e-9
        assert res.grad_norm <= 1e-10

    def test_random_quadratic_recovers_center(self):
        rng = np.random.default_rng(21)
        c = rng.standard_normal(10)
        q = rng.uniform(0.5, 3.0, size=10)
        model = SplitModel(10, [make_quadratic_group(np.eye(10)[None], precision=q, center=c)])
        res = find_minimizer(model, tol=1e-12, theta0=np.zeros(10))
        assert np.linalg.norm(res.theta_star - c) <= 1e-8

    def test_rejects_zero_strong_convexity(self):
        pot = Potential(dim=1, value=lambda z: float(np.logaddexp(0.0, z[0])),
                        gradient=lambda z: np.array([1.0 / (1.0 + math.exp(-z[0]))]),
                        m=0.0, M=0.25)
        model = SplitModel(1, [SplitFactor(a=np.eye(1), potential=pot)])
        with pytest.raises(NotStronglyConvex):
            find_minimizer(model)


class TestCentering:
    def test_already_centered_factor_untouched(self):
        model = build_model("toy-gaussian-1", mu=0.0)
        centered = center_model(model, np.zeros(1))
        assert centered.factors[0] is model.factors[0]

    def test_quadratic_center_shift_is_zero_at_center(self):
        model = build_model("toy-gaussian-2", sigma=2.0, b=4, mu=1.5)
        res = find_minimizer(model, theta0=np.zeros(1))
        centered = center_model(model, res.theta_star)
        assert max_factor_gradient_at(centered, res.theta_star) <= 1e-10

    def test_logistic_centering_residual(self):
        model = build_model("logistic-split1", d=5, n=80, seed=3)
        theta_star = find_minimizer(model).theta_star
        centered = center_model(model, theta_star)
        assert max_factor_gradient_at(centered, theta_star) <= 1e-8

    def test_centering_is_idempotent(self):
        model = build_model("logistic-split1", d=4, n=50, seed=9)
        theta_star = find_minimizer(model).theta_star
        once = center_model(model, theta_star)
        twice = center_model(once, theta_star)
        assert max_factor_gradient_at(twice, theta_star) <= 1e-8
        rng = np.random.default_rng(1)
        for theta in rng.standard_normal((5, 4)):
            assert once.potential(theta) == pytest.approx(twice.potential(theta), rel=1e-12)

    def test_constants_survive_centering(self):
        model = build_model("logistic-split1", d=3, n=30, seed=4)
        theta_star = find_minimizer(model).theta_star
        centered = center_model(model, theta_star)
        for before, after in zip(model.factors, centered.factors):
            assert after.potential.m == before.potential.m
            assert after.potential.M == before.potential.M
            assert after.potential.L == before.potential.L

    def test_total_potential_changes_by_constant_gradient(self):
        # The shift sums to <theta, grad U(theta*)>, which is ~0 at a minimizer.
        model = build_model("logistic-split1", d=4, n=40, seed=5)
        theta_star = find_minimizer(model, tol=1e-12).theta_star
        centered = center_model(model, theta_star)
        rng = np.random.default_rng(8)
        for theta in rng.standard_normal((5, 4)):
            diff_grad = centered.gradient(theta) - model.gradient(theta)
            assert np.linalg.norm(diff_grad) <= 1e-9


class TestZooModels:
    def test_aniso_gaussian_spectrum(self):
        # Diagonal precisions spread over [m, M]; least favorable axis first.
        model = build_model("aniso-gaussian", d=8, m=0.25, M=1.0)
        c = model_constants(model)
        assert c.m_U == pytest.approx(0.25, rel=1e-12)
        assert c.lambda_max_M == pytest.approx(1.0, rel=1e-12)
        from splitmc import k_sgs
        rho = 0.3
        assert k_sgs(model, rho) == pytest.approx(
            0.25 * rho**2 / (1 + 0.25 * rho**2), rel=1e-12)

    def test_unknown_name(self):
        from splitmc.errors import UnsupportedModel
        with pytest.raises(UnsupportedModel):
            build_model("laplace-tower")

    def test_logistic_split2_requires_divisibility(self):
        with pytest.raises(ValueError):
            build_model("logistic-split2", d=2, n=10, b=3)

    def test_unit_design_matches_explicit_ones_design(self):
        # logistic-split1 evaluates its scalar blocks without the design
        # matmuls; the explicit all-ones design gives the same bits.
        from splitmc.zoo import _logit_group
        n = 60
        model = build_model("logistic-split1", d=5, n=n, seed=4)
        (unit,) = model.groups
        x, y = model.data
        ones = _logit_group(x[:, None, :], np.ones((n, 1, 1)), y[:, None], model.prior_alpha)
        for c in ("m", "M", "L"):
            assert getattr(unit, c).tobytes() == getattr(ones, c).tobytes()
        z = 3.0 * np.random.default_rng(8).standard_normal((n, 1))
        z[:4, 0] = (0.0, 40.0, -40.0, 800.0)
        subset = np.array([5, 0, 17, 59, 17])
        for rows, zr in ((ALL_BLOCKS, z), (subset, z[subset])):
            for fn in ("value", "gradient"):
                got = getattr(unit, fn)(zr, rows)
                ref = getattr(ones, fn)(zr, rows)
                assert got.shape == ref.shape
                assert got.tobytes() == ref.tobytes()


class TestModelConstants:
    def test_single_identity_unit(self):
        model = SplitModel(4, [make_quadratic_group(np.eye(4)[None], precision=1.0,
                                                    center=np.zeros(4))])
        c = model_constants(model)
        assert c.m_U == pytest.approx(1.0, abs=1e-12)
        assert c.sigma2_U == pytest.approx(1.0, abs=1e-12)
        assert c.log_det_ratio == pytest.approx(0.0, abs=1e-12)

    def test_mixture_sigma2(self):
        model = build_model("gaussian-mixture", d=6)
        c = model_constants(model)
        assert c.m_U == pytest.approx(0.5, abs=1e-12)
        assert c.sigma2_U == pytest.approx(2.0, abs=1e-12)

    def test_toy_strategy1_m_u(self):
        model = build_model("toy-gaussian-1", sigma=3.0, b=10)
        c = model_constants(model)
        assert c.m_U == pytest.approx(10.0 / 9.0, rel=1e-12)

    def test_m_u_lower_bounds_quadratic_hessians(self):
        # For quadratics the numeric Hessian Rayleigh quotient never drops below m_U.
        rng = np.random.default_rng(33)
        q1 = rng.uniform(0.2, 1.0, size=6)
        q2 = rng.uniform(0.5, 2.0, size=6)
        model = SplitModel(6, [
            make_quadratic_group(np.eye(6)[None], precision=q1, center=np.zeros(6)),
            make_quadratic_group(np.eye(6)[None], precision=q2, center=np.zeros(6)),
        ])
        c = model_constants(model)
        h = np.diag(q1 + q2)
        for _ in range(20):
            v = rng.standard_normal(6)
            rq = float(v @ h @ v / (v @ v))
            assert rq >= c.m_U - 1e-8
