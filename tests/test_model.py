"""Model construction, composite potentials, centering and minimizer search."""

import gc
import math
import warnings
import weakref

import numpy as np
import pytest
from scipy.stats import kstest, norm

from splitmc import (
    NotStronglyConvex,
    SplitModel,
    build_model,
    center_model,
    find_minimizer,
    make_quadratic_group,
    model_constants,
)
from splitmc.errors import (DimensionMismatch, InvalidParameter, NonConvergence, NotSmooth,
                            SingularGram, UnsupportedModel)
from splitmc.model import ALL_BLOCKS, FactorGroup, max_factor_gradient_at


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


def block_value(group, j):
    """Block j's potential as a function of one point z of shape (k,)."""
    rows = slice(j, j + 1)
    return lambda z: float(group.value(np.reshape(z, (1, -1)), rows)[0])


def assert_gradient_matches(group, j, points, rtol=1e-5):
    rows = slice(j, j + 1)
    for z in points:
        g = group.gradient(np.reshape(z, (1, -1)), rows)[0]
        g_fd = fd_gradient(block_value(group, j), z)
        scale = max(np.linalg.norm(g_fd), 1e-8)
        assert np.linalg.norm(g - g_fd) <= rtol * scale


class TestPotentialInvariants:
    def test_constants_ordering_enforced(self):
        with pytest.raises(InvalidParameter):
            FactorGroup(np.ones((1, 1, 1)), value=None, gradient=None, m=2.0, M=1.0)
        with pytest.raises(InvalidParameter, match="block 1: m=2.0 exceeds M=1.0"):
            FactorGroup(np.ones((3, 1, 1)), value=None, gradient=None,
                        m=[0.5, 2.0, 0.5], M=1.0)

    @pytest.mark.parametrize("constants", [{"m": -0.5, "M": 1.0}], ids=["m"])
    def test_negative_constants_are_invalid(self, constants):
        with pytest.raises(InvalidParameter, match="constants must be nonnegative"):
            FactorGroup(np.ones((2, 1, 1)), value=None, gradient=None, **constants)

    @pytest.mark.parametrize("constants", [{"m": 0.5, "M": math.nan},
                                           {"m": 0.0, "M": -math.inf},
                                           {"m": math.nan, "M": 1.0}],
                             ids=["M=nan", "M=-inf", "m=nan"])
    def test_nan_and_negative_infinite_constants_are_invalid(self, constants):
        with pytest.raises(InvalidParameter):
            FactorGroup(np.ones((2, 1, 1)), value=None, gradient=None, **constants)

    def test_model_without_factors_is_invalid(self):
        with pytest.raises(InvalidParameter, match="at least one factor"):
            SplitModel(2, [])

    def test_gradient_matches_fd_on_quadratics(self):
        rng = np.random.default_rng(42)
        group = make_quadratic_group(np.eye(3)[None], precision=np.array([0.5, 1.0, 2.0]),
                                     center=np.array([1.0, -2.0, 0.5]))
        assert_gradient_matches(group, 0, rng.standard_normal((20, 3)))

    def test_logistic_factor_gradient_matches_fd(self):
        # Per-observation factors of the regression split, 20 random points.
        model = build_model("logistic-split1", d=4, n=30, seed=7)
        rng = np.random.default_rng(0)
        (group,) = model.groups
        for j in range(5):
            assert_gradient_matches(group, j, rng.standard_normal((20, 1)))

    def test_strong_convexity_midpoint_property(self):
        # value(z) - m ||z||^2 / 2 must be midpoint-convex.
        model = build_model("logistic-split1", d=3, n=20, seed=1)
        rng = np.random.default_rng(3)
        (group,) = model.groups
        for j in range(4):
            m, value = group.m[j], block_value(group, j)
            f = lambda z: value(z) - 0.5 * m * float(np.sum(z**2))
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
        model = SplitModel(2, [make_quadratic_group(np.eye(2)[None], precision=0.0, center=0.0)])
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

    def test_block_dims_and_sum_dims_m_match_the_per_block_loops(self):
        rows = build_model("logistic-split1", d=3, n=30, seed=1).groups[0]
        shards = build_model("logistic-split2", d=3, n=30, b=5, seed=1).groups[0]
        quad = make_quadratic_group(np.ones((2, 2, 3)), precision=[0.5, 2.0], center=0.0)
        model = SplitModel(3, [rows, shards, quad, rows])
        dims = tuple(g.k for g in model.groups for _ in range(g.b))
        assert model.block_dims == dims and all(type(k) is int for k in model.block_dims)
        c = model_constants(model)
        assert c.sum_dims_M == float(sum(di * Mi for di, Mi in zip(dims, model.M.tolist())))

    def test_dimension_mismatch_raises(self):
        model = build_model("toy-gaussian-1")
        with pytest.raises(DimensionMismatch):
            model.potential(np.zeros(2))

    def test_solve_gram_refuses_a_wrong_length(self):
        model = build_model("aniso-gaussian", d=3)
        for rhs in (np.ones(2), np.ones((4, 2)), np.float64(1.0)):
            with pytest.raises(DimensionMismatch, match="expected \\(3,\\) or \\(3, n\\)"):
                model.solve_gram(rhs)
        assert model.solve_gram(np.ones((3, 2))).shape == (3, 2)

    def test_solve_gram_refuses_more_than_two_axes(self):
        # LAPACK's potrs would fold the trailing axes and return a (3, 2, 2) array.
        model = build_model("aniso-gaussian", d=3)
        with pytest.raises(DimensionMismatch, match="shape \\(3, 2, 2\\), expected"):
            model.solve_gram(np.arange(12.0).reshape(3, 2, 2))

    def test_solve_gram_reports_a_lapack_failure_as_singular_gram(self):
        # No input is known to reach a nonzero info once the factor and the
        # shapes are checked, so the LAPACK call is replaced by one that fails.
        model = build_model("aniso-gaussian", d=3)
        model._potrs = lambda chol, rhs, lower: (rhs, -2)
        with pytest.raises(SingularGram, match="LAPACK info -2"):
            model.solve_gram(np.ones(3))

    @pytest.mark.parametrize("precision", [-1.0, [1.0, -0.5], np.eye(2)],
                             ids=["negative", "negative-diagonal", "matrix"])
    def test_quadratic_precision_must_be_nonnegative_diagonal(self, precision):
        with pytest.raises(InvalidParameter, match="nonnegative scalar or diagonal"):
            make_quadratic_group(np.ones((1, 2, 1)), precision=precision, center=0.0)

    def test_cached_gram_matches_recomputed_sum(self):
        model = build_model("logistic-split1", d=4, n=30, seed=6)
        fresh = sum(g.a[j].T @ g.a[j] for g in model.groups for j in range(g.b))
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

    def test_overshooting_two_point_step_falls_back_and_converges(self):
        # Curvature m + (M - m) sech^2(z): nearly m far out, M at the minimizer
        # 0. From theta0 = 10 the two-point step is about 1/m and lands far
        # past 0 with a larger gradient, so the certified step is taken.
        m, big_m = 0.01, 1.0
        calls = []

        def gradient(z, rows):
            calls.append(z)
            return m * z + (big_m - m) * np.tanh(z)

        group = FactorGroup(
            np.ones((1, 1, 1)),
            value=lambda z, rows: (0.5 * m * z**2 + (big_m - m) * np.log(np.cosh(z)))[:, 0],
            gradient=gradient, m=m, M=big_m)
        res = find_minimizer(SplitModel(1, [group]), tol=1e-10, theta0=np.array([10.0]))
        assert res.grad_norm <= 1e-10
        assert abs(res.theta_star[0]) <= 1e-10
        # One call at theta0 and one per step taken, plus the rejected trials.
        assert len(calls) > res.iterations + 1

    @pytest.mark.parametrize("precision", [[1.0, 2.0, 2.5], np.linspace(1.0, 30.0, 5)],
                             ids=["cap", "overflow"])
    def test_understated_lambda_max_ends_in_nonconvergence(self, precision):
        # Stated M = 1 below the true curvature: the certified step grows the
        # gradient, and no two-point step contracts it by 1 - m_U/L = 0. The
        # search hits its cap, or overflows first, and raises either way.
        p = np.asarray(precision)
        group = FactorGroup(np.eye(p.size)[None], value=lambda z, rows: 0.5 * (p * z**2).sum(1),
                            gradient=lambda z, rows: p * z, m=1.0, M=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergence, match="after [0-9]+ iterations"):
                find_minimizer(SplitModel(p.size, [group]), theta0=np.ones(p.size))

    @pytest.mark.parametrize("name, kwargs, plain_gd_steps", [
        ("logistic-split1", {"d": 10, "n": 1000, "seed": 0}, 30),
        ("logistic-split1", {"d": 10, "n": 200, "seed": 3}, 55),
        ("logistic-split2", {"d": 10, "n": 1000, "b": 5, "seed": 0}, 37),
        ("logistic-split2", {"d": 3, "n": 30, "b": 5, "seed": 1}, 44),
    ], ids=["split1-n1000", "split1-n200", "split2-n1000", "split2-n30"])
    def test_logistic_minimizers_within_tol_in_fewer_steps(self, name, kwargs, plain_gd_steps):
        # plain_gd_steps: the steps plain gradient descent at the certified
        # length took on the same model to the same tolerance.
        model = build_model(name, **kwargs)
        res = find_minimizer(model)
        tol = 1e-10 * (1.0 + np.linalg.norm(model.gradient(np.zeros(model.d))))
        assert np.linalg.norm(model.gradient(res.theta_star)) <= tol
        assert res.grad_norm <= tol
        assert res.iterations <= plain_gd_steps

    def test_rejects_zero_strong_convexity(self):
        softplus = FactorGroup(np.ones((1, 1, 1)),
                               value=lambda z, rows: np.logaddexp(0.0, z[:, 0]),
                               gradient=lambda z, rows: 1.0 / (1.0 + np.exp(-z)),
                               m=0.0, M=0.25)
        model = SplitModel(1, [softplus])
        with pytest.raises(NotStronglyConvex):
            find_minimizer(model)

    def test_rejects_a_non_smooth_group(self):
        # |z| + z^2/2 has m = 1 and no finite M.
        rough = FactorGroup(np.ones((1, 1, 1)),
                            value=lambda z, rows: np.abs(z[:, 0]) + 0.5 * z[:, 0] ** 2,
                            gradient=lambda z, rows: np.sign(z) + z, m=1.0, M=math.inf)
        model = SplitModel(1, [rough])
        with pytest.raises(NotSmooth):
            find_minimizer(model)
        consts = model_constants(model)
        assert consts.lambda_max_M == math.inf and consts.sigma2_U == math.inf
        # aniso-gaussian at M = inf would have NaN constants; it is refused when built.
        with pytest.raises(InvalidParameter):
            build_model("aniso-gaussian", d=3, m=math.inf, M=math.inf)


class TestCentering:
    def test_already_centered_factor_untouched(self):
        model = build_model("toy-gaussian-1", mu=0.0)
        centered = center_model(model, np.zeros(1))
        assert centered.groups[0] is model.groups[0]

    def test_quadratic_center_shift_is_zero_at_center(self):
        model = build_model("toy-gaussian-2", sigma=2.0, b=4, mu=1.5)
        res = find_minimizer(model, theta0=np.zeros(1))
        centered = center_model(model, res.theta_star)
        assert max_factor_gradient_at(centered, res.theta_star) <= 1e-10

    @pytest.mark.parametrize("name, params", [
        ("logistic-split1", {}),
        ("logistic-split2", {"b": 4}),
    ])
    def test_logistic_centering_residual(self, name, params):
        model = build_model(name, d=5, n=80, seed=3, **params)
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
        for before, after in zip(model.groups, centered.groups):
            assert np.array_equal(after.m, before.m)
            assert np.array_equal(after.M, before.M)

    @pytest.mark.parametrize("build", [
        lambda: build_model("logistic-split1", d=4, n=40, seed=5),
        lambda: build_model("logistic-split2", d=3, n=30, b=5, seed=1),
        lambda: SplitModel(1, [make_quadratic_group(np.ones((2, 1, 1)), precision=1.0,
                                                    center=[[0.0], [1.0]])]),
    ], ids=["logistic-split1", "logistic-split2", "quadratic"])
    def test_centered_model_shares_its_parents_factor_and_constants(self, build):
        model = build()
        consts = model_constants(model)
        assert model_constants(model) is consts
        centered = center_model(model, find_minimizer(model).theta_star)
        assert centered.groups != model.groups
        assert centered.chol_lower is model.chol_lower and centered.gram is model.gram
        assert model_constants(centered) is consts
        fresh = SplitModel(centered.d, centered.groups)
        assert np.array_equal(fresh.chol_lower, centered.chol_lower)
        assert model_constants(fresh) == consts
        assert fresh.closed_form == centered.closed_form == model.closed_form

    def test_recenter_hook_that_moves_the_coupling_is_refused(self):
        base = make_quadratic_group(np.ones((2, 1, 1)), precision=1.0, center=[[0.0], [1.0]])
        moved = FactorGroup(base.a, base.value, base.gradient, m=base.m, M=base.M,
                            recenter=lambda a_star, off: make_quadratic_group(
                                2.0 * base.a, precision=1.0, center=a_star))
        with pytest.raises(UnsupportedModel, match="group 0 changed its coupling or constants"):
            center_model(SplitModel(1, [moved]), np.array([3.0]))

    def test_total_potential_changes_by_constant_gradient(self):
        # The shift sums to <theta, grad U(theta*)>, which is ~0 at a minimizer.
        model = build_model("logistic-split1", d=4, n=40, seed=5)
        theta_star = find_minimizer(model, tol=1e-12).theta_star
        centered = center_model(model, theta_star)
        rng = np.random.default_rng(8)
        for theta in rng.standard_normal((5, 4)):
            diff_grad = centered.gradient(theta) - model.gradient(theta)
            assert np.linalg.norm(diff_grad) <= 1e-9


def _fold_groups():
    """A unit-design and a stacked logistic group and a diagonal quadratic, b >= 3."""
    rng = np.random.default_rng(3)
    quad = make_quadratic_group(rng.standard_normal((3, 2, 4)), precision=[0.0, 2.0],
                                center=rng.standard_normal((3, 2)))
    return [("unit logistic", build_model("logistic-split1", d=4, n=12, seed=2).groups[0]),
            ("stacked logistic", build_model("logistic-split2", d=4, n=24, b=3,
                                             seed=2).groups[0]),
            ("diagonal quadratic", quad)]


class TestCenteringFold:
    @pytest.mark.parametrize("name, group", _fold_groups(),
                             ids=["unit-logistic", "stacked-logistic", "diagonal-quadratic"])
    @pytest.mark.parametrize("rows", [ALL_BLOCKS, np.array([2, 0, 2, 1, 0])],
                             ids=["all-blocks", "index-array"])
    def test_recentered_kernels_are_the_linear_tilt(self, name, group, rows):
        # U_j(z) - <grad U_j(A_j theta*), z> on the blocks in off (block 1 is
        # not); the quadratic's value may differ from it by a constant per block.
        rng = np.random.default_rng(5)
        a_star = group.couple(rng.standard_normal(4))
        off = np.array([True, False] + [True] * (group.b - 2))
        shift = group.gradient(a_star, ALL_BLOCKS)
        shift[~off] = 0.0
        centered = group.recenter(a_star, off)
        for c in ("m", "M"):
            assert np.array_equal(getattr(centered, c), getattr(group, c))
        assert (centered.sampler is None) == (group.sampler is None)
        assert (centered.mode is None) == (group.mode is None)

        index = np.arange(group.b)[rows]
        zero = np.zeros((group.b, group.k))
        constant = centered.value(zero, ALL_BLOCKS) - group.value(zero, ALL_BLOCKS)
        if group.sampler is None:
            assert (constant == 0.0).all()
        for _ in range(3):
            z = 2.0 * rng.standard_normal((index.size, group.k))
            raw_v, raw_g = group.value(z, rows), group.gradient(z, rows)
            tilt = np.sum(z * shift[index], axis=1)
            got_v, got_g = centered.value(z, rows), centered.gradient(z, rows)
            scale_g = np.linalg.norm(raw_g, axis=1) + np.linalg.norm(shift[index], axis=1)
            assert (np.linalg.norm(got_g - (raw_g - shift[index]), axis=1)
                    <= 1e-12 * scale_g).all()
            diff = got_v - (raw_v - tilt) - constant[index]
            scale_v = np.abs(raw_v) + np.abs(tilt) + np.abs(constant[index])
            assert (np.abs(diff) <= 1e-12 * scale_v).all()
            # Block 1 is left as it was, bit for bit.
            kept = index == 1
            assert got_v[kept].tobytes() == raw_v[kept].tobytes()
            assert got_g[kept].tobytes() == raw_g[kept].tobytes()

    def test_center_model_leaves_blocks_within_tol(self):
        # Block 0 sits at its center: its gradient at A_0 theta* is exactly 0.
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3, 2, 4))
        theta_star = rng.standard_normal(4)
        center = rng.standard_normal((3, 2))
        center[0] = (a[0] @ theta_star)
        quad = make_quadratic_group(a, precision=[0.5, 2.0], center=center)
        model = SplitModel(4, [quad, make_quadratic_group(np.eye(4)[None], 1.0, 0.0)])
        centered = center_model(model, theta_star)
        assert max_factor_gradient_at(centered, theta_star) <= 1e-12
        group = centered.groups[0]
        z = rng.standard_normal((1, 2))
        assert group.value(z, slice(0, 1)).tobytes() == quad.value(z, slice(0, 1)).tobytes()
        assert group.gradient(z, slice(0, 1)).tobytes() == quad.gradient(z, slice(0, 1)).tobytes()

    def test_centered_quadratic_draws_its_tilted_conditional(self):
        # The tilted conditional exp(-U(z) + <s, z> - |z - a_theta|^2 / 2 rho^2)
        # is Gaussian with precision P + 1/rho^2 and mean
        # (a_theta/rho^2 + P c + s)/(P + 1/rho^2), written here from the raw
        # potential rather than from the moved center.
        rng = np.random.default_rng(7)
        p, c = np.array([0.5, 2.0]), rng.standard_normal((2, 2))
        quad = make_quadratic_group(np.tile(np.eye(2), (2, 1, 1)), precision=p, center=c)
        model = SplitModel(2, [quad])
        theta_star = np.array([1.5, -0.7])
        shift = quad.gradient(quad.couple(theta_star), ALL_BLOCKS)
        (group,) = center_model(model, theta_star).groups
        assert group.sampler is not None and group.mode is not None
        rho = 0.8
        a_theta = quad.couple(np.array([0.3, 0.9]))
        precision = p + 1.0 / rho**2
        mean = (a_theta / rho**2 + p * c + shift) / precision
        np.testing.assert_allclose(group.mode(a_theta, rho), mean, rtol=1e-12)
        draws = group.sampler(np.broadcast_to(a_theta, (4000, 2, 2)), rho,
                              np.random.default_rng(8))
        for j in range(2):
            for i in range(2):
                std = 1.0 / math.sqrt(precision[i])
                assert kstest(draws[:, j, i], norm(mean[j, i], std).cdf).pvalue > 1e-3

    def test_group_without_recenter_is_refused_when_off_center(self):
        quad = make_quadratic_group(np.eye(2)[None], precision=1.0, center=[1.0, 2.0])
        bare = SplitModel(2, [FactorGroup(quad.a, quad.value, quad.gradient, quad.m, quad.M)])
        with pytest.raises(UnsupportedModel, match="block 0"):
            center_model(bare, np.zeros(2))
        at_center = center_model(bare, np.array([1.0, 2.0]))
        assert at_center.groups[0] is bare.groups[0]

    @pytest.mark.parametrize("name, kwargs", [
        ("logistic-split1", {"d": 3, "n": 20, "seed": 1}),
        ("logistic-split2", {"d": 3, "n": 20, "b": 2, "seed": 1}),
        ("toy-gaussian-1", {"mu": 1.0}),
    ])
    def test_groups_are_freed_without_the_cycle_collector(self, name, kwargs):
        # The recenter hooks hold the group's data, not the group itself: a
        # group that referred to itself would live until a collection.
        model = build_model(name, **kwargs)
        theta_star = find_minimizer(model).theta_star + 0.25
        centered = center_model(model, theta_star)
        refs = [weakref.ref(model.groups[0]), weakref.ref(centered.groups[0])]
        enabled = gc.isenabled()
        gc.disable()
        try:
            del model, centered
            assert all(ref() is None for ref in refs)
        finally:
            if enabled:
                gc.enable()

    def test_unit_and_ones_designs_agree_after_centering(self):
        from splitmc.zoo import _logit_group
        n = 40
        model = build_model("logistic-split1", d=3, n=n, seed=4)
        x, y = model.data
        ones = SplitModel(3, [_logit_group(x[:, None, :], np.ones((n, 1, 1)), y[:, None],
                                           model.prior_alpha)])
        theta_star = find_minimizer(model).theta_star + 0.1
        (unit,) = center_model(model, theta_star).groups
        (explicit,) = center_model(ones, theta_star).groups
        z = 3.0 * np.random.default_rng(9).standard_normal((n, 1))
        subset = np.array([5, 0, 17, 39, 17])
        for rows, zr in ((ALL_BLOCKS, z), (subset, z[subset])):
            for fn in ("value", "gradient"):
                assert getattr(unit, fn)(zr, rows).tobytes() == \
                    getattr(explicit, fn)(zr, rows).tobytes()


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
        for c in ("m", "M"):
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

    @pytest.mark.parametrize("name, params", [
        ("logistic-split1", {}),
        ("logistic-split2", {"b": 1}),
        ("logistic-split2", {"b": 5}),
    ])
    @pytest.mark.parametrize("centered", [False, True], ids=["raw", "centered"])
    def test_logistic_kernels_match_scipy_residual(self, name, params, centered):
        # The kernels run on the half argument h = u/2 with np.tanh. Against
        # X^T (expit(u) - y + alpha u), with scipy's expit, and the sum of
        # np.logaddexp(0, u) - y u + (alpha/2) u^2, they agree within 1e-13
        # of the sum of their terms' magnitudes, on points with |u| from
        # 1e-3 to 1e3, whichever rows a call reads.
        from scipy.special import expit
        n, d = 60, 5
        model = build_model(name, d=d, n=n, seed=2, **params)
        x, y = model.data
        alpha = model.prior_alpha
        if name == "logistic-split1":
            design, labels = np.ones((n, 1, 1)), y[:, None]
        else:
            b = params["b"]
            design, labels = x.reshape(b, n // b, d), y.reshape(b, n // b)
        rng = np.random.default_rng(6)
        if centered:
            theta_c = rng.standard_normal(d)
            model = center_model(model, theta_c)
            u_star = np.einsum("bsk,bk->bs", design, model.groups[0].couple(theta_c))
            labels = labels + (expit(u_star) - labels + alpha * u_star)
        (group,) = model.groups
        b, k = group.b, group.k
        for rows in (ALL_BLOCKS, np.array([b - 1]), np.array([b - 1, 0, b - 1, 0])):
            r = b if rows is ALL_BLOCKS else rows.size
            x_r, y_r = design[rows], labels[rows]
            for _ in range(10):
                scale = 10.0 ** rng.uniform(-3.0, 3.0, size=(r, 1))
                z = scale * rng.standard_normal((r, k))
                u = np.einsum("rsk,rk->rs", x_r, z)
                terms = (expit(u), -y_r, alpha * u)
                want = np.einsum("rsk,rs->rk", x_r, sum(terms))
                scale = np.einsum("rsk,rs->rk", np.abs(x_r), sum(np.abs(t) for t in terms))
                assert np.all(np.abs(group.gradient(z, rows) - want) <= 1e-13 * scale)
                terms = (np.logaddexp(0.0, u), -y_r * u, 0.5 * alpha * u * u)
                want = np.sum(sum(terms), axis=1)
                scale = np.sum(sum(np.abs(t) for t in terms), axis=1)
                assert np.all(np.abs(group.value(z, rows) - want) <= 1e-13 * scale)

    def test_softplus_matches_logaddexp(self):
        # The zoo's softplus stays within 2 ulp of log(1 + e^u) as numpy's
        # logaddexp computes it, keeps the limits and raises nothing, even
        # where exp(-|u|) underflows.
        from splitmc.zoo import _softplus
        u = np.concatenate([np.linspace(-750.0, 750.0, 300_001), [0.0, 40.0, -40.0, 800.0]])
        special = np.array([np.inf, -np.inf, np.nan])
        with np.errstate(all="raise"):
            got = _softplus(u)
            limits = _softplus(special)
        ref = np.logaddexp(0.0, u)
        assert (got >= 0.0).all() and (ref >= 0.0).all()
        # Nonnegative doubles are ordered like their bit patterns.
        assert np.abs(got.view(np.int64) - ref.view(np.int64)).max() <= 2
        assert limits[0] == np.inf and limits[1] == 0.0 and np.isnan(limits[2])


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
