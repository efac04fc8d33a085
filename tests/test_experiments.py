"""Experiment harness: determinism, CSV conventions and desk-scale behavior."""

import math

import numpy as np
import pytest

from splitmc.cli import main
from splitmc.experiments import (
    ExperimentSpec,
    read_csv,
    run_bias_toy,
    run_gaussian_mixing,
    run_logistic,
    run_mixture,
    run_rate_toy,
)
from splitmc.model import ALL_BLOCKS


class TestSpecAndCsv:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec("frobnicate")

    def test_csv_headers_echo_config(self, tmp_path):
        spec = ExperimentSpec("bias-toy", {"n_grid": 12}, seed=9, out_dir=tmp_path)
        out = run_bias_toy(spec)
        config, rows = read_csv(out["csv"])
        assert config["seed"] == "9"
        assert config["experiment"] == "bias-toy"
        assert len(rows) == 12
        assert set(rows[0]) >= {"rho", "exact_tv", "tv_bound", "exact_w1", "w1_bound"}

    def test_validity_flag_visible_not_clamped(self, tmp_path):
        spec = ExperimentSpec("bias-toy", {}, seed=0, out_dir=tmp_path)
        run_bias_toy(spec)
        _, rows = read_csv(tmp_path / "bias_toy.csv")
        flags = {r["tv_bound_valid"] for r in rows}
        assert flags == {"True", "False"}  # the grid crosses the validity cap


class TestBiasToy:
    def test_domination_and_quadratic_decay(self, tmp_path):
        out = run_bias_toy(ExperimentSpec("bias-toy", {}, seed=1, out_dir=tmp_path))
        assert out["bounds_dominate"]
        assert 1.9 <= out["w1_small_rho_slope"] <= 2.1

    def test_deterministic(self, tmp_path):
        a = run_bias_toy(ExperimentSpec("bias-toy", {}, seed=4,
                                        out_dir=tmp_path / "a"))
        b = run_bias_toy(ExperimentSpec("bias-toy", {}, seed=4,
                                        out_dir=tmp_path / "b"))
        assert a["w1_small_rho_slope"] == b["w1_small_rho_slope"]
        _, rows_a = read_csv(a["csv"])
        _, rows_b = read_csv(b["csv"])
        assert rows_a == rows_b

    @pytest.mark.parametrize("mu", [3.5, 1e4, 1e8, 1e300, -1e300])
    def test_rows_depend_on_mu_only_through_the_mean_difference(self, mu, tmp_path):
        # Both laws share mu, so every exact distance and bound is that of mu = 0.
        for value, out in ((0.0, tmp_path / "zero"), (mu, tmp_path / "shifted")):
            run_bias_toy(ExperimentSpec("bias-toy", {"mu": value}, out_dir=out))
        assert read_csv(tmp_path / "shifted" / "bias_toy.csv")[1] == \
            read_csv(tmp_path / "zero" / "bias_toy.csv")[1]


class TestRateToy:
    def test_envelopes_and_slopes(self, tmp_path):
        out = run_rate_toy(ExperimentSpec("rate-toy", {}, seed=1, out_dir=tmp_path))
        assert out["envelopes_hold"]
        # The exact curves contract at twice the envelope rate here (variance
        # relaxation), so the slope ratio sits at 2 for both distances.
        assert 1.5 <= out["w1_slope_ratio"] <= 2.5
        assert out["tv_measured_slope"] < out["tv_bound_slope"] < 0

    @pytest.mark.parametrize("shift", [3.5, 1e4, 1e8, 1e200])
    def test_rows_depend_on_mu_only_through_theta0_minus_mu(self, shift, tmp_path):
        zero = run_rate_toy(ExperimentSpec("rate-toy", {}, out_dir=tmp_path / "zero"))
        shifted = run_rate_toy(ExperimentSpec("rate-toy", {"mu": shift, "theta0": shift},
                                              out_dir=tmp_path / "shifted"))
        assert shifted["envelopes_hold"]
        assert read_csv(shifted["csv"])[1] == read_csv(zero["csv"])[1]


_PINNED_DIMENSION = """\
# M = 1.0
# bit_generator = SFC64
# eps = 0.1
# experiment = gaussian-mixing/dimension
# fit_slope = 0.6578940231750076
# m = 0.25
# n_chains = 200
# replicates = 2
# seed = 7
d,replicate,rho2,k_sgs,t_theory,t_empirical,tv_noise_floor,hit_cap
8,0,0.0125,0.003115264797507788,2655,40,0.136084713738139,False
8,1,0.0125,0.003115264797507788,2655,31,0.14915210979744256,False
4,0,0.025,0.006211180124223602,907,17,0.1423107490721501,False
4,1,0.025,0.006211180124223602,907,28,0.12932948018616294,False
"""
_PINNED_KAPPA = """\
# bit_generator = SFC64
# d = 10
# eps = 0.1
# experiment = gaussian-mixing/kappa
# fit_slope = 0.627406949514412
# n_chains = 200
# replicates = 2
# seed = 7
kappa,replicate,rho2,k_sgs,branch,t_empirical,hit_cap
10.0,0,0.31622776601683794,0.03065343003171551,eps/sqrt(mM),20,False
10.0,1,0.31622776601683794,0.03065343003171551,eps/sqrt(mM),24,False
40.0,0,0.6324555320336759,0.015565279620747085,eps/sqrt(mM),60,False
40.0,1,0.6324555320336759,0.015565279620747085,eps/sqrt(mM),45,False
"""
_PINNED_PRECISION = """\
# bit_generator = SFC64
# d = 2
# experiment = gaussian-mixing/precision
# fit_slope_vs_log2eps_over_eps = 1.881175484670898
# kappa = 3.0
# n_chains = 2000
# replicates = 2
# seed = 7
eps,replicate,rho2,k_sgs,t_theory,t_empirical,tv_noise_floor,hit_cap
0.16,0,0.08,0.025974025974025972,143,4,0.04039557479625957,False
0.16,1,0.08,0.025974025974025972,143,4,0.037979352325092884,False
0.11,0,0.055,0.01800327332242226,227,11,0.04229173135854971,False
0.11,1,0.055,0.01800327332242226,227,10,0.037425454481166354,False
"""
_PINNED_KAPPA_CAPPED = """\
# bit_generator = SFC64
# d = 10
# eps = 0.03
# experiment = gaussian-mixing/kappa
# fit_slope = 0.49372991335459815
# n_chains = 200
# replicates = 2
# seed = 7
kappa,replicate,rho2,k_sgs,branch,t_empirical,hit_cap
10.0,0,0.09486832980505137,0.009397678771594581,eps/sqrt(mM),3100,True
10.0,1,0.09486832980505137,0.009397678771594581,eps/sqrt(mM),3100,True
12.0,0,0.10392304845413264,0.008585897980192901,eps/sqrt(mM),3392,True
12.0,1,0.10392304845413264,0.008585897980192901,eps/sqrt(mM),3392,True
"""


def test_rng_streams_are_sfc64_keyed_by_seed_and_key():
    from splitmc.experiments import _rng

    def draw(*key):
        return _rng(7, *key).standard_normal(8)

    assert isinstance(_rng(7, 1).bit_generator, np.random.SFC64)
    assert np.array_equal(draw(1, 2), draw(1, 2))
    streams = [draw(), draw(1), draw(2), draw(1, 2), draw(2, 1), _rng(8, 1).standard_normal(8)]
    assert len({s.tobytes() for s in streams}) == len(streams)


class TestGaussianMixing:
    def test_dimension_sweep_small(self, tmp_path):
        spec = ExperimentSpec("gaussian-mixing",
                              {"which": "dimension", "d_grid": (10, 20),
                               "replicates": 2, "n_chains": 2000},
                              seed=2, out_dir=tmp_path)
        out = run_gaussian_mixing(spec)
        _, rows = read_csv(tmp_path / "gaussian_mixing_dimension.csv")
        assert len(rows) == 4
        assert all(r["hit_cap"] == "False" for r in rows)
        # Larger dimension cannot mix faster under the prescribed width.
        t10 = np.mean([float(r["t_empirical"]) for r in rows if r["d"] == "10"])
        t20 = np.mean([float(r["t_empirical"]) for r in rows if r["d"] == "20"])
        assert t20 > t10

    def test_deterministic_given_seed(self, tmp_path):
        spec = dict(name="gaussian-mixing",
                    params={"which": "kappa", "kappa_grid": (10, 40),
                            "replicates": 2, "n_chains_w1": 500},
                    seed=6)
        a = run_gaussian_mixing(ExperimentSpec(**spec, out_dir=tmp_path / "a"))
        b = run_gaussian_mixing(ExperimentSpec(**spec, out_dir=tmp_path / "b"))
        assert a["kappa_slope"] == b["kappa_slope"]

    @pytest.mark.parametrize("params, pinned", [
        ({"d_grid": (8, 4), "replicates": 2, "n_chains": 200, "kappa_grid": (10, 40),
          "n_chains_w1": 200, "eps_grid": (0.16, 0.11), "n_chains_precision": 2000},
         {"dimension": _PINNED_DIMENSION, "kappa": _PINNED_KAPPA,
          "precision": _PINNED_PRECISION}),
        # Tight enough that the chains stop at the sweep cap.
        ({"which": "kappa", "eps": 0.03, "replicates": 2, "kappa_grid": (10, 12),
          "n_chains_w1": 200},
         {"kappa": _PINNED_KAPPA_CAPPED}),
    ])
    def test_mixing_times_are_pinned(self, params, pinned, tmp_path):
        # The seed-7 CSVs in full: the echo, the fitted slope and every row.
        # Changes to how the grid cells are scheduled, to the first-passage
        # loop or to the fit must leave them as they are. Under which=all the
        # kappa CSV echoes its own d, not a value of the dimension grid.
        # The pins changed once, when the experiments moved from PCG64 to
        # SFC64 streams and the mixing helpers from the two-draw sweep to
        # its one-draw AR(1) marginal: same law, other draws.
        run_gaussian_mixing(ExperimentSpec("gaussian-mixing", params, seed=7, out_dir=tmp_path))
        for which, text in pinned.items():
            assert (tmp_path / f"gaussian_mixing_{which}.csv").read_text(encoding="utf-8") == text

    def test_repeated_precision_value_is_fitted_once(self, tmp_path):
        # A repeated eps adds neither rows nor a point to the fit, as a
        # repeated d or kappa does not.
        assert main(["experiment", "gaussian-mixing", "--set", "which=precision",
                     "--set", "eps_grid=(0.2, 0.2, 0.3)", "--out", str(tmp_path)]) == 0
        config, rows = read_csv(tmp_path / "gaussian_mixing_precision.csv")
        assert [r["eps"] for r in rows] == ["0.2"] * 3 + ["0.3"] * 3
        once = run_gaussian_mixing(ExperimentSpec(
            "gaussian-mixing", {"which": "precision", "eps_grid": (0.2, 0.3)},
            out_dir=tmp_path / "once"))
        assert float(config["fit_slope_vs_log2eps_over_eps"]) == once["precision_slope"]

    @pytest.mark.parametrize("params, helper, at, result", [
        ({"which": "kappa", "kappa_grid": (10.2, 10.7)}, "_mixing_time_w1", 4, (1, False)),
        ({"which": "precision", "eps_grid": (0.0551, 0.0559)}, "_mixing_time_tv", 5,
         (1, 0.0, False)),
    ], ids=["kappa", "precision"])
    def test_grid_cells_draw_distinct_streams(self, params, helper, at, result, tmp_path,
                                              monkeypatch):
        # Grid values that share their integer part (or their thousandths)
        # still seed their replicates apart.
        from splitmc import experiments

        seeds = []

        def record(*args, **kwargs):
            seeds.append(args[at])
            return result

        monkeypatch.setattr(experiments, helper, record)
        run_gaussian_mixing(ExperimentSpec("gaussian-mixing", dict(params, replicates=2),
                                           seed=7, out_dir=tmp_path))
        assert len(seeds) == 4 and len(set(seeds)) == 4


    def test_repeated_dimension_runs_once_in_grid_order(self, tmp_path, monkeypatch):
        # Each distinct d runs its replicates once, and the rows keep the
        # order in which the grid first names each value.
        from splitmc import experiments

        calls = []

        def record(m, M, rho, eps, n_chains, seed, sweep_cap, n_bins=50):
            calls.append(seed)
            return 1, 0.0, False

        monkeypatch.setattr(experiments, "_mixing_time_tv", record)
        run_gaussian_mixing(ExperimentSpec(
            "gaussian-mixing", {"which": "dimension", "d_grid": (20, 10, 20), "replicates": 2},
            seed=7, out_dir=tmp_path))
        _, rows = read_csv(tmp_path / "gaussian_mixing_dimension.csv")
        assert len(calls) == 4 and len(set(calls)) == 4
        assert [r["d"] for r in rows] == ["20", "20", "10", "10"]


class TestPopulationSweepsMatchKernelLaws:
    """The replicate-vectorized sweeps are the same kernel as the engine."""

    def test_gaussian_population_matches_ar1_law(self):
        from splitmc import build_model
        from splitmc.experiments import _population_sweep

        (group,) = build_model("aniso-gaussian", d=2, m=0.25, M=1.0).groups
        q = np.array([0.25, 1.0])
        rho = 0.6
        rng = np.random.default_rng(11)
        n, t = 60_000, 12
        thetas = np.zeros((n, 2))
        for _ in range(t):
            thetas = _population_sweep(group, rho, thetas, rng)
        # Per coordinate: AR(1) with contraction 1/(1+q rho^2) and stationary
        # variance (1/q + rho^2) toward which the point mass relaxes.
        for j, qj in enumerate(q):
            c = 1.0 / (1.0 + qj * rho**2)
            v_inf = 1.0 / qj + rho**2
            v_t = v_inf * (1.0 - c ** (2 * t))
            se = v_t * math.sqrt(2.0 / n)
            assert abs(thetas[:, j].var() - v_t) <= 4 * se
            m_se = math.sqrt(v_t / n)
            assert abs(thetas[:, j].mean()) <= 4 * m_se

    def test_gaussian_population_single_chain_matches_engine_law(self):
        # One sweep of the engine on the matching zoo model agrees in
        # distribution with one vectorized population sweep.
        from splitmc import SamplerConfig, build_model, initial_state, sgs_sweep
        from splitmc.experiments import _population_sweep

        model = build_model("aniso-gaussian", d=3, m=0.25, M=1.0)
        q = np.linspace(0.25, 1.0, 3)
        rho = 0.5
        theta0 = np.array([1.0, -2.0, 0.5])
        n = 40_000
        rng = np.random.default_rng(12)
        pop = _population_sweep(model.groups[0], rho, np.tile(theta0, (n, 1)), rng)
        config = SamplerConfig(rho=rho, sweeps=1)
        eng = np.empty((4000, 3))
        for k in range(eng.shape[0]):
            state = initial_state(model, theta0, seed=90_000 + k)
            state, _ = sgs_sweep(model, state, config)
            eng[k] = state.theta
        for j in range(3):
            mean = theta0[j] / (1.0 + q[j] * rho**2)
            var = rho**2 / (1.0 + q[j] * rho**2) + rho**2
            for sample in (pop[:, j], eng[:, j]):
                se = math.sqrt(var / sample.size)
                assert abs(sample.mean() - mean) <= 4 * se

    def test_mixture_population_one_sweep_mean(self):
        from scipy.special import expit

        from splitmc.experiments import _population_sweep
        from splitmc.zoo import mixture_group

        a = np.array([0.5, 0.5])
        group = mixture_group(a, m=1.0 - float(a @ a))
        rho = 0.8
        theta0 = np.array([0.6, -0.2])
        n = 120_000
        rng = np.random.default_rng(13)
        out = _population_sweep(group, rho, np.tile(theta0, (n, 1)), rng)
        p1 = expit(2.0 * float(theta0 @ a) / (1.0 + rho**2))
        mean = (theta0 + (2.0 * p1 - 1.0) * a * rho**2) / (1.0 + rho**2)
        var_scale = rho**2 / (1 + rho**2) + rho**2 + (a @ a) * rho**4
        se = math.sqrt(var_scale / n)
        assert np.all(np.abs(out.mean(axis=0) - mean) <= 4 * se)


class TestFirstCoordinateShortcut:
    """The mixing helpers step coordinate 0 alone, one draw per sweep; its law is the d-dim one."""

    d, m, M, rho, t, n = 6, 0.25, 1.0, 0.6, 10, 50_000

    def _ar1_law(self, mean0, var0):
        a = 1.0 / (1.0 + self.rho**2 * self.m)
        v_inf = 1.0 / self.m + self.rho**2
        return a**self.t * mean0, a ** (2 * self.t) * var0 + v_inf * (1.0 - a ** (2 * self.t))

    def _step(self, thetas, rng, sweeps):
        """thetas after the given number of the helpers' one-draw steps."""
        from splitmc.experiments import _first_passage

        thetas = np.array(thetas, dtype=float)
        assert _first_passage(self.m, self.rho, thetas, rng, sweeps,
                              lambda x: math.inf, 0.0) == (sweeps, True)
        return thetas

    def _start(self, start, rng):
        """n draws of coordinate 0's start: N(0, 1/M) or the point mass at 1.5."""
        if start == "normal":
            return rng.standard_normal(self.n) / math.sqrt(self.M)
        return np.full(self.n, 1.5)

    def test_aniso_coordinate_zero_has_precision_m_and_top_precision_big_m(self):
        # What the runner relies on when it builds the twin from (m, M)
        # instead of the d-dimensional model: one identity-coupled zero-mean
        # block whose coordinate 0 has precision m and is coupled to no
        # other, and whose largest precision is M.
        from splitmc import zoo

        for d, m, big_m in ((1, 0.5, 0.5), (self.d, self.m, self.M), (10, 1.0 / 1600, 1.0)):
            (group,) = zoo.aniso_gaussian(d, m, big_m).groups
            e0 = np.eye(1, d)
            assert group.b == 1 and np.array_equal(group.a[0], np.eye(d))
            assert np.array_equal(group.gradient(np.zeros((1, d)), ALL_BLOCKS), np.zeros((1, d)))
            assert np.array_equal(group.gradient(e0, ALL_BLOCKS), m * e0)
            assert group.m[0] == m and group.M[0] == big_m

    @pytest.mark.parametrize("start", ["normal", "point"])
    def test_coordinate_zero_matches_ar1_law(self, start):
        # Coordinate 0 of the d-dimensional two-draw sweep and the one-draw
        # step both have the AR(1) law after t sweeps.
        from splitmc import zoo
        from splitmc.experiments import _population_sweep

        (full,) = zoo.aniso_gaussian(self.d, self.m, self.M).groups
        rng = np.random.default_rng(31)
        x0 = self._start(start, rng)
        mean0, var0 = (0.0, 1.0 / self.M) if start == "normal" else (1.5, 0.0)
        thetas = np.zeros((self.n, self.d))
        thetas[:, 0] = x0
        for _ in range(self.t):
            thetas = _population_sweep(full, self.rho, thetas, rng)
        mean_t, var_t = self._ar1_law(mean0, var0)
        for x in (thetas[:, 0], self._step(x0, rng, self.t)):
            assert abs(x.mean() - mean_t) <= 5 * math.sqrt(var_t / self.n)
            assert abs(x.var() - var_t) <= 5 * var_t * math.sqrt(2.0 / (self.n - 1))

    @pytest.mark.parametrize("start", ["normal", "point"])
    def test_one_draw_step_matches_the_sampler_sweep(self, start):
        # Two-sample KS at the 0.001 level: t one-draw steps against t
        # two-draw sweeps of the one-coordinate group's own closed-form
        # sampler, from the same start and on separate streams.
        from scipy.stats import ks_2samp

        from splitmc.experiments import _population_sweep
        from splitmc.model import make_quadratic_group

        group = make_quadratic_group(np.ones((1, 1, 1)), self.m, 0.0)
        x0 = self._start(start, np.random.default_rng(32))
        sweep = x0[:, None]
        rng = np.random.default_rng(33)
        for _ in range(self.t):
            sweep = _population_sweep(group, self.rho, sweep, rng)
        step = self._step(x0, np.random.default_rng(34), self.t)
        assert ks_2samp(step, sweep[:, 0]).pvalue > 1e-3

    def test_one_step_mean_factor_and_variance(self):
        # phi is the group's own shrink factor 1/(1 + rho^2 m) bit for bit,
        # scale^2 is rho^2 phi + rho^2, and one step from a point mass has
        # that mean and variance.
        from splitmc.experiments import _ar1_constants
        from splitmc.model import make_quadratic_group

        phi, scale = _ar1_constants(self.m, self.rho)
        group = make_quadratic_group(np.ones((1, 1, 1)), self.m, 0.0)
        assert phi == group.mode(np.ones((1, 1)), self.rho)[0, 0] == 1.0 / (1.0 + 0.6**2 * 0.25)
        var = self.rho**2 * phi + self.rho**2
        assert scale**2 == pytest.approx(var, rel=1e-15)
        x = self._step(np.full(self.n, 2.0), np.random.default_rng(35), 1)
        assert abs(x.mean() - 2.0 * phi) <= 5 * math.sqrt(var / self.n)
        assert abs(x.var() - var) <= 5 * var * math.sqrt(2.0 / (self.n - 1))

    def test_too_few_chains_refused(self, tmp_path, capfd):
        # A mixing time compares two or more chains; each part's chain count
        # is refused before any part runs.
        for part, key in (("dimension", "n_chains"), ("kappa", "n_chains_w1"),
                          ("precision", "n_chains_precision")):
            assert main(["experiment", "gaussian-mixing", "--set", f"which={part}",
                         "--set", f"{key}=1", "--out", str(tmp_path)]) == 2
            assert f"needs {key} >= 2, got 1" in capfd.readouterr().err
        assert not any(tmp_path.iterdir())


class TestMixture:
    def test_single_dimension_run(self, tmp_path):
        spec = ExperimentSpec("mixture", {"d_grid": (4,)}, seed=3, out_dir=tmp_path)
        out = run_mixture(spec)
        row = out["rows"][0]
        assert row["chi2_sgs"] < row["chi2_critical_5pct"]
        assert row["chi2_exact"] < row["chi2_critical_5pct"]
        assert row["t_mix_single"] >= 1 and row["t_mix_multi"] >= row["t_mix_single"]
        assert row["sgs_seconds_per_sweep"] > 0
        assert row["ula_seconds_per_sweep"] > 0


class TestLogistic:
    def test_tiny_grid(self, tmp_path):
        spec = ExperimentSpec("logistic",
                              {"d_grid": (2,), "n_grid": (40,), "b_grid": (2,),
                               "sweeps": 30},
                              seed=5, out_dir=tmp_path)
        out = run_logistic(spec)
        assert out["worst_avg_proposals"] <= 1.5
        strategies = {r["strategy"] for r in out["rows"]}
        assert strategies == {"split1", "split2"}
        for r in out["rows"]:
            assert r["kappa_ratio"] >= 1.0
