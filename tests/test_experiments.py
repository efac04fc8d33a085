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
# eps = 0.1
# experiment = gaussian-mixing/dimension
# fit_slope = 1.0418201756946273
# m = 0.25
# n_chains = 200
# replicates = 2
# seed = 7
d,replicate,rho2,k_sgs,t_theory,t_empirical,tv_noise_floor,hit_cap
8,0,0.0125,0.003115264797507788,2655,21,0.1387994259233182,False
8,1,0.0125,0.003115264797507788,2655,49,0.11590079685175679,False
4,0,0.025,0.006211180124223602,907,12,0.1356977913674797,False
4,1,0.025,0.006211180124223602,907,22,0.1329066081725387,False
"""
_PINNED_KAPPA = """\
# d = 10
# eps = 0.1
# experiment = gaussian-mixing/kappa
# fit_slope = 0.6648527227395403
# n_chains = 200
# replicates = 2
# seed = 7
kappa,replicate,rho2,k_sgs,branch,t_empirical,hit_cap
10.0,0,0.31622776601683794,0.03065343003171551,eps/sqrt(mM),15,False
10.0,1,0.31622776601683794,0.03065343003171551,eps/sqrt(mM),22,False
40.0,0,0.6324555320336759,0.015565279620747085,eps/sqrt(mM),48,False
40.0,1,0.6324555320336759,0.015565279620747085,eps/sqrt(mM),45,False
"""
_PINNED_PRECISION = """\
# d = 2
# experiment = gaussian-mixing/precision
# fit_slope_vs_log2eps_over_eps = 2.318786324267989
# kappa = 3.0
# n_chains = 2000
# replicates = 2
# seed = 7
eps,replicate,rho2,k_sgs,t_theory,t_empirical,tv_noise_floor,hit_cap
0.16,0,0.08,0.025974025974025972,143,3,0.03554095076831859,False
0.16,1,0.08,0.025974025974025972,143,4,0.03684196444290372,False
0.11,0,0.055,0.01800327332242226,227,10,0.045358558114440915,False
0.11,1,0.055,0.01800327332242226,227,13,0.03903811280752414,False
"""
_PINNED_KAPPA_CAPPED = """\
# d = 10
# eps = 0.03
# experiment = gaussian-mixing/kappa
# fit_slope = 2.4538186350721576
# n_chains = 200
# replicates = 2
# seed = 7
kappa,replicate,rho2,k_sgs,branch,t_empirical,hit_cap
10.0,0,0.09486832980505137,0.009397678771594581,eps/sqrt(mM),1237,False
10.0,1,0.09486832980505137,0.009397678771594581,eps/sqrt(mM),3100,True
12.0,0,0.10392304845413264,0.008585897980192901,eps/sqrt(mM),3392,True
12.0,1,0.10392304845413264,0.008585897980192901,eps/sqrt(mM),3392,True
"""


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
        # Tight enough that some chains stop at the sweep cap.
        ({"which": "kappa", "eps": 0.03, "replicates": 2, "kappa_grid": (10, 12),
          "n_chains_w1": 200},
         {"kappa": _PINNED_KAPPA_CAPPED}),
    ])
    def test_mixing_times_are_pinned(self, params, pinned, tmp_path):
        # The seed-7 CSVs in full: the echo, the fitted slope and every row.
        # Changes to how the grid cells are scheduled, to the first-passage
        # loop or to the fit must leave them as they are. Under which=all the
        # kappa CSV echoes its own d, not a value of the dimension grid.
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
    """The mixing helpers step coordinate 0 alone; its law is the d-dim one."""

    d, m, M, rho, t, n = 6, 0.25, 1.0, 0.6, 10, 50_000

    def _ar1_law(self, mean0, var0):
        a = 1.0 / (1.0 + self.rho**2 * self.m)
        v_inf = 1.0 / self.m + self.rho**2
        return a**self.t * mean0, a ** (2 * self.t) * var0 + v_inf * (1.0 - a ** (2 * self.t))

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
        from splitmc import zoo
        from splitmc.experiments import _coordinate_zero, _population_sweep

        (full,) = zoo.aniso_gaussian(self.d, self.m, self.M).groups
        one = _coordinate_zero(self.m)
        assert one.m[0] == self.m and one.d == 1
        rng = np.random.default_rng(31)
        if start == "normal":  # N(0, I/M)
            mean0, var0 = 0.0, 1.0 / self.M
            pops = [(full, rng.standard_normal((self.n, self.d)) / math.sqrt(self.M)),
                    (one, rng.standard_normal((self.n, 1)) / math.sqrt(self.M))]
        else:  # point mass at 1.5 e_0
            mean0, var0 = 1.5, 0.0
            start_full = np.zeros((self.n, self.d))
            start_full[:, 0] = 1.5
            pops = [(full, start_full), (one, np.full((self.n, 1), 1.5))]
        mean_t, var_t = self._ar1_law(mean0, var0)
        for group, thetas in pops:
            for _ in range(self.t):
                thetas = _population_sweep(group, self.rho, thetas, rng)
            x = thetas[:, 0]
            assert abs(x.mean() - mean_t) <= 5 * math.sqrt(var_t / self.n)
            assert abs(x.var() - var_t) <= 5 * var_t * math.sqrt(2.0 / (self.n - 1))

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
