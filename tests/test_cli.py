"""CLI surface: subcommands, flags, output files and exit codes."""

import pytest

from splitmc.cli import main
from splitmc.engine import read_trace
from splitmc.experiments import read_csv


def run_cli(argv):
    return main(argv)


class TestPlanCommand:
    def test_w1_plan_row(self, capfd):
        assert run_cli(["plan", "--theorem", "w1", "--eps", "1.0",
                        "--m", "1.0", "--big-m", "1.0"]) == 0
        out = capfd.readouterr().out
        header, row = [l for l in out.splitlines() if not l.startswith("#")][:2]
        values = dict(zip(header.split(","), row.split(",")))
        assert float(values["rho2"]) == pytest.approx(1.0)
        assert int(values["t_mix"]) == 2

    def test_tv_multi_needs_model(self, capfd):
        assert run_cli(["plan", "--theorem", "tv-multi", "--eps", "0.1",
                        "--model", "gaussian-mixture", "--d", "12"]) == 0
        out = capfd.readouterr().out
        assert "TV-multi" in out

    def test_bad_epsilon_is_validity_exit(self, capfd):
        assert run_cli(["plan", "--theorem", "w1", "--eps", "2.0",
                        "--m", "1.0", "--big-m", "1.0"]) == 2

    def test_plan_to_file(self, tmp_path):
        out = tmp_path / "plan.csv"
        assert run_cli(["plan", "--theorem", "tv-single", "--eps", "0.1",
                        "--m", "0.5", "--big-m", "1.0", "--d", "60",
                        "--out", str(out)]) == 0
        config, rows = read_csv(out)
        assert rows[0]["t_mix"] == "38604"


class TestSampleCommand:
    def test_sample_with_trace(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(["sample", "--model", "toy-gaussian-1", "--rho", "1.0",
                        "--sweeps", "50", "--burn-in", "10", "--seed", "7",
                        "--trace", "--out", str(out)]) == 0
        config, rows = read_csv(out / "samples.csv")
        assert len(rows) == 40
        trace = read_trace(out / "chain.sgs1")
        assert trace.shape == (40, 1)
        assert float(rows[0]["theta_0"]) == pytest.approx(trace[0, 0])

    def test_trace_without_out_is_refused(self, tmp_path, monkeypatch, capfd):
        # The trace goes into the --out directory; without one nothing would be written.
        monkeypatch.chdir(tmp_path)
        assert run_cli(["sample", "--model", "toy-gaussian-1", "--rho", "1.0",
                        "--sweeps", "5", "--trace"]) == 2
        assert "--trace" in capfd.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_sample_deterministic(self, tmp_path):
        args = ["sample", "--model", "gaussian-mixture", "--d", "4",
                "--rho", "0.5", "--sweeps", "20", "--seed", "3"]
        run_cli(args + ["--out", str(tmp_path / "a")])
        run_cli(args + ["--out", str(tmp_path / "b")])
        _, rows_a = read_csv(tmp_path / "a" / "samples.csv")
        _, rows_b = read_csv(tmp_path / "b" / "samples.csv")
        assert rows_a == rows_b


class TestBiasCommand:
    def test_rows_and_validity(self, tmp_path):
        out = tmp_path / "bias.csv"
        assert run_cli(["bias", "--out", str(out)]) == 0
        config, rows = read_csv(out)
        assert len(rows) == 60  # TV and W1 rows per grid point
        assert {r["distance"] for r in rows} == {"TV", "W1"}
        for r in rows:
            if r["valid"] == "True":
                assert float(r["bound"]) >= float(r["exact_if_available"]) - 1e-12

    @pytest.mark.parametrize("mu", ["3.5", "1e4", "1e8", "1e300", "-1e300"])
    def test_rows_depend_on_mu_only_through_the_mean_difference(self, mu, tmp_path):
        assert run_cli(["bias", "--out", str(tmp_path / "zero.csv")]) == 0
        assert run_cli(["bias", f"--mu={mu}", "--out", str(tmp_path / "shifted.csv")]) == 0
        assert read_csv(tmp_path / "shifted.csv")[1] == read_csv(tmp_path / "zero.csv")[1]

    def test_strict_validity_exit_code(self, tmp_path):
        # The default grid crosses the multi-split validity cap.
        assert run_cli(["bias", "--strict-validity",
                        "--out", str(tmp_path / "b.csv")]) == 2


class TestExperimentCommand:
    def test_bias_toy_via_cli(self, tmp_path, capfd):
        assert run_cli(["experiment", "bias-toy", "--seed", "1",
                        "--out", str(tmp_path)]) == 0
        out = capfd.readouterr().out
        assert "bounds_dominate: True" in out
        assert (tmp_path / "bias_toy.csv").exists()

    def test_param_overrides(self, tmp_path):
        assert run_cli(["experiment", "logistic", "--seed", "2",
                        "--out", str(tmp_path),
                        "--set", "d_grid=(2,)", "--set", "n_grid=(40,)",
                        "--set", "b_grid=(2,)", "--set", "sweeps=20"]) == 0
        config, rows = read_csv(tmp_path / "logistic.csv")
        assert config["d_grid"] == "[2]"
        assert len(rows) == 2

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            run_cli(["experiment", "nope"])


# The plan and bias argvs of TestExitCodes whose only fault is a directory as --out.
_OUT_DIRECTORY_REFUSALS = (["plan", "--theorem", "w1", "--eps", "0.1"], ["bias"])


class TestExitCodes:
    def test_every_error_derives_from_one_exit_code_base(self):
        import inspect

        from splitmc import errors

        bases = (errors.ValidityError, errors.NumericalFailure)
        concrete = [c for _, c in inspect.getmembers(errors, inspect.isclass)
                    if issubclass(c, errors.SplitMCError)
                    and c not in (errors.SplitMCError, *bases)]
        assert len(concrete) == 12
        for cls in concrete:
            assert sum(issubclass(cls, base) for base in bases) == 1, cls
        assert [(b.exit_code, b.label) for b in bases] == [(2, "validity violation"),
                                                          (3, "numerical failure")]

    def test_missing_shape_or_smoothness_maps_to_2(self, monkeypatch, capfd):
        from splitmc import cli
        from splitmc.errors import DimensionMismatch, NotSmooth

        for error in (DimensionMismatch, NotSmooth):
            def boom(args, error=error):
                raise error("the model is outside the region")

            monkeypatch.setitem(cli._COMMANDS, "bias", boom)
            assert main(["bias"]) == 2
            assert "validity violation" in capfd.readouterr().err

    def test_numerical_failures_map_to_3(self, monkeypatch, capfd):
        from splitmc import cli
        from splitmc.errors import NonConvergence, NonFiniteDraw, QuadratureFailure

        for error in (QuadratureFailure, NonConvergence, NonFiniteDraw):
            def boom(args, error=error):
                raise error("numerics gave up")

            monkeypatch.setitem(cli._COMMANDS, "bias", boom)
            assert main(["bias"]) == 3
            assert "numerical failure" in capfd.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["experiment", "gaussian-mixing", "--set", "m=2"],
        ["experiment", "gaussian-mixing", "--set", "which=dimension", "--set", "n_chains=0"],
        ["experiment", "bias-toy", "--set", "n_grid"],
        ["experiment", "mixture", "--set", "a_norm=1.5"],
        ["sample", "--model", "aniso-gaussian", "--kappa", "0.5", "--rho", "0.5",
         "--sweeps", "5"],
        ["sample", "--model", "toy-gaussian-1", "--rho", "0", "--sweeps", "5"],
        ["sample", "--model", "toy-gaussian-1", "--rho", "nan", "--sweeps", "5"],
        ["sample", "--model", "toy-gaussian-1", "--rho", "inf", "--sweeps", "5"],
        ["experiment", "gaussian-mixing", "--set", "which=dimension", "--set", "replicates=0"],
        ["experiment", "rate-toy", "--set", "sigma=0"],
        ["experiment", "bias-toy", "--set", "n_grid=0"],
        ["experiment", "gaussian-mixing", "--set", "which=nope"],
        ["experiment", "mixture", "--set", "d_grid=()"],
        ["sample", "--model", "toy-gaussian-1", "--b", "0", "--rho", "1"],
        ["sample", "--model", "logistic-split1", "--n", "0", "--rho", "0.5"],
        ["sample", "--model", "logistic-split2", "--n", "0", "--b", "1", "--rho", "0.5"],
        ["sample", "--model", "logistic-split1", "--d", "0", "--rho", "0.5"],
        ["sample", "--model", "logistic-split2", "--d", "0", "--n", "10", "--b", "2",
         "--rho", "0.5"],
        ["sample", "--model", "aniso-gaussian", "--kappa", "0", "--rho", "0.5"],
        ["sample", "--model", "gaussian-mixture", "--d", "0", "--rho", "0.5", "--sweeps", "2"],
        ["bias", "--grid-points", "0"],
        ["plan", "--theorem", "tv-ns", "--eps", "0.1", "--d", "0"],
        ["experiment", "mixture", "--set", "ula_sweeps=0"],
        ["experiment", "mixture", "--set", "n_bins=1"],
        ["experiment", "mixture", "--set", "n_samples=0"],
        ["sample", "--model", "toy-gaussian-1", "--rho", "1", "--sweeps", "3", "--seed", "-1"],
        ["experiment", "gaussian-mixing", "--set", "which=dimension", "--set", "d_grid=(4,)",
         "--set", "replicates=1", "--set", "n_chains=10", "--seed", "-1"],
        ["sample", "--model", "logistic-split1", "--d", "3", "--n", "10", "--rho", "0.5",
         "--sweeps", "2", "--data-seed", "-1"],
        ["plan", "--theorem", "tv-multi", "--eps", "0.1", "--model", "logistic-split1",
         "--d", "3", "--n", "10", "--data-seed", "-2"],
        ["sample", "--model", "logistic-split1", "--n", "5", "--d", "2", "--rho", "1e-200"],
        ["sample", "--model", "logistic-split1", "--n", "5", "--d", "2", "--rho", "1e-160"],
        ["sample", "--model", "toy-gaussian-1", "--rho", "1e160"],
        ["sample", "--model", "toy-gaussian-1", "--sigma", "1e200", "--rho", "1"],
        ["plan", "--theorem", "tv-multi", "--model", "toy-gaussian-1", "--sigma", "1e-200",
         "--eps", "0.1"],
        ["bias", "--sigma", "1e-300", "--b", "1"],
        ["plan", "--theorem", "tv-single", "--m", "1e-300", "--big-m", "1e300", "--d", "5",
         "--eps", "0.1"],
        ["experiment", "gaussian-mixing", "--set", "which=dimension", "--set", "d_grid=(4, 4)"],
        ["experiment", "gaussian-mixing", "--set", "which=kappa", "--set", "kappa_grid=(10,)"],
        ["experiment", "gaussian-mixing", "--set", "which=precision", "--set", "eps_grid=(0.1,)"],
        ["experiment", "mixture", "--set", "d_grid=4"],
        ["experiment", "logistic", "--set", "d_grid=2"],
        ["plan", "--theorem", "w1", "--eps", "0.1"],
        ["bias"],
        ["experiment", "logistic", "--set", "b_grid=(0,)"],
        ["experiment", "rate-toy", "--set", "rho=1e200"],
        ["experiment", "rate-toy", "--set", "sigma=1e-200"],
        ["experiment", "gaussian-mixing", "--set", "which=kappa", "--set", "d=0"],
        ["experiment", "gaussian-mixing", "--set", "which=precision",
         "--set", "kappa_precision=0.5"],
        ["experiment", "gaussian-mixing", "--set", "which=precision", "--set", "d_precision=0"],
        ["experiment", "gaussian-mixing", "--set", "which=precision",
         "--set", "kappa_precision=0"],
        ["experiment", "gaussian-mixing", "--set", "which=kappa", "--set", "kappa_grid=(0,10)"],
        # Refused before the dimension and kappa parts run and write their CSVs.
        ["experiment", "gaussian-mixing", "--set", "d_precision=0"],
        # M = inf would give aniso-gaussian NaN precisions.
        ["plan", "--theorem", "tv-multi", "--model", "aniso-gaussian", "--big-m", "inf",
         "--eps", "0.1"],
        ["sample", "--model", "aniso-gaussian", "--big-m", "inf", "--rho", "0.5",
         "--sweeps", "2"],
        ["bias", "--mu", "nan"],
        ["plan", "--theorem", "tv-multi", "--eps", "0.1", "--model", "toy-gaussian-1",
         "--mu", "nan"],
        ["experiment", "bias-toy", "--set", "log10_rho_max=-1e300"],
        ["experiment", "bias-toy", "--set", "mu=inf"],
    ])
    def test_invalid_parameters_map_to_2(self, argv, tmp_path, capfd):
        # plan and bias write one CSV file and refuse a directory as --out
        # before anything else, so they are given a file path, except in the
        # argvs that check that refusal.
        writes_file = argv[0] in ("plan", "bias") and argv not in _OUT_DIRECTORY_REFUSALS
        out = tmp_path / "out.csv" if writes_file else tmp_path
        assert main(argv + ["--out", str(out)]) == 2
        assert "validity violation" in capfd.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("name, setting", [
        ("bias-toy", "b=2.5"), ("rate-toy", "t_max=3.9"), ("logistic", "sweeps=2.9"),
        ("mixture", "n_bins=2.5"), ("gaussian-mixing", "replicates=True"),
        ("bias-toy", "n_grid=x"), ("rate-toy", "b=inf"),
        ("gaussian-mixing", "kappa_grid=(10,'x')"),
    ])
    def test_set_values_of_another_kind_map_to_2(self, name, setting, tmp_path, capfd):
        # A count is an integral number, never a bool; a number is not a
        # word; and a grid holds elements of its default's kind. Each is
        # refused before anything runs, naming the experiment and the key.
        from splitmc.cli import _parse_set

        ((key, value),) = _parse_set([setting]).items()
        assert main(["experiment", name, "--set", setting, "--out", str(tmp_path)]) == 2
        err = capfd.readouterr().err
        assert f"validity violation: {name} reads {key} as " in err
        assert err.rstrip().endswith(f"got {value!r}")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        # plan refuses a directory as --out before it plans, so these argvs
        # name a file: a growth term or ridge that underflows, a width or a
        # step count that is not finite.
        ["--theorem", "w1", "--eps", "1e-300", "--m", "1e-300"],
        ["--theorem", "w1", "--eps", "0.1", "--m", "1e-320", "--big-m", "1e-320"],
        ["--theorem", "tv-ns", "--eps", "1e-300", "--R", "1e300"],
        ["--theorem", "w1", "--eps", "0.1", "--m", "1e-320", "--big-m", "1e300"],
        ["--theorem", "w1", "--eps", "0.1", "--m", "inf", "--big-m", "inf"],
        ["--theorem", "tv-single", "--eps", "1e-300", "--m", "1e-10"],
        # sigma_U^4 overflows, and sigma_U^2 itself, and (sum d_i M_i)^2 underflows.
        ["--theorem", "tv-multi", "--model", "aniso-gaussian", "--kappa", "1e300", "--d", "3",
         "--eps", "0.1"],
        ["--theorem", "tv-multi", "--model", "aniso-gaussian", "--big-m", "1e200", "--d", "3",
         "--eps", "0.1"],
        ["--theorem", "tv-multi", "--model", "aniso-gaussian", "--big-m", "1e-200", "--d", "3",
         "--eps", "0.1"],
    ])
    def test_degenerate_plans_map_to_2(self, argv, tmp_path, capfd):
        out = tmp_path / "plan.csv"
        assert main(["plan", *argv, "--out", str(out)]) == 2
        assert "validity violation" in capfd.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("setting", [
        # The contraction rounds to 1, or no point of a curve is left to fit,
        # or a mean is not finite, or a square overflows.
        "sigma=1e8", "rho=1e-8", "rho=1e4", "rho=1e8", "sigma=1e-8",
        "mu=inf", "mu=nan", "theta0=inf", "theta0=nan",
        "mu=1e200", "mu=1e300", "theta0=1e200", "theta0=1e300",
    ])
    def test_rate_toy_refuses_what_it_cannot_compute(self, setting, tmp_path):
        assert main(["experiment", "rate-toy", "--set", setting, "--out", str(tmp_path)]) in (0, 2)

    def test_rate_toy_at_a_wide_sigma_holds_its_envelopes(self, tmp_path, capfd):
        assert main(["experiment", "rate-toy", "--set", "sigma=1e4", "--out", str(tmp_path)]) == 0
        assert "envelopes_hold: True" in capfd.readouterr().out

    def test_bias_toy_refuses_a_slope_over_exact_zeros(self, tmp_path, capfd):
        # At this sigma the exact TV rounds to 0 in the smallest decade, so
        # its log-log slope would be NaN; the run is refused before its CSV.
        assert main(["experiment", "bias-toy", "--set", "sigma=348045.01",
                     "--out", str(tmp_path)]) == 2
        out, err = capfd.readouterr()
        assert "nan" not in out and "exact_tv" in err
        assert not any(tmp_path.iterdir())

    def test_unknown_experiment_key_is_named(self, tmp_path, capfd):
        assert main(["experiment", "bias-toy", "--set", "n_gird=5", "--out", str(tmp_path)]) == 2
        assert "n_gird" in capfd.readouterr().err
        assert not any(tmp_path.iterdir())
