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


class TestExitCodes:
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
    ])
    def test_invalid_parameters_map_to_2(self, argv, tmp_path, capfd):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert "validity violation" in capfd.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_unknown_experiment_key_is_named(self, tmp_path, capfd):
        assert main(["experiment", "bias-toy", "--set", "n_gird=5", "--out", str(tmp_path)]) == 2
        assert "n_gird" in capfd.readouterr().err
        assert not any(tmp_path.iterdir())
