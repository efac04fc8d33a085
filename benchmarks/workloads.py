"""The benchmark workloads: set-up, one timed operation, and output checks.

Each workload is driven in a closed loop by harness.run_loop: one caller
runs one chain (logistic workloads) or one batch (gaussian-batch) at a
time and starts the next only when the previous one has returned. All
inputs come from the workload seed. The library is called through its module
attributes, so the traced run sees every call at the layer boundaries.
"""

from __future__ import annotations

import math
import shutil
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.special import pbdv
from scipy.stats import chi2

from splitmc import bias, conditionals, engine, experiments, planner, zoo
from splitmc import model as model_layer

# Captured before any tracing, so the benchmark's own seed derivation is
# never recorded as library work.
_SeedSequence = np.random.SeedSequence

# Tolerance of the Monte Carlo checks, in standard errors. At 5 sigma a
# correct sampler fails one check in about two million.
MC_SIGMAS = 5.0
# The mixture chi-square check runs at this level, not at the 5% level the
# experiment reports, because the benchmark repeats it thousands of times.
CHI2_LEVEL = 1e-6
# Precision of the multi-split TV plan that sets logistic-rows' width.
PLAN_EPS = 0.01
# The Lipschitz bound must match the reference parabolic-cylinder values
# (scipy.special.pbdv) to this relative accuracy.
LIPSCHITZ_RTOL = 1e-7


# The gaussian-batch phases, in the order they run; the middle four are
# the experiments module's own runners.
PHASES = ("toy_chain", "gaussian_mixing_dimension", "gaussian_mixing_kappa",
          "mixture", "bias_toy", "lipschitz_grid")
EXPERIMENT_PHASES = PHASES[1:5]


def derive_seed(seed: int, *key: int) -> int:
    return int(_SeedSequence(seed, spawn_key=key).generate_state(1)[0])


def no_span(name: str, phase: bool = False):
    return nullcontext()


@dataclass
class OpResult:
    """What one timed operation produced.

    Times are perf_counter() readings. `wall_s` excludes the speed probes
    taken inside the operation; `sweeps` holds one (start, end) row per
    timed sweep, also free of probes.
    """

    start: float
    end: float
    wall_s: float
    sweeps: np.ndarray
    failures: list[str]
    fingerprint: bytes
    counts: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict)


class ChainClock:
    """run_chain callback: stamps each sweep and probes the host speed between sweeps."""

    def __init__(self, probe):
        self.probe = probe
        self.stamps: list[float] = []
        self.resumes: list[float] = []
        self.reports: list = []

    def __call__(self, t, state, reports):
        self.stamps.append(perf_counter())
        self.reports.append(reports)
        self.probe.maybe()
        self.resumes.append(perf_counter())

    def sweeps(self) -> np.ndarray:
        """(start, end) of every sweep after the first, probe time excluded."""
        return np.column_stack([self.resumes[:-1], self.stamps[1:]]).reshape(-1, 2)


# ---------------------------------------------------------------------------
# Logistic regression: one long chain per operation


@dataclass
class LogisticSetup:
    model: object
    theta_star: np.ndarray
    rho: float
    m_U: float
    minimizer_iters: int


class LogisticWorkload:
    """logistic-split1 (rows) or logistic-split2 (shards) at d=10, n=1000."""

    def __init__(self, name: str, zoo_name: str, d: int, n: int, sweeps: int,
                 rho_rule: str, b: int | None = None):
        self.name = name
        self.zoo_name = zoo_name
        self.d, self.n, self.b = d, n, b
        self.sweeps = sweeps
        self.rho_rule = rho_rule

    def setup(self, seed: int, span=no_span) -> LogisticSetup:
        params = {"d": self.d, "n": self.n, "seed": derive_seed(seed, 0)}
        if self.b is not None:
            params["b"] = self.b
        with span("bench.setup"):
            model = zoo.build_model(self.zoo_name, **params)
            minimizer = model_layer.find_minimizer(model)
            theta_star = minimizer.theta_star
            centered = model_layer.center_model(model, theta_star)
            consts = model_layer.model_constants(centered)
            plan = planner.plan_tv_multi(centered, PLAN_EPS, theta_star=theta_star,
                                         constants=consts)
            if self.rho_rule == "plan":
                rho = plan.rho
            else:
                # Edge of the at-most-2-proposals regime:
                # rho^2 = 1 / max_i (2 d_i (M_i - m_i) - m_i).
                worst = max(2.0 * d_i * (M_i - m_i) - m_i for d_i, M_i, m_i
                            in zip(consts.dims, consts.M_list, consts.m_list))
                rho = math.sqrt(1.0 / worst)
            conditionals.ThetaConditional(centered, rho)
        return LogisticSetup(model=centered, theta_star=theta_star, rho=rho,
                             m_U=consts.m_U, minimizer_iters=minimizer.iterations)

    def run_op(self, setup: LogisticSetup, seed: int, k: int, probe, span=no_span) -> OpResult:
        clock = ChainClock(probe)
        config = engine.SamplerConfig(rho=setup.rho, sweeps=self.sweeps)
        probed = probe.total_s
        with span("bench.op"):
            t0 = perf_counter()
            report = engine.run_chain(setup.model, config, seed=derive_seed(seed, 1, k),
                                      theta0=setup.theta_star, callback=clock)
            t1 = perf_counter()
        reports = [r for reps in clock.reports for r in reps if r is not None]
        counts = {
            "draws": len(reports),
            "proposals": sum(r.proposals_used for r in reports),
            "gd_steps": sum(r.warm_start_gd_steps for r in reports),
            "expected": sum(r.expected_bound for r in reports),
        }
        return OpResult(start=t0, end=t1, wall_s=t1 - t0 - (probe.total_s - probed),
                        sweeps=clock.sweeps(), failures=self.check(setup, report, reports),
                        fingerprint=report.thetas.tobytes(), counts=counts)

    def check(self, setup, report, reports) -> list[str]:
        failures = []
        z_finite = all(np.all(np.isfinite(z)) for z in report.final_state.z_blocks)
        if report.thetas.shape != (self.sweeps, self.d) or not np.all(np.isfinite(report.thetas)):
            failures.append("non-finite or missing theta draws")
        elif not z_finite:
            failures.append("non-finite auxiliary draws")
        else:
            # The target is m_U-strongly log-concave around theta*, so
            # P(|theta - theta*| > sqrt(d/m_U) + r) <= exp(-m_U r^2 / 2).
            radius = math.sqrt(self.d / setup.m_U) + 10.0 / math.sqrt(setup.m_U)
            dist = np.linalg.norm(report.thetas - setup.theta_star, axis=1).max()
            if dist > radius:
                failures.append(f"draw {dist:.3g} from theta*, beyond {radius:.3g}")
        if self.rho_rule == "two-proposal-edge":
            if not report.max_avg_proposals <= 2.0:
                failures.append(f"max_avg_proposals {report.max_avg_proposals} > 2")
            worst = max(r.expected_bound for r in reports)
            if not worst <= 2.0:
                failures.append(f"expected-proposal certificate {worst} > 2")
        return failures


# ---------------------------------------------------------------------------
# Gaussian-family batch: closed-form blocks and the population experiments


@dataclass
class GaussianSetup:
    model: object
    rho: float


class GaussianBatchWorkload:
    """toy chain, gaussian-mixing (dimension, kappa), mixture, bias-toy, Lipschitz grid."""

    name = "gaussian-batch"
    sigma, b, mu, rho = 3.0, 10, 0.0, 1.0

    def __init__(self, toy_sweeps: int, burn_in: int, dimension: dict, kappa: dict,
                 mixture: dict, bias_toy: dict, lipschitz_dims, lipschitz_rhos, out_dir: Path):
        self.toy_sweeps = toy_sweeps
        self.burn_in = burn_in
        self.params = {"dimension": dict(dimension, which="dimension"),
                       "kappa": dict(kappa, which="kappa"),
                       "mixture": dict(mixture), "bias_toy": dict(bias_toy)}
        self.lipschitz_grid = [(d, float(r)) for d in lipschitz_dims for r in lipschitz_rhos]
        self.out_dir = out_dir
        # Ground truth that does not depend on the seed.
        s2, r2 = self.sigma**2, self.rho**2
        self.toy_var = (s2 + r2) / self.b
        self.toy_phi = s2 / (s2 + r2)
        self.lipschitz_ref = [1.0 - pbdv(-d, r)[0] / pbdv(-d, -r)[0]
                              for d, r in self.lipschitz_grid]
        self.chi2_crit = float(chi2.ppf(1.0 - CHI2_LEVEL, int(mixture["n_bins"]) - 1))

    def setup(self, seed: int, span=no_span) -> GaussianSetup:
        with span("bench.setup"):
            model = zoo.build_model("toy-gaussian-1", sigma=self.sigma, b=self.b, mu=self.mu)
            model_layer.model_constants(model)
            planner.k_sgs(model, self.rho)
            conditionals.ThetaConditional(model, self.rho)
        return GaussianSetup(model=model, rho=self.rho)

    def run_op(self, setup: GaussianSetup, seed: int, k: int, probe, span=no_span) -> OpResult:
        phases = {}

        @contextmanager
        def phase(name):
            probe.probe()
            with span("bench.phase." + name, phase=True):
                t0 = perf_counter()
                yield
                phases[name] = (t0, perf_counter())

        exp_seed = derive_seed(seed, 2, k)
        out = self.out_dir / f"op{k}"

        def spec(name, key):
            return experiments.ExperimentSpec(name, self.params[key], seed=exp_seed, out_dir=out)

        clock = ChainClock(probe)
        config = engine.SamplerConfig(rho=setup.rho, sweeps=self.toy_sweeps, burn_in=self.burn_in)
        probed = probe.total_s
        with span("bench.op"):
            t0 = perf_counter()
            with phase("toy_chain"):
                chain = engine.run_chain(setup.model, config, seed=derive_seed(seed, 1, k),
                                         theta0=np.full(1, self.mu), callback=clock)
            with phase("gaussian_mixing_dimension"):
                dim_out = experiments.run_experiment(spec("gaussian-mixing", "dimension"))
            with phase("gaussian_mixing_kappa"):
                kappa_out = experiments.run_experiment(spec("gaussian-mixing", "kappa"))
            with phase("mixture"):
                mix_out = experiments.run_experiment(spec("mixture", "mixture"))
            with phase("bias_toy"):
                bias_out = experiments.run_experiment(spec("bias-toy", "bias_toy"))
            with phase("lipschitz_grid"):
                lip = [bias.tv_bound_lipschitz([1.0], [d], r) for d, r in self.lipschitz_grid]
            probe.probe()
            t1 = perf_counter()

        dim_rows = experiments.read_csv(dim_out["csv"][0])[1]
        kappa_rows = experiments.read_csv(kappa_out["csv"][0])[1]
        bias_rows = experiments.read_csv(bias_out["csv"])[1]
        shutil.rmtree(out, ignore_errors=True)
        failures = (self._check_toy(chain.thetas[:, 0])
                    + self._check_mixing(dim_rows, kappa_rows)
                    + self._check_mixture(mix_out["rows"])
                    + self._check_bias(bias_out, lip))
        # Everything seed-determined; the timing columns are left out.
        fingerprint = repr((
            chain.thetas.tobytes(),
            [(r["d"], r["t_empirical"], r["tv_noise_floor"]) for r in dim_rows],
            [(r["kappa"], r["t_empirical"]) for r in kappa_rows],
            [(r["d"], r["chi2_sgs"], r["chi2_exact"]) for r in mix_out["rows"]],
            bias_rows, [v.raw_value for v in lip],
        )).encode()
        return OpResult(start=t0, end=t1, wall_s=t1 - t0 - (probe.total_s - probed),
                        sweeps=clock.sweeps(), failures=failures, fingerprint=fingerprint,
                        phases=phases)

    def _check_toy(self, x) -> list[str]:
        """Mean and variance against N(mu, (sigma^2 + rho^2)/b).

        The chain is AR(1) with coefficient phi = sigma^2/(sigma^2 + rho^2),
        so the Monte Carlo standard errors are known in closed form.
        """
        n, phi, var = x.size, self.toy_phi, self.toy_var
        se_mean = math.sqrt(var / n * (1.0 + phi) / (1.0 - phi))
        se_var = var * math.sqrt(2.0 / n * (1.0 + phi**2) / (1.0 - phi**2))
        failures = []
        if not np.all(np.isfinite(x)):
            return ["toy chain: non-finite draws"]
        if abs(x.mean() - self.mu) > MC_SIGMAS * se_mean:
            failures.append(f"toy chain mean {x.mean():.4g}, expected {self.mu} "
                            f"+- {MC_SIGMAS * se_mean:.3g}")
        if abs(x.var() - var) > MC_SIGMAS * se_var:
            failures.append(f"toy chain variance {x.var():.4g}, expected {var:.4g} "
                            f"+- {MC_SIGMAS * se_var:.3g}")
        return failures

    @staticmethod
    def _check_mixing(dim_rows, kappa_rows) -> list[str]:
        failures = []
        for r in dim_rows + kappa_rows:
            if r["hit_cap"] != "False":
                failures.append(f"gaussian-mixing hit its sweep cap: {r}")
        for r in dim_rows:
            if int(r["t_empirical"]) > int(r["t_theory"]):
                failures.append(f"gaussian-mixing d={r['d']}: empirical mixing time "
                                f"{r['t_empirical']} exceeds the planned {r['t_theory']}")
        return failures

    def _check_mixture(self, rows) -> list[str]:
        return [f"mixture d={r['d']}: chi2 {r['chi2_sgs']:.4g} >= {self.chi2_crit:.4g}"
                for r in rows if not r["chi2_sgs"] < self.chi2_crit]

    def _check_bias(self, bias_out, lip) -> list[str]:
        failures = []
        if bias_out["bounds_dominate"] is not True:
            failures.append("bias-toy: bounds do not dominate the exact distances")
        if not 1.9 <= bias_out["w1_small_rho_slope"] <= 2.1:
            failures.append(f"bias-toy: W1 small-rho slope {bias_out['w1_small_rho_slope']:.4g}")
        for (d, r), bound, ref in zip(self.lipschitz_grid, lip, self.lipschitz_ref):
            if not abs(bound.raw_value - ref) <= LIPSCHITZ_RTOL * abs(ref):
                failures.append(f"Lipschitz bound d={d} rho={r:.4g}: {bound.raw_value!r} "
                                f"vs reference {ref!r}")
        return failures


# ---------------------------------------------------------------------------


def make_workload(name: str, scale: str, out_dir: Path):
    """Build a workload at full size or at the toy size of the self-test."""
    full = scale == "full"
    if name == "logistic-rows":
        return LogisticWorkload(name, "logistic-split1", d=10, n=1000 if full else 100,
                                sweeps=20 if full else 3, rho_rule="plan")
    if name == "logistic-shards":
        return LogisticWorkload(name, "logistic-split2", d=10, n=1000 if full else 100,
                                b=5, sweeps=400 if full else 20, rho_rule="two-proposal-edge")
    if name == "gaussian-batch":
        # Two (d, replicate) jobs: the dimension experiment's thread pool
        # starts two workers.
        if full:
            return GaussianBatchWorkload(
                toy_sweeps=2000, burn_in=100,
                dimension={"d_grid": (10, 20), "replicates": 1, "n_chains": 2000},
                kappa={"kappa_grid": (10, 40, 160), "replicates": 1, "n_chains_w1": 2000},
                mixture={"d_grid": (4,), "n_samples": 2500, "n_bins": 40},
                bias_toy={"n_grid": 30},
                lipschitz_dims=(1, 2, 5, 10), lipschitz_rhos=np.logspace(-2.0, 0.5, 12),
                out_dir=out_dir)
        return GaussianBatchWorkload(
            toy_sweeps=300, burn_in=50,
            dimension={"d_grid": (4, 8), "replicates": 1, "n_chains": 500},
            kappa={"kappa_grid": (10, 20), "replicates": 1, "n_chains_w1": 500},
            mixture={"d_grid": (2,), "n_samples": 500, "n_bins": 10},
            bias_toy={"n_grid": 8},
            lipschitz_dims=(1, 3), lipschitz_rhos=(0.05, 0.5, 2.0),
            out_dir=out_dir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("logistic-rows", "logistic-shards", "gaussian-batch")
