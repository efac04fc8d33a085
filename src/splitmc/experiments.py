"""Batch experiments: bias sweeps, contraction curves, mixing-time scaling,
the mixture end-to-end run and the logistic rejection-efficiency table.

Every experiment is deterministic given (spec, seed). Outputs are UTF-8 CSV
files with '#'-prefixed header lines echoing the full configuration; rows
carry branch/validity flags instead of silently clamping anything.

The Gaussian and mixture runs evolve a population of independent chains
vectorized over the replicate axis (_population_sweep). The block draw is
the zoo model's own closed-form sampler, called with the chains as a
leading axis. Both models have one identity-coupled block, so G = I and
the master draw N(z, rho^2 G^{-1}) is exactly z + rho xi; the test suite
checks the population sweep against the per-chain engine.

The gaussian-mixing runs measure coordinate 0 only, and step only it.
aniso_gaussian has a diagonal precision and the identity coupling, so a
sweep draws each coordinate from its own old value alone: coordinate 0 of
the d-dimensional chain has, at every sweep, the law of the one-coordinate
chain with precision m (the smallest) and the same rho, an AR(1) chain with
factor 1/(1 + rho^2 m) and stationary variance 1/m + rho^2. The mixing
helpers step that chain (_first_coordinate) and refuse models for which
this does not hold; the draws differ from stepping all d coordinates, their
law does not.
"""

from __future__ import annotations

import contextlib
import csv
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammaincinv, ndtr

from . import zoo
from .bias import IsotropicMixture, tv_bound_strongly_convex, w1_bound_single
from .engine import SamplerConfig, run_chain
from .errors import InvalidParameter, NotStronglyConvex, UnsupportedModel
from .metrics import (
    Normal1D,
    ToyParams,
    ar1_kernel_t,
    gaussian_abs_moment,
    gaussian_chi2_variance,
    gaussian_tv_1d,
    gaussian_w1_1d,
    w1_samples_vs_gaussian,
)
from .model import ALL_BLOCKS, center_model, find_minimizer, make_quadratic_group, model_constants
from .planner import plan_tv_multi, plan_tv_single, plan_w1_single

EXPERIMENT_NAMES = ("bias-toy", "rate-toy", "gaussian-mixing", "mixture", "logistic")


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    out_dir: Path = Path(".")

    def __post_init__(self):
        if self.name not in EXPERIMENT_NAMES:
            raise ValueError(f"unknown experiment {self.name!r}; "
                             f"choose from {', '.join(EXPERIMENT_NAMES)}")
        object.__setattr__(self, "out_dir", Path(self.out_dir))


def _write_csv(path, config: dict, fieldnames, rows):
    """config as sorted '# key = value' lines, then the rows as a CSV table.

    Writes to path, creating its directory, or to stdout when path is None.
    """
    if path is None:
        target = contextlib.nullcontext(sys.stdout)
    else:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        target = open(path, "w", newline="", encoding="utf-8")
    with target as fh:
        for key in sorted(config):
            fh.write(f"# {key} = {config[key]}\n")
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    return path


def read_csv(path):
    """Read back an experiment CSV, returning (config dict, list of row dicts)."""
    config, rows = {}, []
    with open(path, newline="", encoding="utf-8") as fh:
        data_lines = []
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                config[key.strip()] = value.strip()
            else:
                data_lines.append(line)
        rows = list(csv.DictReader(data_lines))
    return config, rows


def _params(spec: ExperimentSpec, defaults: dict) -> dict:
    """spec.params over the runner's defaults.

    A key the runner never reads is refused, and so is an empty grid (a
    parameter whose default is a tuple).
    """
    unknown = sorted(set(spec.params) - set(defaults))
    if unknown:
        raise InvalidParameter(f"{spec.name} has no parameter {', '.join(unknown)}; "
                               f"it reads {', '.join(sorted(defaults))}")
    params = {**defaults, **spec.params}
    for key, default in defaults.items():
        if isinstance(default, tuple) and np.size(params[key]) == 0:
            raise InvalidParameter(f"{spec.name} needs a nonempty {key}")
    return params


def _loglog_slope(x, y):
    x = np.log(np.asarray(x, dtype=float))
    y = np.log(np.asarray(y, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def _rng(seed: int, *key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


# ---------------------------------------------------------------------------
# bias-toy: exact distances vs their bounds over a rho grid


def _bias_toy_grid(sigma: float, b: int, mu: float, rho_grid):
    """Per rho: (rho, exact TV, TV bound, exact W1, W1 bound) for the scalar Gaussian pair.

    The exact distances are from N(mu, sigma^2/b) to N(mu, (sigma^2 + rho^2)/b)
    (TV) and to N(mu, sigma^2/b + rho^2) (W1); the bounds are BiasBounds.
    """
    consts1 = model_constants(zoo.toy_gaussian_1(sigma=sigma, b=b, mu=mu))
    for rho in rho_grid:
        yield (rho,
               gaussian_tv_1d(mu, sigma**2 / b, mu, (sigma**2 + rho**2) / b),
               tv_bound_strongly_convex(consts1, rho),
               gaussian_w1_1d(mu, sigma**2 / b, mu, sigma**2 / b + rho**2),
               w1_bound_single(b / sigma**2, 1, rho))


def run_bias_toy(spec: ExperimentSpec):
    p = _params(spec, {"sigma": 3.0, "b": 10, "mu": 0.0, "n_grid": 30,
                       "log10_rho_min": -2.0, "log10_rho_max": 0.5})
    sigma = float(p["sigma"])
    b = int(p["b"])
    mu = float(p["mu"])
    n_grid = int(p["n_grid"])
    if n_grid < 2:
        raise InvalidParameter(f"bias-toy needs n_grid >= 2, got {n_grid}")
    rho_grid = np.logspace(float(p["log10_rho_min"]), float(p["log10_rho_max"]), n_grid)
    if np.count_nonzero(rho_grid <= rho_grid[0] * 10.0) < 2:
        raise InvalidParameter("bias-toy fits its slopes over the smallest decade of the "
                               "rho grid, which holds only one grid point")

    rows = []
    for rho, tv_exact, tv_b, w1_exact, w1_b in _bias_toy_grid(sigma, b, mu, rho_grid):
        rows.append({
            "rho": rho,
            "exact_tv": tv_exact,
            "tv_bound": tv_b.value,
            "tv_bound_valid": tv_b.valid,
            "exact_w1": w1_exact,
            "w1_bound": w1_b.value,
            "w1_branch": w1_b.extras["active_branch"],
        })

    dominated = all(
        (not r["tv_bound_valid"] or r["tv_bound"] >= r["exact_tv"] - 1e-12)
        and r["w1_bound"] >= r["exact_w1"] - 1e-12
        for r in rows
    )
    # Slope of the exact curves over the smallest grid decade.
    small = [r for r in rows if r["rho"] <= rho_grid[0] * 10.0]
    w1_slope = _loglog_slope([r["rho"] for r in small], [r["exact_w1"] for r in small])
    tv_slope = _loglog_slope([r["rho"] for r in small], [r["exact_tv"] for r in small])

    config = {"experiment": "bias-toy", "seed": spec.seed, "sigma": sigma, "b": b,
              "mu": mu, "n_grid": n_grid, "bounds_dominate": dominated,
              "w1_small_rho_slope": w1_slope, "tv_small_rho_slope": tv_slope}
    path = _write_csv(spec.out_dir / "bias_toy.csv", config, list(rows[0]), rows)
    return {"csv": path, "bounds_dominate": dominated,
            "w1_small_rho_slope": w1_slope, "tv_small_rho_slope": tv_slope}


# ---------------------------------------------------------------------------
# rate-toy: closed-form kernel distances vs the contraction envelopes


def run_rate_toy(spec: ExperimentSpec):
    """Distance-to-stationarity curves for the scalar Gaussian chain.

    TV side: strategy 1 started from the unsmoothed target N(mu, sigma^2/b);
    envelope (1/2) sqrt(Var_pi(d nu/d pi)) (1-K)^t (the square-root
    chi-square form, which holds for every t).
    W1 side: strategy 2 started from a point mass at theta0; envelope
    W1(nu, pi_rho) (1-K)^t.
    """
    p = _params(spec, {"sigma": 3.0, "b": 10, "mu": 0.0, "rho": 1.0, "theta0": 0.0,
                       "t_max": 500})
    sigma = float(p["sigma"])
    b = int(p["b"])
    mu = float(p["mu"])
    rho = float(p["rho"])
    theta0 = float(p["theta0"])
    t_max = int(p["t_max"])
    if t_max < 2:
        raise InvalidParameter(f"rate-toy fits its slopes over t = 1..t_max, which needs "
                               f"t_max >= 2, got {t_max}")

    tv_par = ToyParams(mu=mu, sigma=sigma, b=b, rho=rho, strategy=1)
    w1_par = ToyParams(mu=mu, sigma=sigma, b=b, rho=rho, strategy=2)
    nu_tv = Normal1D(mu, sigma**2 / b)
    chi2_var = gaussian_chi2_variance(nu_tv, tv_par.stationary)
    w1_init = gaussian_abs_moment(theta0, w1_par.stationary.mean,
                                  w1_par.stationary.variance)

    rows = []
    for t in range(t_max + 1):
        law_tv = ar1_kernel_t(tv_par, nu_tv, t)
        law_w1 = ar1_kernel_t(w1_par, theta0, t)
        tv_exact = gaussian_tv_1d(law_tv.mean, law_tv.variance,
                                  tv_par.stationary.mean, tv_par.stationary.variance)
        w1_exact = gaussian_w1_1d(law_w1.mean, law_w1.variance,
                                  w1_par.stationary.mean, w1_par.stationary.variance)
        rows.append({
            "t": t,
            "tv_exact": tv_exact,
            "tv_envelope": 0.5 * math.sqrt(chi2_var) * (1.0 - tv_par.k_rate) ** t,
            "w1_exact": w1_exact,
            "w1_envelope": w1_init * (1.0 - w1_par.k_rate) ** t,
        })

    envelopes_hold = all(r["tv_exact"] <= r["tv_envelope"] + 1e-12
                         and r["w1_exact"] <= r["w1_envelope"] + 1e-12 for r in rows)

    def _tail_slope(key):
        usable = [r for r in rows if 1e-12 < r[key] < 1e-2]
        if len(usable) < 10:
            usable = [r for r in rows[1:60] if r[key] > 1e-12]
        ts = np.array([r["t"] for r in usable], dtype=float)
        ys = np.log([r[key] for r in usable])
        return float(np.polyfit(ts, ys, 1)[0])

    tv_slope = _tail_slope("tv_exact")
    w1_slope = _tail_slope("w1_exact")
    tv_bound_slope = math.log(1.0 - tv_par.k_rate)
    w1_bound_slope = math.log(1.0 - w1_par.k_rate)

    config = {"experiment": "rate-toy", "seed": spec.seed, "sigma": sigma, "b": b,
              "mu": mu, "rho": rho, "theta0": theta0, "t_max": t_max,
              "envelopes_hold": envelopes_hold,
              "tv_measured_slope": tv_slope, "tv_bound_slope": tv_bound_slope,
              "w1_measured_slope": w1_slope, "w1_bound_slope": w1_bound_slope,
              "w1_slope_ratio": w1_slope / w1_bound_slope}
    path = _write_csv(spec.out_dir / "rate_toy.csv", config, list(rows[0]), rows)
    return {"csv": path, "envelopes_hold": envelopes_hold,
            "tv_measured_slope": tv_slope, "tv_bound_slope": tv_bound_slope,
            "w1_measured_slope": w1_slope, "w1_bound_slope": w1_bound_slope,
            "w1_slope_ratio": w1_slope / w1_bound_slope,
            "tv_slope_ratio": tv_slope / tv_bound_slope}


# ---------------------------------------------------------------------------
# gaussian-mixing: empirical mixing times over dimension / condition / precision


def _population_sweep(group, rho, thetas, rng):
    """One sweep of every chain (a row of thetas) for a one-block identity-coupled model.

    The block is drawn by the group's own closed-form sampler with the
    chains as a leading axis. The coupling is the identity, so G = I and
    the exact master draw is z + rho xi.
    """
    z = group.sampler(thetas[:, None, :], rho, rng)[:, 0, :]
    return z + rho * rng.standard_normal(thetas.shape)


def _binned_tv_vs_gaussian(x, edges, cdf):
    """Binned TV between a sample and a Gaussian whose cdf at the edges is given."""
    emp = np.histogram(x, bins=edges)[0] / x.size
    return 0.5 * (np.abs(emp - np.diff(cdf)).sum() + cdf[0] + 1.0 - cdf[-1])


def _tv_noise_floor(var, n_chains, edges, cdf, rng):
    """Mean binned TV of three exact samples of n_chains draws from N(0, var)."""
    vals = []
    for _ in range(3):
        x = math.sqrt(var) * rng.standard_normal(n_chains)
        vals.append(_binned_tv_vs_gaussian(x, edges, cdf))
    return float(np.mean(vals))


def _first_coordinate(model, n_chains):
    """The one-coordinate group whose chain has the law of model's coordinate 0.

    Holds for one identity-coupled Gaussian block (the closed form with a
    mode) of zero mean whose coordinate 0 has the group's smallest precision
    m and is coupled to no other coordinate: its gradient is 0 at 0 and
    m e_0 at e_0. Anything else is refused with UnsupportedModel, and a
    population of fewer than two chains with InvalidParameter.
    """
    if n_chains < 2:
        raise InvalidParameter(f"a mixing time needs n_chains >= 2, got {n_chains}")
    d = model.d
    if len(model.groups) != 1:
        raise UnsupportedModel("the mixing experiments need a model with one factor group")
    (group,) = model.groups
    if group.b != 1 or not np.array_equal(group.a[0], np.eye(d)):
        raise UnsupportedModel("the mixing experiments need one identity-coupled block")
    if group.mode is None:
        raise UnsupportedModel("the mixing experiments need a Gaussian block")
    m = float(group.m[0])
    e0 = np.eye(1, d)
    if not (np.array_equal(group.gradient(np.zeros((1, d)), ALL_BLOCKS), np.zeros((1, d)))
            and np.array_equal(group.gradient(e0, ALL_BLOCKS), m * e0)):
        raise UnsupportedModel("the mixing experiments need a zero-mean block whose first "
                               "coordinate has precision m and is coupled to no other")
    return make_quadratic_group(np.ones((1, 1, 1)), precision=m, center=0.0)


def _mixing_time_tv(model, rho, eps, n_chains, seed, sweep_cap, n_bins=50):
    """First sweep at which the binned TV of coordinate 0 drops below eps + floor.

    The chains start from N(0, I/M) and only their coordinate 0 is stepped
    (_first_coordinate), from N(0, 1/M) with M the model's largest precision.
    """
    group = _first_coordinate(model, n_chains)
    rng = _rng(seed, 0)
    var_target = 1.0 / group.m[0]
    span = 5.0 * math.sqrt(var_target)
    edges = np.linspace(-span, span, n_bins + 1)
    cdf = ndtr(edges / math.sqrt(var_target))  # the target's, once per run
    floor = _tv_noise_floor(var_target, n_chains, edges, cdf, _rng(seed, 1))
    thetas = rng.standard_normal((n_chains, 1)) / np.sqrt(model.groups[0].M[0])
    threshold = eps + floor
    for t in range(1, sweep_cap + 1):
        thetas = _population_sweep(group, rho, thetas, rng)
        tv = _binned_tv_vs_gaussian(thetas[:, 0], edges, cdf)
        if tv < threshold:
            return t, floor, False
    return sweep_cap, floor, True


def _mixing_time_w1(model, rho, eps, n_chains, seed, sweep_cap):
    """First sweep at which the W1 distance of coordinate 0 drops below eps sqrt(1/m).

    The chains start from the point mass at the minimizer and only their
    coordinate 0 is stepped (_first_coordinate).
    """
    group = _first_coordinate(model, n_chains)
    rng = _rng(seed, 0)
    var_target = 1.0 / group.m[0]
    threshold = eps * math.sqrt(var_target)
    thetas = np.zeros((n_chains, 1))
    for t in range(1, sweep_cap + 1):
        thetas = _population_sweep(group, rho, thetas, rng)
        w1 = w1_samples_vs_gaussian(thetas[:, 0], 0.0, var_target)
        if w1 < threshold:
            return t, False
    return sweep_cap, True


def run_gaussian_mixing(spec: ExperimentSpec):
    p = _params(spec, {"which": "all", "eps": 0.1, "replicates": 5,
                       "d_grid": (10, 20, 50, 100, 200), "m": 0.25, "M": 1.0,
                       "n_chains": 4000,
                       "kappa_grid": (10, 40, 160, 640, 1600), "d": 10, "n_chains_w1": 2000,
                       "eps_grid": (0.16, 0.11, 0.08, 0.055, 0.04), "d_precision": 2,
                       "kappa_precision": 3.0, "n_chains_precision": 200_000})
    which = p["which"]
    eps = float(p["eps"])
    replicates = int(p["replicates"])
    if which not in ("dimension", "kappa", "precision", "all"):
        raise InvalidParameter(f"gaussian-mixing which={which!r}; "
                               "choose dimension, kappa, precision or all")
    if replicates < 1:
        raise InvalidParameter(f"gaussian-mixing needs replicates >= 1, got {replicates}")
    results = {}
    outputs = []

    if which in ("dimension", "all"):
        d_grid = [int(v) for v in p["d_grid"]]
        m, M = float(p["m"]), float(p["M"])
        n_chains = int(p["n_chains"])

        def one(args):
            d, rep = args
            plan = plan_tv_single(m, M, d, eps)
            cap = int(3 * plan.t_mix) + 10
            t_emp, floor, capped = _mixing_time_tv(zoo.aniso_gaussian(d, m, M), plan.rho, eps,
                                                   n_chains, _seed_for(spec.seed, 1, d, rep), cap)
            return {"d": d, "replicate": rep, "rho2": plan.rho2, "k_sgs": plan.k_sgs,
                    "t_theory": plan.t_mix, "t_empirical": t_emp,
                    "tv_noise_floor": floor, "hit_cap": capped}

        jobs = [(d, rep) for d in d_grid for rep in range(replicates)]
        with ThreadPoolExecutor(max_workers=min(4, len(jobs))) as pool:
            rows = list(pool.map(one, jobs))
        rows.sort(key=lambda r: (r["d"], r["replicate"]))
        means = {d: np.mean([r["t_empirical"] for r in rows if r["d"] == d]) for d in d_grid}
        slope = _loglog_slope(list(means), list(means.values()))
        config = {"experiment": "gaussian-mixing/dimension", "seed": spec.seed,
                  "eps": eps, "m": m, "M": M, "n_chains": n_chains,
                  "replicates": replicates, "fit_slope": slope}
        outputs.append(_write_csv(spec.out_dir / "gaussian_mixing_dimension.csv",
                                  config, list(rows[0]), rows))
        results["dimension_slope"] = slope

    if which in ("kappa", "all"):
        kappa_grid = [float(v) for v in p["kappa_grid"]]
        d = int(p["d"])
        n_chains = int(p["n_chains_w1"])
        M = 1.0
        rows = []
        for kappa in kappa_grid:
            mm = M / kappa
            plan = plan_w1_single(mm, M, eps)
            model = zoo.aniso_gaussian(d, mm, M)
            cap = int(5 * math.log(10.0 / eps) / plan.k_sgs) + 10
            for rep in range(replicates):
                t_emp, capped = _mixing_time_w1(
                    model, plan.rho, eps, n_chains, _seed_for(spec.seed, 2, int(kappa), rep), cap)
                rows.append({"kappa": kappa, "replicate": rep, "rho2": plan.rho2,
                             "k_sgs": plan.k_sgs, "branch": plan.metadata["active_branch"],
                             "t_empirical": t_emp, "hit_cap": capped})
        means = {k: np.mean([r["t_empirical"] for r in rows if r["kappa"] == k])
                 for k in kappa_grid}
        slope = _loglog_slope(list(means), list(means.values()))
        config = {"experiment": "gaussian-mixing/kappa", "seed": spec.seed, "eps": eps,
                  "d": d, "n_chains": n_chains, "replicates": replicates,
                  "fit_slope": slope}
        outputs.append(_write_csv(spec.out_dir / "gaussian_mixing_kappa.csv",
                                  config, list(rows[0]), rows))
        results["kappa_slope"] = slope

    if which in ("precision", "all"):
        eps_grid = [float(v) for v in p["eps_grid"]]
        d = int(p["d_precision"])
        kappa = float(p["kappa_precision"])
        n_chains = int(p["n_chains_precision"])
        reps = min(replicates, 3)
        M = 1.0
        mm = M / kappa
        model = zoo.aniso_gaussian(d, mm, M)
        rows = []
        for e in eps_grid:
            plan = plan_tv_single(mm, M, d, e)
            cap = int(3 * plan.t_mix) + 10
            for rep in range(reps):
                t_emp, floor, capped = _mixing_time_tv(
                    model, plan.rho, e, n_chains,
                    _seed_for(spec.seed, 3, int(1000 * e), rep), cap, n_bins=40)
                rows.append({"eps": e, "replicate": rep, "rho2": plan.rho2,
                             "k_sgs": plan.k_sgs, "t_theory": plan.t_mix,
                             "t_empirical": t_emp, "tv_noise_floor": floor,
                             "hit_cap": capped})
        means = {e: np.mean([r["t_empirical"] for r in rows if r["eps"] == e])
                 for e in eps_grid}
        xs = [math.log(2.0 / e) / e for e in eps_grid]
        slope = _loglog_slope(xs, list(means.values()))
        config = {"experiment": "gaussian-mixing/precision", "seed": spec.seed,
                  "d": d, "kappa": kappa, "n_chains": n_chains, "replicates": reps,
                  "fit_slope_vs_log2eps_over_eps": slope}
        outputs.append(_write_csv(spec.out_dir / "gaussian_mixing_precision.csv",
                                  config, list(rows[0]), rows))
        results["precision_slope"] = slope

    results["csv"] = outputs
    return results


def _seed_for(seed, *key):
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


# ---------------------------------------------------------------------------
# mixture: planner guidance end to end against exact sampling, plus ULA timing


def _equal_mass_edges(marginal, n_bins, lo, hi):
    qs = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    inner = [brentq(lambda u, q=q: marginal.projected_cdf(u) - q, lo, hi) for q in qs]
    return np.concatenate([[-np.inf], inner, [np.inf]])


def _chi2_stat(u_samples, edges):
    counts = np.histogram(u_samples, bins=edges)[0]
    expected = u_samples.size / (len(edges) - 1)
    return float(((counts - expected) ** 2 / expected).sum())


def run_mixture(spec: ExperimentSpec):
    p = _params(spec, {"d_grid": (4, 8, 16), "eps": 0.1, "n_samples": 2500, "n_bins": 40,
                       "a_norm": 1.0 / math.sqrt(2.0), "ula_sweeps": 500})
    d_grid = [int(v) for v in p["d_grid"]]
    eps = float(p["eps"])
    n_samples = int(p["n_samples"])
    n_bins = int(p["n_bins"])
    a_norm = float(p["a_norm"])
    ula_cap = int(p["ula_sweeps"])
    for key, value, least in (("n_samples", n_samples, 1), ("n_bins", n_bins, 2),
                              ("ula_sweeps", ula_cap, 1)):
        if value < least:
            raise InvalidParameter(f"mixture needs {key} >= {least}, got {value}")
    m, M = 1.0 - a_norm**2, 1.0

    rows = []
    crit = float(2.0 * gammaincinv((n_bins - 1) / 2.0, 0.95))  # the chi^2 quantile
    for d in d_grid:
        model = zoo.gaussian_mixture(d=d, a_norm=a_norm)
        (group,) = model.groups
        a = model.mixture_direction
        plan6 = plan_tv_single(m, M, d, eps)
        plan7 = plan_tv_multi(model, eps, theta_star=np.zeros(d))
        rho = plan6.rho
        rng = _rng(spec.seed, 4, d)

        thetas = rng.standard_normal((n_samples, d)) / math.sqrt(M)
        t0 = time.perf_counter()
        for _ in range(plan6.t_mix):
            thetas = _population_sweep(group, rho, thetas, rng)
        sgs_time = time.perf_counter() - t0

        # Exact reference: component sign then unit Gaussian around +-a.
        signs = np.where(rng.uniform(size=n_samples) < 0.5, 1.0, -1.0)
        exact = signs[:, None] * a + rng.standard_normal((n_samples, d))

        # ULA on the same target with stepsize h = rho^2 (wall-clock baseline);
        # each chain is a row of the group's one block.
        ula_sweeps = min(plan6.t_mix, ula_cap)
        h = rho**2
        ula_thetas = rng.standard_normal((n_samples, d)) / math.sqrt(M)
        t0 = time.perf_counter()
        for _ in range(ula_sweeps):
            ula_thetas = (ula_thetas - h * group.gradient(ula_thetas, ALL_BLOCKS)
                          + math.sqrt(2.0 * h) * rng.standard_normal(ula_thetas.shape))
        ula_per_sweep = (time.perf_counter() - t0) / ula_sweeps

        na = float(np.linalg.norm(a))
        marginal = IsotropicMixture(a, 1.0)  # the target itself
        lo, hi = -na - 8.0, na + 8.0
        edges = _equal_mass_edges(marginal, n_bins, lo, hi)
        u_sgs = thetas @ a / na
        u_exact = exact @ a / na
        rows.append({
            "d": d, "rho2": plan6.rho2, "t_mix_single": plan6.t_mix,
            "t_mix_multi": plan7.t_mix, "k_sgs": plan6.k_sgs,
            "chi2_sgs": _chi2_stat(u_sgs, edges),
            "chi2_exact": _chi2_stat(u_exact, edges),
            "chi2_critical_5pct": crit,
            "sgs_seconds_per_sweep": sgs_time / plan6.t_mix,
            "ula_seconds_per_sweep": ula_per_sweep,
            "sgs_wall_seconds": sgs_time,
        })

    config = {"experiment": "mixture", "seed": spec.seed, "eps": eps,
              "n_samples": n_samples, "n_bins": n_bins, "a_norm": a_norm,
              "m": m, "M": M}
    path = _write_csv(spec.out_dir / "mixture.csv", config, list(rows[0]), rows)
    return {"csv": path, "rows": rows, "chi2_critical": crit}


# ---------------------------------------------------------------------------
# logistic: both splitting strategies, rejection efficiency, plan comparison


def run_logistic(spec: ExperimentSpec):
    p = _params(spec, {"d_grid": (2, 10, 50), "n_grid": (200, 1000), "b_grid": (2, 5, 10),
                       "sweeps": 100, "eps": 0.01})
    d_grid = [int(v) for v in p["d_grid"]]
    n_grid = [int(v) for v in p["n_grid"]]
    b_grid = [int(v) for v in p["b_grid"]]
    sweeps = int(p["sweeps"])
    eps = float(p["eps"])

    rows = []
    for d in d_grid:
        for n in n_grid:
            data_seed = _seed_for(spec.seed, 5, d, n)
            cells = [("split1", None)] + [("split2", b) for b in b_grid if n % b == 0]
            plan1_rho2 = None
            theta_star = None
            for strategy, b in cells:
                if strategy == "split1":
                    model = zoo.logistic_split1(d=d, n=n, seed=data_seed)
                    # Both strategies factor the same posterior, so the
                    # per-observation split (always certified strongly
                    # convex for n >= d) supplies the shared minimizer.
                    theta_star = find_minimizer(model).theta_star
                else:
                    model = zoo.logistic_split2(d=d, n=n, b=b, seed=data_seed)
                centered = center_model(model, theta_star)
                consts = model_constants(centered)
                try:
                    plan = plan_tv_multi(centered, eps, theta_star=theta_star,
                                         constants=consts)
                    rho2, t_mix, planned_by = plan.rho2, plan.t_mix, "tv-multi"
                except NotStronglyConvex:
                    # Degenerate group Gram (fewer rows than d): reuse the
                    # per-observation plan's width for the same data.
                    rho2, t_mix, planned_by = plan1_rho2, None, "fallback-split1"
                if strategy == "split1":
                    plan1_rho2 = rho2
                kappa_ratio = _condition_ratio(model) if strategy == "split2" else 1.0

                config_run = SamplerConfig(rho=math.sqrt(rho2), sweeps=sweeps)
                report = run_chain(centered, config_run,
                                   seed=_seed_for(spec.seed, 6, d, n, 0 if b is None else b,
                                                  1 if strategy == "split1" else 2),
                                   theta0=theta_star)
                rows.append({
                    "strategy": strategy, "b": b if b is not None else model.b,
                    "d": d, "n": n, "alpha": model.prior_alpha,
                    "rho2": rho2, "t_mix": t_mix, "planned_by": planned_by,
                    "kappa_ratio": kappa_ratio,
                    "max_avg_proposals": report.max_avg_proposals,
                    "mean_gd_steps": float(report.gd_steps_total.sum()
                                           / report.rejection_draws.sum()),
                    "m_U": consts.m_U,
                })

    config = {"experiment": "logistic", "seed": spec.seed, "sweeps": sweeps,
              "eps": eps, "d_grid": d_grid, "n_grid": n_grid, "b_grid": b_grid}
    path = _write_csv(spec.out_dir / "logistic.csv", config, list(rows[0]), rows)
    worst = max(r["max_avg_proposals"] for r in rows)
    return {"csv": path, "rows": rows, "worst_avg_proposals": worst}


def _condition_ratio(model):
    """sum_i lambda_max(group Gram) / sum_i lambda_min(group Gram) for shard splits."""
    x, _ = model.data
    b = model.b
    size = x.shape[0] // b
    num = den = 0.0
    for i in range(b):
        gram = x[i * size:(i + 1) * size].T @ x[i * size:(i + 1) * size]
        eigs = np.linalg.eigvalsh(0.5 * (gram + gram.T))
        num += float(eigs[-1])
        den += float(max(eigs[0], 0.0))
    return num / den if den > 0 else math.inf


RUNNERS = {
    "bias-toy": run_bias_toy,
    "rate-toy": run_rate_toy,
    "gaussian-mixing": run_gaussian_mixing,
    "mixture": run_mixture,
    "logistic": run_logistic,
}


def run_experiment(spec: ExperimentSpec):
    return RUNNERS[spec.name](spec)
