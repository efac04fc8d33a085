"""Batch experiments: bias sweeps, contraction curves, mixing-time scaling,
the mixture end-to-end run and the logistic rejection-efficiency table.

Every experiment is deterministic given (spec, seed). Outputs are UTF-8 CSV
files with '#'-prefixed header lines echoing the full configuration; rows
carry branch/validity flags instead of silently clamping anything.

The population runs (gaussian-mixing, mixture) draw from _rng: one SFC64
generator per cell and replicate, seeded by a SeedSequence spawn key that
names them. SFC64 draws normals about a fifth faster than numpy's default
PCG64. The chains of engine.run_chain keep their Philox counter streams.

The mixture run evolves a population of independent chains vectorized over
the replicate axis (_population_sweep). The block draw is the zoo model's
own closed-form sampler, called with the chains as a leading axis. The
model has one identity-coupled block, so G = I and the master draw
N(z, rho^2 G^{-1}) is exactly z + rho xi; the test suite checks the
population sweep against the per-chain engine. The population is two
halves, chains [0, ceil(n/2)) and [ceil(n/2), n), each with its own
stream keyed (seed, 4, d, h) for half h, and the exact reference draws
from the stream keyed (seed, 4, d). Each loop (SGS, then ULA) steps half
0 on the calling thread while one worker thread steps half 1: both are
normal draws and array arithmetic that numpy runs without the GIL. The
halves are part of the stream contract, so the CSV is the same on any
host; on one CPU the two threads take turns. Each timing column is the
wall time of its two-thread loop.

The gaussian-mixing runs measure coordinate 0 of aniso_gaussian(d, m, M)
only, and step only it. That model has the diagonal precision
linspace(m, M, d) and the identity coupling, so a sweep draws each
coordinate from its own old value alone: coordinate 0 of the d-dimensional
chain has, at every sweep, the law of the one-coordinate chain with
precision m and the same rho. A sweep of that chain draws z ~ N(phi theta,
rho^2 phi) with phi = 1/(1 + rho^2 m), then theta' = z + rho xi, so its
exact one-sweep law is the AR(1) step theta' = phi theta + sqrt(rho^2 phi +
rho^2) xi, with stationary variance 1/m + rho^2. The mixing helpers take
that step (_ar1_constants), one normal per chain-sweep where the sweep
draws two, and never build the d-dimensional model; the draws differ from
stepping all d coordinates, their law does not. A mixing time is a first
passage (_first_passage): the first sweep at which the population's TV or
W1 distance to the target drops below its threshold. The dimension, kappa
and precision parts share one loop: each gives its plans, one per distinct
grid value in the order the grid first names them, a cell per (grid value,
replicate) and its config echo, and the loop runs the cells one after
another, on one thread, each distinct value once, then fits the log-log
slope of the mean mixing times over the distinct grid values, so a grid
needs two of them. The cells stay on one thread: their arrays of 2000
scalars are too small for numpy to keep the GIL released for long, and on
a two-thread pool the gaussian-batch workload's dimension and kappa parts
ran slower on a 2-vCPU x86-64 host (medians of 15 runs, two rounds:
dimension 35 and 24 ms on one thread, 41 and 45 ms on two; kappa 14 and
13 ms, 14 and 19 ms). Every selected
part is planned, which checks its parameters, before any part runs, so a
refusal leaves no part's CSV behind.

The mixture run scores its samples by Pearson chi^2 in equal-mass bins of
the target's projection, counted as equal bins of [0, 1] of the projected
cdf (IsotropicMixture.projected_cdf) at each sample.
"""

from __future__ import annotations

import contextlib
import csv
import math
import numbers
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import gammaincinv, ndtr

from . import zoo
from .bias import IsotropicMixture, tv_bound_strongly_convex, w1_bound_single
from .engine import SamplerConfig, run_chain
from .errors import InvalidParameter, NotStronglyConvex, check_scale, check_seed
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
from .model import ALL_BLOCKS, center_model, find_minimizer, model_constants
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
        check_seed(self.seed)
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


# Each kind a default gives, as a refusal names it; (int,) is a grid of ints.
_KIND_NAMES = {int: "an integer", float: "a number", str: "a string",
               (int,): "a nonempty one-dimensional grid of integers",
               (float,): "a nonempty one-dimensional grid of numbers"}


def _params(spec: ExperimentSpec, defaults: dict, least: dict) -> dict:
    """spec.params over the runner's defaults, each read as its default's kind.

    A default of type int, float or str gives its kind; a tuple default is a
    grid of its first element's kind, a nonempty list or tuple that is
    returned as a list. An int is an integral number and a float any number
    or a string that float() reads, so 'inf' and 'nan' reach the runner's own
    checks; neither is a bool. least maps each count to its least value,
    which bounds every element of a grid. A key the runner never reads, a
    value of another kind and a count below its least value are refused.
    """
    unknown = sorted(set(spec.params) - set(defaults))
    if unknown:
        raise InvalidParameter(f"{spec.name} has no parameter {', '.join(unknown)}; "
                               f"it reads {', '.join(sorted(defaults))}")
    params = {}
    for key, default in defaults.items():
        kind = (type(default[0]),) if isinstance(default, tuple) else type(default)
        value = spec.params.get(key, default)
        params[key] = _read(value, kind)
        if params[key] is None:
            raise InvalidParameter(f"{spec.name} reads {key} as {_KIND_NAMES[kind]}, "
                                   f"got {value!r}")
        if key in least and np.min(params[key]) < least[key]:
            raise InvalidParameter(f"{spec.name} needs {key} >= {least[key]}, got {value!r}")
    return params


def _read(value, kind):
    """value as kind (int, float, str or a grid (kind,)), or None when it is not one."""
    if isinstance(kind, tuple):
        items = [_read(v, kind[0]) for v in value] if isinstance(value, (list, tuple)) else []
        return items if items and None not in items else None
    if kind is str:
        return value if isinstance(value, str) else None
    if isinstance(value, bool) or not isinstance(value, (numbers.Real, str)):
        return None
    try:
        number = float(value)
    except (ValueError, OverflowError):
        return None
    if kind is float:
        return number
    return int(value) if isinstance(value, numbers.Real) and number.is_integer() else None


def _loglog_slope(x, y):
    x = np.log(np.asarray(x, dtype=float))
    y = np.log(np.asarray(y, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


# The experiments' bit generator; the population CSVs echo its name.
_BIT_GENERATOR = np.random.SFC64


def _rng(seed: int, *key):
    """The experiment stream keyed by (seed, *key): equal keys give equal streams."""
    return np.random.Generator(_BIT_GENERATOR(np.random.SeedSequence(seed, spawn_key=key)))


# ---------------------------------------------------------------------------
# bias-toy: exact distances vs their bounds over a rho grid


def _bias_toy_grid(sigma: float, b: int, mu: float, log10_rho_min, log10_rho_max, n: int):
    """Per rho: (rho, exact TV, TV bound, exact W1, W1 bound) for the scalar Gaussian pair.

    The n rhos are spaced evenly in log10 from 10**log10_rho_min to
    10**log10_rho_max. The exact distances are from N(mu, sigma^2/b) to
    N(mu, (sigma^2 + rho^2)/b) (TV) and to N(mu, sigma^2/b + rho^2) (W1); the
    bounds are BiasBounds. Every rho must pass check_scale, which refuses the
    inf and nan of a bound that is not finite or whose power overflows; a
    finite mu is checked by the zoo.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        rho_grid = np.logspace(log10_rho_min, log10_rho_max, n)
    consts1 = model_constants(zoo.toy_gaussian_1(sigma=sigma, b=b, mu=mu))
    for rho in rho_grid:
        check_scale(rho)
        yield (rho,
               gaussian_tv_1d(mu, sigma**2 / b, mu, (sigma**2 + rho**2) / b),
               tv_bound_strongly_convex(consts1, rho),
               gaussian_w1_1d(mu, sigma**2 / b, mu, sigma**2 / b + rho**2),
               w1_bound_single(b / sigma**2, 1, rho))


def run_bias_toy(spec: ExperimentSpec):
    p = _params(spec, {"sigma": 3.0, "b": 10, "mu": 0.0, "n_grid": 30,
                       "log10_rho_min": -2.0, "log10_rho_max": 0.5}, least={"n_grid": 2})
    rows = []
    for rho, tv_exact, tv_b, w1_exact, w1_b in _bias_toy_grid(
            p["sigma"], p["b"], p["mu"], p["log10_rho_min"], p["log10_rho_max"], p["n_grid"]):
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
    small = [r for r in rows if r["rho"] <= rows[0]["rho"] * 10.0]
    if len(small) < 2:
        raise InvalidParameter("bias-toy fits its slopes over the smallest decade of the "
                               "rho grid, which holds only one grid point")
    for key in ("exact_w1", "exact_tv"):
        if not all(r[key] > 0 for r in small):
            raise InvalidParameter(f"bias-toy fits the log-log slope of {key} over the smallest "
                                   f"rho decade, where it rounds to 0 at sigma={p['sigma']}")
    w1_slope = _loglog_slope([r["rho"] for r in small], [r["exact_w1"] for r in small])
    tv_slope = _loglog_slope([r["rho"] for r in small], [r["exact_tv"] for r in small])

    config = {"experiment": "bias-toy", "seed": spec.seed, "sigma": p["sigma"], "b": p["b"],
              "mu": p["mu"], "n_grid": p["n_grid"], "bounds_dominate": dominated,
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
                       "t_max": 500}, least={"t_max": 2})
    sigma, b, mu = p["sigma"], p["b"], p["mu"]
    rho, theta0, t_max = p["rho"], p["theta0"], p["t_max"]
    check_scale(sigma, "rate-toy's sigma")
    check_scale(rho)
    if not math.isfinite(theta0):
        raise InvalidParameter(f"rate-toy needs a finite theta0, got {theta0}")

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
        if len(usable) < 2:
            raise InvalidParameter(f"rate-toy fits the tail slope of {key}, but only "
                                   f"{len(usable)} of its values for t = 1..{min(t_max, 59)} "
                                   f"lie above 1e-12")
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
    the exact master draw is z + rho xi, computed in place.
    """
    z = group.sampler(thetas[:, None, :], rho, rng)[:, 0, :]
    noise = rng.standard_normal(thetas.shape)
    noise *= rho
    noise += z
    return noise


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


def _ar1_constants(m: float, rho: float):
    """(phi, scale) of the one-sweep law theta' = phi theta + scale xi at precision m.

    The sweep draws z ~ N(phi theta, rho^2 phi), phi = 1/(1 + rho^2 m), and
    then theta' = z + rho xi, so scale^2 = rho^2 phi + rho^2.
    """
    phi = 1.0 / (1.0 + rho**2 * m)
    return phi, math.sqrt(rho**2 * phi + rho**2)


def _small_m(kappa: float, M: float) -> float:
    """m = M / kappa, for a condition number kappa > 0."""
    if not kappa > 0:
        raise InvalidParameter(f"gaussian-mixing needs condition numbers kappa > 0, got {kappa}")
    return M / kappa


def _first_passage(m, rho, thetas, rng, sweep_cap, distance, threshold):
    """(first sweep t <= sweep_cap with distance(chains) < threshold, whether none was).

    Steps the population thetas of the precision-m coordinate in place by
    its exact one-sweep law (_ar1_constants), one normal per chain from rng,
    and returns (sweep_cap, True) when it never gets within threshold.
    """
    phi, scale = _ar1_constants(m, rho)
    for t in range(1, sweep_cap + 1):
        noise = rng.standard_normal(thetas.size)
        noise *= scale
        thetas *= phi
        thetas += noise
        if distance(thetas) < threshold:
            return t, False
    return sweep_cap, True


def _mixing_time_tv(m, M, rho, eps, n_chains, seed, sweep_cap, n_bins=50):
    """First sweep at which the binned TV of coordinate 0 drops below eps + floor.

    The chains of aniso_gaussian(d, m, M) start from N(0, I/M), and only
    their coordinate 0 is stepped (_first_passage), from N(0, 1/M).
    """
    rng = _rng(seed, 0)
    var_target = 1.0 / m
    span = 5.0 * math.sqrt(var_target)
    edges = np.linspace(-span, span, n_bins + 1)
    cdf = ndtr(edges / math.sqrt(var_target))  # the target's, once per run
    floor = _tv_noise_floor(var_target, n_chains, edges, cdf, _rng(seed, 1))
    thetas = rng.standard_normal(n_chains) / math.sqrt(M)
    t, capped = _first_passage(m, rho, thetas, rng, sweep_cap,
                               lambda x: _binned_tv_vs_gaussian(x, edges, cdf), eps + floor)
    return t, floor, capped


def _mixing_time_w1(m, rho, eps, n_chains, seed, sweep_cap):
    """First sweep at which the W1 distance of coordinate 0 drops below eps sqrt(1/m).

    The chains of aniso_gaussian(d, m, M) start from the point mass at the
    minimizer, and only their coordinate 0 is stepped (_first_passage).
    """
    var_target = 1.0 / m
    return _first_passage(m, rho, np.zeros(n_chains), _rng(seed, 0), sweep_cap,
                          lambda x: w1_samples_vs_gaussian(x, 0.0, var_target),
                          eps * math.sqrt(var_target))


def run_gaussian_mixing(spec: ExperimentSpec):
    p = _params(spec, {"which": "all", "eps": 0.1, "replicates": 5,
                       "d_grid": (10, 20, 50, 100, 200), "m": 0.25, "M": 1.0,
                       "n_chains": 4000,
                       "kappa_grid": (10.0, 40.0, 160.0, 640.0, 1600.0), "d": 10,
                       "n_chains_w1": 2000, "eps_grid": (0.16, 0.11, 0.08, 0.055, 0.04),
                       "d_precision": 2, "kappa_precision": 3.0, "n_chains_precision": 200_000},
                least={"replicates": 1, "n_chains": 2, "d": 1, "n_chains_w1": 2,
                       "n_chains_precision": 2})
    which, eps, replicates = p["which"], p["eps"], p["replicates"]
    if which not in ("dimension", "kappa", "precision", "all"):
        raise InvalidParameter(f"gaussian-mixing which={which!r}; "
                               "choose dimension, kappa, precision or all")
    for part, key in (("dimension", "d_grid"), ("kappa", "kappa_grid"),
                      ("precision", "eps_grid")):
        if which in (part, "all") and len(set(p[key])) < 2:
            raise InvalidParameter(f"gaussian-mixing fits its {part} slope over {key}, which "
                                   f"needs two distinct values, got {p[key]}")
    # Every selected part is planned, and so checked, before any part runs.
    # A part is (name, grid column, plans by distinct grid value in grid order,
    # cell, the slope's config key, the slope's x for a grid value, config echo
    # with the replicate count); its cell gives a row's last columns.
    M = 1.0
    parts = []
    if which in ("dimension", "all"):
        m, M_dim, n_chains = p["m"], p["M"], p["n_chains"]
        dim_plans = {d: plan_tv_single(m, M_dim, d, eps) for d in p["d_grid"]}

        def dimension_cell(d, plan, rep):
            t_emp, floor, capped = _mixing_time_tv(m, M_dim, plan.rho, eps, n_chains,
                                                   _seed_for(spec.seed, 1, d, rep),
                                                   int(3 * plan.t_mix) + 10)
            return {"t_theory": plan.t_mix, "t_empirical": t_emp, "tv_noise_floor": floor,
                    "hit_cap": capped}

        parts.append(("dimension", "d", dim_plans, dimension_cell, "fit_slope", float,
                      {"eps": eps, "m": m, "M": M_dim, "n_chains": n_chains,
                       "replicates": replicates}))
    if which in ("kappa", "all"):
        n_chains_w1 = p["n_chains_w1"]
        kappa_plans = {k: plan_w1_single(_small_m(k, M), M, eps) for k in p["kappa_grid"]}

        def kappa_cell(kappa, plan, rep):
            t_emp, capped = _mixing_time_w1(_small_m(kappa, M), plan.rho, eps, n_chains_w1,
                                            _seed_for(spec.seed, 2, _bits(kappa), rep),
                                            int(5 * math.log(10.0 / eps) / plan.k_sgs) + 10)
            return {"branch": plan.metadata["active_branch"], "t_empirical": t_emp,
                    "hit_cap": capped}

        parts.append(("kappa", "kappa", kappa_plans, kappa_cell, "fit_slope", float,
                      {"eps": eps, "d": p["d"], "n_chains": n_chains_w1,
                       "replicates": replicates}))
    if which in ("precision", "all"):
        n_chains_precision = p["n_chains_precision"]
        m_precision = _small_m(p["kappa_precision"], M)
        eps_plans = {e: plan_tv_single(m_precision, M, p["d_precision"], e)
                     for e in p["eps_grid"]}

        def precision_cell(e, plan, rep):
            t_emp, floor, capped = _mixing_time_tv(
                m_precision, M, plan.rho, e, n_chains_precision,
                _seed_for(spec.seed, 3, _bits(e), rep), int(3 * plan.t_mix) + 10, n_bins=40)
            return {"t_theory": plan.t_mix, "t_empirical": t_emp, "tv_noise_floor": floor,
                    "hit_cap": capped}

        parts.append(("precision", "eps", eps_plans, precision_cell,
                      "fit_slope_vs_log2eps_over_eps", lambda e: math.log(2.0 / e) / e,
                      {"d": p["d_precision"], "kappa": p["kappa_precision"],
                       "n_chains": n_chains_precision, "replicates": min(replicates, 3)}))

    results, outputs = {}, []
    for name, column, plans, cell, slope_key, fit_x, config in parts:
        rows = [{column: v, "replicate": rep, "rho2": plan.rho2, "k_sgs": plan.k_sgs,
                 **cell(v, plan, rep)}
                for v, plan in plans.items() for rep in range(config["replicates"])]
        means = {v: np.mean([r["t_empirical"] for r in rows if r[column] == v]) for v in plans}
        slope = _loglog_slope([fit_x(v) for v in means], list(means.values()))
        config = {"experiment": f"gaussian-mixing/{name}", "seed": spec.seed,
                  "bit_generator": _BIT_GENERATOR.__name__, **config, slope_key: slope}
        outputs.append(_write_csv(spec.out_dir / f"gaussian_mixing_{name}.csv",
                                  config, list(rows[0]), rows))
        results[f"{name}_slope"] = slope
    results["csv"] = outputs
    return results


def _seed_for(seed, *key):
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


def _bits(value: float) -> int:
    """A seed key for a grid value: its float64 bits, so distinct values get distinct keys."""
    return int(np.float64(value).view(np.uint64))


# ---------------------------------------------------------------------------
# mixture: planner guidance end to end against exact sampling, plus ULA timing


def _chi2_stat(cdf_values, n_bins):
    """Pearson chi^2 of samples against n_bins equal-mass bins of a law.

    The samples are given as that law's cdf at each, so the bins split [0, 1] evenly.
    """
    counts = np.histogram(cdf_values, bins=n_bins, range=(0.0, 1.0))[0]
    expected = cdf_values.size / n_bins
    return float(((counts - expected) ** 2 / expected).sum())


def _two_halves(pool, step, starts, rngs, *args):
    """step(x, rng, *args) of both halves: half 1 on the pool's worker, half 0 on this thread.

    Returns the two results, half 0 first, and the wall seconds of the pair.
    """
    t0 = time.perf_counter()
    second = pool.submit(step, starts[1], rngs[1], *args)
    first = step(starts[0], rngs[0], *args)
    return (first, second.result()), time.perf_counter() - t0


def _sgs_half(thetas, rng, group, rho, sweeps):
    for _ in range(sweeps):
        thetas = _population_sweep(group, rho, thetas, rng)
    return thetas


def _ula_half(thetas, rng, group, h, sweeps):
    """sweeps ULA steps x - h grad + sqrt(2h) xi of every row, made in place."""
    noise_scale = math.sqrt(2.0 * h)
    for _ in range(sweeps):
        drift = group.gradient(thetas, ALL_BLOCKS)
        drift *= h
        thetas -= drift
        noise = rng.standard_normal(thetas.shape)
        noise *= noise_scale
        thetas += noise
    return thetas


def run_mixture(spec: ExperimentSpec):
    p = _params(spec, {"d_grid": (4, 8, 16), "eps": 0.1, "n_samples": 2500, "n_bins": 40,
                       "a_norm": 1.0 / math.sqrt(2.0), "ula_sweeps": 500},
                least={"n_samples": 1, "n_bins": 2, "ula_sweeps": 1})
    eps, n_samples, n_bins, a_norm = p["eps"], p["n_samples"], p["n_bins"], p["a_norm"]
    m, M = 1.0 - a_norm**2, 1.0
    sizes = ((n_samples + 1) // 2, n_samples // 2)

    rows = []
    crit = float(2.0 * gammaincinv((n_bins - 1) / 2.0, 0.95))  # the chi^2 quantile
    with ThreadPoolExecutor(1) as pool:
        for d in p["d_grid"]:
            model = zoo.gaussian_mixture(d=d, a_norm=a_norm)
            (group,) = model.groups
            a = model.mixture_direction
            plan6 = plan_tv_single(m, M, d, eps)
            plan7 = plan_tv_multi(model, eps, theta_star=np.zeros(d))
            rho = plan6.rho
            rngs = [_rng(spec.seed, 4, d, h) for h in (0, 1)]

            starts = [stream.standard_normal((n, d)) / math.sqrt(M)
                      for n, stream in zip(sizes, rngs)]
            halves, sgs_time = _two_halves(pool, _sgs_half, starts, rngs,
                                           group, rho, plan6.t_mix)
            thetas = np.concatenate(halves)

            # Exact reference: component sign then unit Gaussian around +-a.
            rng = _rng(spec.seed, 4, d)
            signs = np.where(rng.uniform(size=n_samples) < 0.5, 1.0, -1.0)
            exact = signs[:, None] * a + rng.standard_normal((n_samples, d))

            # ULA on the same target with stepsize h = rho^2 (wall-clock
            # baseline); each chain is a row of the group's one block.
            ula_sweeps = min(plan6.t_mix, p["ula_sweeps"])
            starts = [stream.standard_normal((n, d)) / math.sqrt(M)
                      for n, stream in zip(sizes, rngs)]
            _, ula_time = _two_halves(pool, _ula_half, starts, rngs, group, rho**2, ula_sweeps)

            na = float(np.linalg.norm(a))
            target_cdf = IsotropicMixture(a, 1.0).projected_cdf
            rows.append({
                "d": d, "rho2": plan6.rho2, "t_mix_single": plan6.t_mix,
                "t_mix_multi": plan7.t_mix, "k_sgs": plan6.k_sgs,
                "chi2_sgs": _chi2_stat(target_cdf(thetas @ a / na), n_bins),
                "chi2_exact": _chi2_stat(target_cdf(exact @ a / na), n_bins),
                "chi2_critical_5pct": crit,
                "sgs_seconds_per_sweep": sgs_time / plan6.t_mix,
                "ula_seconds_per_sweep": ula_time / ula_sweeps,
                "sgs_wall_seconds": sgs_time,
            })

    config = {"experiment": "mixture", "seed": spec.seed,
              "bit_generator": _BIT_GENERATOR.__name__, "eps": eps,
              "n_samples": n_samples, "n_bins": n_bins, "a_norm": a_norm,
              "m": m, "M": M}
    path = _write_csv(spec.out_dir / "mixture.csv", config, list(rows[0]), rows)
    return {"csv": path, "rows": rows, "chi2_critical": crit}


# ---------------------------------------------------------------------------
# logistic: both splitting strategies, rejection efficiency, plan comparison


def run_logistic(spec: ExperimentSpec):
    p = _params(spec, {"d_grid": (2, 10, 50), "n_grid": (200, 1000), "b_grid": (2, 5, 10),
                       "sweeps": 100, "eps": 0.01}, least={"b_grid": 1})
    d_grid, n_grid, b_grid = p["d_grid"], p["n_grid"], p["b_grid"]
    sweeps, eps = p["sweeps"], p["eps"]

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
