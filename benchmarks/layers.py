"""Per-layer metrics computed from the spans of a traced run.

Each metric names the end-to-end figure it should move (see BENCHMARK.json
and README.md in this directory). A metric whose spans or counts never
appeared in the run is reported as 0 and listed as "not observed".
"""

from __future__ import annotations

import numpy as np

from tracer import LAYER_OF_MODULE
from workloads import EXPERIMENT_PHASES, PHASES

PER_LAYER = {
    "engine.rng_setup_us": "us",
    "engine.rng_calls_per_sweep": "count/sweep",
    "engine.sweep_self_ms": "ms",
    "conditionals.z_draw_us": "us",
    "conditionals.warm_start_us": "us",
    "conditionals.proposal_loop_us": "us",
    "conditionals.proposals_per_draw": "count/draw",
    "conditionals.accept_rate": "ratio",
    "conditionals.gd_steps_per_draw": "count/draw",
    "conditionals.realized_over_expected": "ratio",
    "conditionals.theta_mean_us": "us",
    "conditionals.theta_solve_us": "us",
    "model.build_ms": "ms",
    "model.find_minimizer_ms": "ms",
    "model.find_minimizer_iters": "count",
    "model.center_ms": "ms",
    "model.constants_ms": "ms",
    "planner.plan_ms": "ms",
    "planner.k_sgs_ms": "ms",
    **{f"experiments.{p}_s": "s" for p in PHASES},
    "experiments.self_s": "s",
    "metrics.calls": "count/op",
    "metrics.time_ms": "ms/op",
    "bias.lipschitz_bound_ms": "ms/op",
    "numerics.pc_quadrature_us": "us",
    "numerics.pc_calls": "count/op",
    "trace.overhead_frac": "ratio",
}


TIME_UNITS = ("us", "ms", "s", "ms/op")


def layer_metrics(spans, results, minimizer_iters, overhead_frac, speed_factor):
    """(values, not_observed) for every PER_LAYER metric.

    spans: the run's Spans; results: the traced OpResults (None for an
    operation that raised); minimizer_iters: from the last set-up, or None;
    speed_factor: multiplies every time, to report it at reference speed.
    """
    values: dict[str, float] = {}
    not_observed: list[str] = []

    def put(name, value, seen):
        values[name] = float(value) if seen else 0.0
        if not seen:
            not_observed.append(name)

    named = spans.ids_named
    dur = spans.duration
    parent = spans.parent
    n_ops = max(len(named("bench.op")), 1)

    def has_parent_named(ids, name):
        targets = named(name)
        return ids[np.isin(parent[ids], targets)]

    # engine: sweeps and the RNG streams built inside them.
    sweeps = named("engine.sgs_sweep")
    is_sweep = np.zeros(len(spans), dtype=bool)
    is_sweep[sweeps] = True
    in_sweep = spans.nearest(is_sweep) >= 0
    rng = np.intersect1d(named("numpy.random.default_rng"), np.flatnonzero(in_sweep))
    seedseq = np.intersect1d(named("numpy.random.SeedSequence"), np.flatnonzero(in_sweep))
    n_sweeps = len(sweeps)
    put("engine.rng_setup_us", (dur[rng].sum() + dur[seedseq].sum()) / max(len(rng), 1) * 1e6,
        len(rng) > 0)
    put("engine.rng_calls_per_sweep", len(rng) / max(n_sweeps, 1), n_sweeps > 0 and len(rng) > 0)
    everything = np.ones(len(spans), dtype=bool)
    put("engine.sweep_self_ms", spans.self_time(sweeps, everything) / max(n_sweeps, 1) * 1e3,
        n_sweeps > 0)

    # conditionals: auxiliary-block rejection draws and the master draw.
    draws = named("conditionals.sample_z_rejection")
    warm = has_parent_named(named("conditionals.warm_start_minimize"),
                            "conditionals.sample_z_rejection")
    n_draws = max(len(draws), 1)
    z_us = dur[draws].sum() / n_draws * 1e6
    warm_us = dur[warm].sum() / n_draws * 1e6
    put("conditionals.z_draw_us", z_us, len(draws) > 0)
    put("conditionals.warm_start_us", warm_us, len(warm) > 0)
    put("conditionals.proposal_loop_us", z_us - warm_us, len(draws) > 0)

    done = [r for r in results if r is not None]
    counts = {key: sum(r.counts.get(key, 0) for r in done)
              for key in ("draws", "proposals", "gd_steps", "expected")}
    seen = counts["draws"] > 0
    put("conditionals.proposals_per_draw", counts["proposals"] / max(counts["draws"], 1), seen)
    put("conditionals.accept_rate", counts["draws"] / max(counts["proposals"], 1), seen)
    put("conditionals.gd_steps_per_draw", counts["gd_steps"] / max(counts["draws"], 1), seen)
    put("conditionals.realized_over_expected",
        counts["proposals"] / counts["expected"] if seen else 0.0, seen)

    means = named("conditionals.ThetaConditional.mean")
    samples = named("conditionals.ThetaConditional.sample")
    means_in_sample = has_parent_named(means, "conditionals.ThetaConditional.sample")
    put("conditionals.theta_mean_us", dur[means].sum() / max(len(means), 1) * 1e6, len(means) > 0)
    put("conditionals.theta_solve_us",
        (dur[samples].sum() - dur[means_in_sample].sum()) / max(len(samples), 1) * 1e6,
        len(samples) > 0)

    # model and planner: the set-up, per set-up.
    setups = named("bench.setup")
    n_setups = max(len(setups), 1)
    direct = np.flatnonzero(np.isin(parent, setups))
    is_setup = np.zeros(len(spans), dtype=bool)
    is_setup[setups] = True
    under_setup = spans.nearest(is_setup) >= 0

    def setup_ms(name, predicate, ids=direct):
        hits = ids[[bool(predicate(spans.names[spans.name[i]])) for i in ids]] if len(ids) else ids
        put(name, dur[hits].sum() / n_setups * 1e3, len(hits) > 0)
        return len(hits) > 0

    setup_ms("model.build_ms", lambda n: n.startswith("zoo."))
    found = setup_ms("model.find_minimizer_ms", lambda n: n == "model.find_minimizer")
    put("model.find_minimizer_iters", minimizer_iters or 0, found and minimizer_iters is not None)
    setup_ms("model.center_ms", lambda n: n == "model.center_model")
    setup_ms("model.constants_ms", lambda n: n == "model.model_constants")
    setup_ms("planner.plan_ms", lambda n: n.startswith("planner.plan_"))
    setup_ms("planner.k_sgs_ms", lambda n: n == "planner.k_sgs",
             ids=np.flatnonzero(under_setup))

    # experiments: the gaussian-batch phases.
    for phase in PHASES:
        ids = named("bench.phase." + phase)
        put(f"experiments.{phase}_s", dur[ids].sum() / max(len(ids), 1), len(ids) > 0)
    phase_ids = np.concatenate([named("bench.phase." + p) for p in EXPERIMENT_PHASES])
    library = np.isin(spans.layer, [lay for lay in set(LAYER_OF_MODULE.values())
                                    if lay != "experiments"] + ["rng"])
    put("experiments.self_s", spans.self_time(phase_ids, library) / n_ops, len(phase_ids) > 0)

    # metrics, bias, numerics: work inside the batch, per operation.
    is_metrics = spans.layer == "metrics"
    top_metrics = np.flatnonzero(is_metrics & ~np.isin(parent, np.flatnonzero(is_metrics)))
    put("metrics.calls", len(top_metrics) / n_ops, len(top_metrics) > 0)
    put("metrics.time_ms", dur[top_metrics].sum() / n_ops * 1e3, len(top_metrics) > 0)
    lip = named("bias.tv_bound_lipschitz")
    put("bias.lipschitz_bound_ms", dur[lip].sum() / n_ops * 1e3, len(lip) > 0)
    pc = named("numerics.parabolic_cylinder_neg")
    put("numerics.pc_quadrature_us", dur[pc].sum() / max(len(pc), 1) * 1e6, len(pc) > 0)
    put("numerics.pc_calls", len(pc) / n_ops, len(pc) > 0)

    put("trace.overhead_frac", overhead_frac, True)
    return {name: values[name] * (speed_factor if unit in TIME_UNITS else 1.0)
            for name, unit in PER_LAYER.items()}, not_observed


def layers_not_observed(spans) -> list[str]:
    seen = set(spans.layer.tolist())
    return sorted(set(LAYER_OF_MODULE.values()) - seen)
