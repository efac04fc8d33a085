"""The measurement loop of the benchmark: set-ups, operations, speed probes, metrics."""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import layers
import speed
import workloads
from speed import SpeedProbe
from splitmc import SplitMCError
from tracer import Tracer

# Set-up is repeated throughout the run, so that it samples the same
# machine conditions as the operations: before each operation, until the
# set-ups of that round have taken SETUP_SHARE of the previous operation's
# time. setup_s is the median over all of them.
SETUP_SHARE = 0.2
MAX_SETUPS_PER_ROUND = 50

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "sweep_ms_p50": "ms",
    "sweep_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


class Ledger:
    """Counts operations attempted and failed; keeps the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.messages: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.messages)

    def run(self, fn, *args, **kwargs):
        """Run one operation; a SplitMCError or a failed output check is a failure."""
        self.attempted += 1
        try:
            result = fn(*args, **kwargs)
        except SplitMCError as exc:
            self.messages.append(f"{type(exc).__name__}: {exc}")
            return None
        failures = getattr(result, "failures", ())
        if failures:
            self.messages.append("; ".join(failures))
        return result


@dataclass
class Loop:
    """Everything one closed loop measured."""

    setup: object
    setups: list  # (start, end) of every set-up
    results: list  # OpResult, or None for an operation that raised
    probe: SpeedProbe

    def done(self):
        return [r for r in self.results if r is not None]

    def op_times(self):
        """(wall, reference-speed) time of each completed operation."""
        done = self.done()
        wall = np.array([r.wall_s for r in done])
        return wall, wall * self.probe.scale([r.start for r in done], [r.end for r in done])


def run_loop(workload, seed, seconds, ledger, span, count=None) -> Loop:
    """Closed loop: operations back to back for `seconds`, or exactly `count` of them.

    Set-ups are interleaved with the operations: before each operation,
    until that round's set-ups have taken SETUP_SHARE of the previous
    operation's time.
    """
    probe = SpeedProbe()
    setups, results = [], []
    setup = None

    def setup_once():
        nonlocal setup
        probe.maybe()
        t0 = time.perf_counter()
        setup = ledger.run(workload.setup, seed, span)
        setups.append((t0, time.perf_counter()))
        if setup is None:
            raise SystemExit(f"error: set-up failed: {ledger.messages[-1]}")
        return setups[-1][1] - t0

    setup_once()
    deadline = time.perf_counter() + seconds
    k = 0
    while (k < count) if count is not None else (k == 0 or time.perf_counter() < deadline):
        if results and results[-1] is not None:
            spent, budget = 0.0, SETUP_SHARE * results[-1].wall_s
            for _ in range(MAX_SETUPS_PER_ROUND):
                spent += setup_once()
                if spent >= budget:
                    break
        probe.probe()
        results.append(ledger.run(workload.run_op, setup, seed, k, probe, span))
        k += 1
    probe.probe()
    return Loop(setup=setup, setups=setups, results=results, probe=probe)


def end_to_end_metrics(loop: Loop):
    """The end-to-end metrics at reference speed, plus their wall-clock twins."""
    done = loop.done()
    if not done:
        raise SystemExit("error: every operation failed; nothing to time")
    starts, ends = np.array(loop.setups).T
    setup_wall = ends - starts
    setup_ref = setup_wall * loop.probe.scale(starts, ends)
    op_wall, op_ref = loop.op_times()
    sweeps = np.concatenate([r.sweeps for r in done])
    sweep_wall = (sweeps[:, 1] - sweeps[:, 0]) * 1e3
    sweep_ref = sweep_wall * loop.probe.scale(sweeps[:, 0], sweeps[:, 1])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB on Linux
    values = {
        "setup_s": float(np.median(setup_ref)),
        "run_s": float(np.median(op_ref)),
        "sweep_ms_p50": float(np.percentile(sweep_ref, 50)),
        "sweep_ms_p90": float(np.percentile(sweep_ref, 90)),
        "peak_rss_mb": rss_mb,
    }
    wall = {
        "setup_s": float(np.median(setup_wall)),
        "run_s": float(np.median(op_wall)),
        "sweep_ms_p50": float(np.percentile(sweep_wall, 50)),
        "sweep_ms_p90": float(np.percentile(sweep_wall, 90)),
    }
    samples = {"setups": len(setup_wall), "operations": len(done), "sweeps": len(sweep_wall),
               "speed_probes": len(loop.probe.times),
               "probe_ms_median": float(np.median(loop.probe.durations)) * 1e3}
    return values, wall, samples


def traced_run(workload, seed, seconds, ledger, out_dir: Path):
    """Traced set-up and loop, then the same operations replayed untraced.

    Half of `seconds` goes to the traced loop; the untraced replay of the
    same operations gives the tracing overhead and the bit-identity check.
    """
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_loop(workload, seed, seconds / 2.0, ledger, tracer.span)
    finally:
        tracer.uninstall()
    plain = run_loop(workload, seed, 0.0, ledger, workloads.no_span, count=len(traced.results))
    pairs = [(a, b) for a, b in zip(traced.results, plain.results)
             if a is not None and b is not None]
    if not pairs:
        raise SystemExit("error: every traced operation failed; nothing to compare")
    identical = all(a.fingerprint == b.fingerprint for a, b in pairs)
    if not identical:
        ledger.messages.append("traced outputs differ from the untraced replay")
    overhead = float(np.median(traced.op_times()[1]) / np.median(plain.op_times()[1]) - 1.0)

    spans = tracer.spans()
    out_dir.mkdir(exist_ok=True)
    spans.save(out_dir / f"{workload.name}-spans.npz")
    # Span times are rescaled by one factor for the whole traced loop.
    factor = speed.REFERENCE_S / float(np.mean(traced.probe.durations))
    metrics, not_observed = layers.layer_metrics(
        spans, traced.results, getattr(traced.setup, "minimizer_iters", None), overhead, factor)
    extra = {"bit_identical": identical, "spans": len(spans), "not_observed": not_observed,
             "layers_not_observed": layers.layers_not_observed(spans),
             "samples": {"operations": len(traced.results),
                         "sweeps": len(spans.ids_named("engine.sgs_sweep")),
                         "reference_speed_factor": factor}}
    return metrics, extra
