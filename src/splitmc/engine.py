"""The Gibbs sweep, its optimizer twins and binary trace files.

One sweep refreshes every auxiliary block from the previous master iterate
and then redraws the master parameter from its Gaussian conditional. Given
theta the blocks are conditionally independent, so each factor group is
drawn at once with array operations.

Randomness contract: a chain keys the counter-based Philox generator once,
with key = SeedSequence(root seed).generate_state(2, uint64). Sweep t,
phase p draws from the Philox stream at counter (0, p, t, 0): word 0 is the
position within the stream, word 1 the phase, word 2 the sweep, and word 3
is reserved for a chain index and stays 0. Phase 0 feeds the auxiliary
blocks, group by group and, within each rejection round, in block order;
phase 1 feeds the master draw. Stream (t, p) depends on (root seed, t, p)
only, so a chain is reproducible bit for bit from (model, config, seed),
and any sweep can be replayed on its own (sgs_sweep without a factory).
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .conditionals import (
    DEFAULT_PROPOSAL_CAP,
    BlockReports,
    ThetaConditional,
    sample_z_group,
    warm_start_group,
)
from .errors import DimensionMismatch, InvalidParameter, NonFiniteDraw, check_rho
from .model import SplitModel

TRACE_MAGIC = b"SGS1"
_TRACE_HEADER = struct.Struct("<4sqq")

# Stream phases of one sweep.
PHASE_BLOCKS = 0
PHASE_MASTER = 1


@dataclass
class ChainState:
    """One Markov-chain iterate: (theta, z_1..z_b) plus the seed it grew from.

    z_groups holds the auxiliary blocks as one (b_g, k_g) array per factor
    group of the model; z_blocks lists them one block at a time. The next
    sweep reads theta alone: given theta, the blocks' conditional does not
    depend on their previous values.
    """

    theta: np.ndarray
    z_groups: tuple
    sweep: int
    rng_seed_root: int

    def __post_init__(self):
        if self.sweep < 0:
            raise InvalidParameter("sweep index must be nonnegative")

    @property
    def z_blocks(self) -> tuple:
        return _blocks(self.z_groups)


def _blocks(z_groups) -> tuple:
    return tuple(z for zg in z_groups for z in zg)


@dataclass(frozen=True)
class SamplerConfig:
    rho: float
    sweeps: int
    burn_in: int = 0
    record_every: int = 1
    proposal_cap: int = DEFAULT_PROPOSAL_CAP

    def __post_init__(self):
        check_rho(self.rho)
        if not 0 <= self.burn_in < self.sweeps:
            raise InvalidParameter("burn_in must satisfy 0 <= burn_in < sweeps")
        if self.record_every < 1:
            raise InvalidParameter("record_every must be >= 1")
        if not self.proposal_cap >= 1:
            raise InvalidParameter(f"proposal_cap must be >= 1, got {self.proposal_cap}")


def initial_state(model: SplitModel, theta0: np.ndarray, seed: int) -> ChainState:
    """The chain's start: theta0, every block at A_i theta0, sweep 0.

    A non-finite theta0 is refused with InvalidParameter before it reaches
    the coupling or a draw.
    """
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.shape != (model.d,):
        raise DimensionMismatch("theta0 has the wrong length")
    if not np.isfinite(theta0).all():
        raise InvalidParameter(f"theta0 must be finite, got {theta0}")
    z0 = tuple(g.couple(theta0) for g in model.groups)
    return ChainState(theta=theta0, z_groups=z0, sweep=0, rng_seed_root=int(seed))


@lru_cache(maxsize=64)
def _chain_key(root: int) -> np.ndarray:
    """The Philox key of every chain grown from root (read-only)."""
    key = np.random.SeedSequence(root).generate_state(2, np.uint64)
    key.setflags(write=False)
    return key


class SweepStreams:
    """The random streams of one chain, as an rng_factory(sweep, phase).

    Holds one Philox generator and one full state dict per phase. On each
    call it writes the sweep into word 2 of that dict's counter and sets the
    generator's state from the dict (counter, key, an empty output buffer,
    no buffered 32-bit half), so the stream returned starts at counter
    (0, phase, sweep, 0) and depends on (root, sweep, phase) only. Setting a
    state copies it into the generator, so the dicts are never aliased. A
    generator stays valid until the next call for its phase.
    """

    def __init__(self, root: int):
        self.key = _chain_key(int(root))
        self._generators = tuple(np.random.Generator(np.random.Philox(key=self.key))
                                 for _ in (PHASE_BLOCKS, PHASE_MASTER))
        buffer = np.zeros(4, dtype=np.uint64)
        self._states = tuple(
            {"bit_generator": "Philox",
             "state": {"counter": np.array((0, phase, 0, 0), dtype=np.uint64), "key": self.key},
             "buffer": buffer, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
            for phase in (PHASE_BLOCKS, PHASE_MASTER))

    def __call__(self, sweep: int, phase: int) -> np.random.Generator:
        gen = self._generators[phase]
        state = self._states[phase]
        state["state"]["counter"][2] = sweep
        gen.bit_generator.state = state
        return gen


def _draw_blocks(model: SplitModel, theta: np.ndarray, config: SamplerConfig, rng, sweep: int):
    """Every auxiliary block given theta, group by group: (z per group, BlockReports)."""
    if model.closed_form:
        reports = _closed_form_reports(model.b)
    else:
        reports = BlockReports(np.zeros(model.b, dtype=np.int64),
                               np.zeros(model.b, dtype=np.int64), np.zeros(model.b))
    proposals, gd_steps, expected = reports.proposals, reports.gd_steps, reports.expected
    z_new = []
    start = 0
    for g in model.groups:
        a_theta = g.couple(theta)
        if g.sampler is not None:
            z = g.sampler(a_theta, config.rho, rng)
        else:
            rows = slice(start, start + g.b)
            z, proposals[rows], gd_steps[rows], expected[rows] = sample_z_group(
                g, a_theta, config.rho, rng, proposal_cap=config.proposal_cap)
        finite = np.isfinite(z)
        if not finite.all():
            bad = start + int(np.flatnonzero(~finite.all(axis=1))[0])
            raise NonFiniteDraw(f"sweep {sweep}: auxiliary block {bad} is not finite")
        z_new.append(z)
        start += g.b
    return tuple(z_new), reports


@lru_cache(maxsize=16)
def _closed_form_reports(b: int) -> BlockReports:
    """The reports of a sweep with no rejection draws: shared read-only zeros."""
    arrays = (np.zeros(b, dtype=np.int64), np.zeros(b, dtype=np.int64), np.zeros(b))
    for a in arrays:
        a.setflags(write=False)
    return BlockReports(*arrays)


def sgs_sweep(model: SplitModel, state: ChainState, config: SamplerConfig,
              theta_cond: ThetaConditional | None = None, rng_factory=None):
    """Advance the chain by one sweep; returns (new state, per-block reports).

    The reports are a BlockReports sequence: a RejectionReport for each
    block drawn by rejection, None for closed-form blocks; a model drawn
    wholly in closed form shares one read-only set. rng_factory(sweep,
    phase) returns the generator of each phase; phase 0 feeds every
    auxiliary block, phase 1 the master-parameter draw. By default it is
    SweepStreams(state.rng_seed_root): the Philox streams keyed once per
    root seed, at counter (0, phase, sweep, 0), so this call gives the same
    draws as sweep state.sweep + 1 of run_chain. Passing a factory of null
    generators turns the sweep into its deterministic conditional-mode twin
    on Gaussian models. Raises NonFiniteDraw, naming the sweep and the first
    bad block, when a draw is not finite.
    """
    if theta_cond is None:
        theta_cond = ThetaConditional(model, config.rho)
    sweep = state.sweep + 1
    if rng_factory is None:
        rng_factory = SweepStreams(state.rng_seed_root)
    z_new, reports = _draw_blocks(model, state.theta, config, rng_factory(sweep, PHASE_BLOCKS),
                                  sweep)
    theta_new = theta_cond.sample(z_new, rng_factory(sweep, PHASE_MASTER))
    if not np.isfinite(theta_new).all():
        raise NonFiniteDraw(f"sweep {sweep}: the master draw is not finite")
    new_state = ChainState(theta=theta_new, z_groups=z_new, sweep=sweep,
                           rng_seed_root=state.rng_seed_root)
    return new_state, reports


def _group_mode(group, a_theta: np.ndarray, rho: float, tol: float) -> np.ndarray:
    if group.mode is not None:
        return group.mode(a_theta, rho)
    return warm_start_group(group, a_theta, rho, tol)[0]


def sweep_conditional_modes(model: SplitModel, theta: np.ndarray, rho: float,
                            tol: float = 1e-10):
    """The deterministic twin of one sweep: conditional modes instead of draws.

    Returns (theta, z_blocks); the master step is the sweep's own
    conditional mean, SplitModel.master_mean.
    """
    z_new = [_group_mode(g, g.couple(theta), rho, tol) for g in model.groups]
    return model.master_mean(z_new), list(_blocks(z_new))


@dataclass
class RunReport:
    """Aggregated per-run diagnostics for downstream tables."""

    thetas: np.ndarray
    sweeps_run: int
    seed: int
    rho: float
    wall_time_s: float
    proposals_total: np.ndarray
    rejection_draws: np.ndarray
    gd_steps_total: np.ndarray
    final_state: ChainState = field(repr=False)

    @property
    def proposals_per_draw(self) -> np.ndarray:
        """Average proposals per accepted sample, per factor (nan for closed-form blocks)."""
        with np.errstate(invalid="ignore", divide="ignore"):
            return self.proposals_total / self.rejection_draws

    @property
    def max_avg_proposals(self) -> float:
        per = self.proposals_per_draw
        per = per[~np.isnan(per)]
        return float(per.max()) if per.size else float("nan")


def run_chain(model: SplitModel, config: SamplerConfig, seed: int,
              theta0: np.ndarray | None = None, callback=None,
              trace_path=None) -> RunReport:
    """Run a full chain; record theta every record_every sweeps after burn-in.

    callback(sweep, state, reports) may return False to stop early.
    When trace_path is given, recorded rows are also streamed to a binary
    trace file (see TraceWriter for the layout).
    """
    theta0 = np.zeros(model.d) if theta0 is None else theta0
    state = initial_state(model, theta0, seed)
    cond = ThetaConditional(model, config.rho)
    b = model.b
    proposals = np.zeros(b)
    rejection_draws = np.zeros(b)
    gd_steps = np.zeros(b)
    recorded = []
    writer = TraceWriter(trace_path, model.d) if trace_path is not None else None
    streams = SweepStreams(state.rng_seed_root)
    t0 = time.perf_counter()
    sweeps_run = 0
    try:
        for t in range(1, config.sweeps + 1):
            state, reports = sgs_sweep(model, state, config, cond, streams)
            sweeps_run = t
            if not model.closed_form:
                proposals += reports.proposals
                rejection_draws += reports.proposals > 0
                gd_steps += reports.gd_steps
            if t > config.burn_in and (t - config.burn_in - 1) % config.record_every == 0:
                recorded.append(state.theta.copy())
                if writer is not None:
                    writer.append(state.theta)
            if callback is not None and callback(t, state, reports) is False:
                break
    finally:
        if writer is not None:
            writer.close()
    wall = time.perf_counter() - t0
    thetas = np.array(recorded) if recorded else np.empty((0, model.d))
    return RunReport(thetas=thetas, sweeps_run=sweeps_run, seed=int(seed),
                     rho=config.rho, wall_time_s=wall, proposals_total=proposals,
                     rejection_draws=rejection_draws, gd_steps_total=gd_steps,
                     final_state=state)


# ---------------------------------------------------------------------------
# Optimizer baselines


def am_solve(model: SplitModel, rho: float, iters: int,
             theta0: np.ndarray | None = None, inner_tol: float = 1e-10):
    """Alternating minimization of the quadratically penalized objective.

    Each iteration takes the conditional mode of every block (closed form
    when available, warm-start descent to inner_tol otherwise) and then the
    exact master-parameter mode. Deterministic counterpart of the sweep.
    """
    theta = np.zeros(model.d) if theta0 is None else np.array(theta0, dtype=float)
    z_blocks = None
    for _ in range(iters):
        theta, z_blocks = sweep_conditional_modes(model, theta, rho, tol=inner_tol)
    return theta, z_blocks


def admm_solve(model: SplitModel, rho: float, iters: int,
               theta0: np.ndarray | None = None, inner_tol: float = 1e-10):
    """Alternating direction method of multipliers on the same splitting.

    z-step: argmin U_i(z) + ||z - (A_i theta - u_i)||^2/(2 rho^2)
    theta-step: normal equations G theta = sum_i A_i^T (z_i + u_i)
    dual step: u_i += z_i - A_i theta
    """
    theta = np.zeros(model.d) if theta0 is None else np.array(theta0, dtype=float)
    duals = [np.zeros((g.b, g.k)) for g in model.groups]
    z = [g.couple(theta) for g in model.groups]
    for _ in range(iters):
        z = [_group_mode(g, g.couple(theta) - u, rho, inner_tol)
             for g, u in zip(model.groups, duals)]
        theta = model.master_mean([zg + u for zg, u in zip(z, duals)])
        duals = [u + zg - g.couple(theta) for g, zg, u in zip(model.groups, z, duals)]
    return theta, list(_blocks(z)), list(_blocks(duals))


# ---------------------------------------------------------------------------
# Binary trace files


class TraceWriter:
    """Little-endian trace: header (magic 'SGS1', int64 d, int64 T), then T rows
    of d float64 each. T is patched on close."""

    def __init__(self, path, d: int):
        self.path = path
        self.d = int(d)
        self.rows = 0
        self._fh = open(path, "wb")
        self._fh.write(_TRACE_HEADER.pack(TRACE_MAGIC, self.d, 0))

    def append(self, theta: np.ndarray):
        row = np.ascontiguousarray(theta, dtype="<f8")
        if row.shape != (self.d,):
            raise DimensionMismatch("trace row has the wrong length")
        self._fh.write(row.tobytes())
        self.rows += 1

    def close(self):
        if self._fh is None:
            return
        self._fh.seek(4 + 8)
        self._fh.write(struct.pack("<q", self.rows))
        self._fh.close()
        self._fh = None


def read_trace(path) -> np.ndarray:
    """Load a trace file back as a (T, d) array.

    The row count comes from the file length, so a trace whose writer never
    closed it (header T = 0) or that was cut short still loads; a trailing
    partial row is dropped.
    """
    with open(path, "rb") as fh:
        header = fh.read(_TRACE_HEADER.size)
        payload = fh.read()
    if len(header) < _TRACE_HEADER.size:
        raise ValueError("not a trace file: header is truncated")
    magic, d, _ = _TRACE_HEADER.unpack(header)
    if magic != TRACE_MAGIC:
        raise ValueError(f"not a trace file: magic {magic!r}")
    if d < 1:
        raise ValueError(f"trace header gives dimension {d}")
    rows = len(payload) // (8 * d)
    return np.frombuffer(payload[:8 * d * rows], dtype="<f8").reshape(rows, d)
