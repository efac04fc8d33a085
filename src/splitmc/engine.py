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

import math
import struct
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .conditionals import BlockReports, ThetaConditional, sample_z_group, warm_start_group
from .errors import DimensionMismatch, InvalidParameter, NonFiniteDraw, check_scale, check_seed
from .model import SplitModel

TRACE_MAGIC = b"SGS1"
_TRACE_HEADER = struct.Struct("<4sqq")

# Stream phases of one sweep.
PHASE_BLOCKS = 0
PHASE_MASTER = 1


@dataclass(slots=True)
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
        return tuple(z for zg in self.z_groups for z in zg)


@dataclass(frozen=True)
class SamplerConfig:
    rho: float
    sweeps: int
    burn_in: int = 0
    record_every: int = 1

    def __post_init__(self):
        check_scale(self.rho)
        if not 0 <= self.burn_in < self.sweeps:
            raise InvalidParameter("burn_in must satisfy 0 <= burn_in < sweeps")
        if self.record_every < 1:
            raise InvalidParameter("record_every must be >= 1")


def initial_state(model: SplitModel, theta0: np.ndarray, seed: int) -> ChainState:
    """The chain's start: theta0, every block at A_i theta0, sweep 0.

    A non-finite theta0 or a negative seed is refused with InvalidParameter
    before it reaches the coupling or a draw.
    """
    check_seed(seed)
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

    Holds one Philox generator and one full state dict whose counter, key
    and output buffer are Python ints. Each call writes the phase into word
    1 and the sweep into word 2 of the counter and sets the generator's
    state from the dict (an empty output buffer, no buffered 32-bit half),
    so the stream returned starts at counter (0, phase, sweep, 0) and
    depends on (root, sweep, phase) only. Setting a state copies it into
    the generator, so the dict is never aliased; the setter reads Python
    ints faster than numpy arrays. The generator returned stays valid until
    the next call, for either phase: a sweep uses up phase 0 before it asks
    for phase 1.
    """

    def __init__(self, root: int):
        self.key = _chain_key(int(root))
        self._generator = np.random.Generator(np.random.Philox(key=self.key))
        self._bit_generator = self._generator.bit_generator
        self._counter = [0, 0, 0, 0]
        self._state = {"bit_generator": "Philox",
                       "state": {"counter": self._counter, "key": self.key.tolist()},
                       "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def __call__(self, sweep: int, phase: int) -> np.random.Generator:
        counter = self._counter
        counter[1] = phase
        counter[2] = sweep
        self._bit_generator.state = self._state
        return self._generator


def _draw_group(group, c, theta: np.ndarray, rho: float, rng):
    """Every block of one factor group given theta, c its constants at rho: (z, BlockReports)."""
    a_theta = group.couple(theta)
    if group.sampler is not None:
        return group.sampler(a_theta, rho, rng), _closed_form_reports(group.b)
    z, proposals, gd_steps, expected = sample_z_group(c, a_theta, rng)
    return z, BlockReports(proposals, gd_steps, expected)


def _draw_blocks(kernel: ThetaConditional, theta: np.ndarray, rng):
    """Every auxiliary block given theta, group by group: (z per group, BlockReports).

    The reports of a one-group model are the arrays its draw returned; a
    model of several groups joins them, with zeros for closed-form groups.
    """
    model, rho = kernel.model, kernel.rho
    if len(model.groups) == 1:
        z, reports = _draw_group(model.groups[0], kernel.constants[0], theta, rho, rng)
        return (z,), reports
    z_new, drawn = zip(*(_draw_group(g, c, theta, rho, rng)
                         for g, c in zip(model.groups, kernel.constants)))
    if model.closed_form:
        return z_new, _closed_form_reports(model.b)
    return z_new, BlockReports(*(np.concatenate([getattr(r, name) for r in drawn])
                                 for name in BlockReports.__slots__))


@lru_cache(maxsize=16)
def _closed_form_reports(b: int) -> BlockReports:
    """The reports of a sweep with no rejection draws: shared read-only zeros."""
    arrays = (np.zeros(b, dtype=np.int64), np.zeros(b, dtype=np.int64), np.zeros(b))
    for a in arrays:
        a.setflags(write=False)
    return BlockReports(*arrays)


@lru_cache(maxsize=16)
def _zeros(d: int) -> np.ndarray:
    """Read-only zeros of length d, the second factor of sgs_sweep's finiteness check."""
    zeros = np.zeros(d)
    zeros.setflags(write=False)
    return zeros


def sgs_sweep(model: SplitModel, state: ChainState, config: SamplerConfig,
              theta_cond: ThetaConditional | None = None, rng_factory=None):
    """Advance the chain by one sweep; returns (new state, per-block reports).

    The reports are a BlockReports: per-block arrays of proposals, descent
    steps and expected-proposal bounds, all 0 for closed-form blocks; a
    model drawn wholly in closed form shares one read-only set.
    rng_factory(sweep, phase) returns the generator of each phase; phase 0
    feeds every auxiliary block, phase 1 the master-parameter draw, and
    phase 0 is used up before phase 1 is asked for. By default it is
    SweepStreams(state.rng_seed_root): the Philox streams keyed once per
    root seed, at counter (0, phase, sweep, 0), so this call gives the same
    draws as sweep state.sweep + 1 of run_chain. Passing a factory of null
    generators turns the sweep into its deterministic conditional-mode twin
    on Gaussian models.

    theta_cond is the chain's kernel at (model, config.rho); without one the
    sweep builds its own, so it is a checking sweep (see
    conditionals.sample_z_group), with the same draws.

    Finiteness is checked once per sweep, on the new theta: the master
    draw assembles A^T z, which carries a NaN or an infinity of any block
    into theta, through a zero coupling row too (0 * inf and 0 * NaN are
    NaN). The check is the dot product of theta with zeros: 0 x is 0 for
    every finite x, however large, and NaN otherwise, so it warns of
    nothing on a finite theta, where a sum could overflow. Only when theta
    is not finite are the blocks scanned, and NonFiniteDraw names the sweep
    and the first bad block, or the master draw when every block is finite.
    A non-finite theta may also make numpy warn of invalid arithmetic
    before the error.
    """
    if theta_cond is None:
        theta_cond = ThetaConditional(model, config.rho)
    sweep = state.sweep + 1
    if rng_factory is None:
        rng_factory = SweepStreams(state.rng_seed_root)
    z_new, reports = _draw_blocks(theta_cond, state.theta, rng_factory(sweep, PHASE_BLOCKS))
    theta_new = theta_cond.sample(z_new, rng_factory(sweep, PHASE_MASTER))
    if not math.isfinite(theta_new.dot(_zeros(model.d))):
        start = 0
        for z in z_new:
            finite = np.isfinite(z)
            if not finite.all():
                bad = start + int(np.flatnonzero(~finite.all(axis=1))[0])
                raise NonFiniteDraw(f"sweep {sweep}: auxiliary block {bad} is not finite")
            start += len(z)
        raise NonFiniteDraw(f"sweep {sweep}: the master draw is not finite")
    new_state = ChainState(theta=theta_new, z_groups=z_new, sweep=sweep,
                           rng_seed_root=state.rng_seed_root)
    return new_state, reports


@dataclass
class RunReport:
    """Aggregated per-run diagnostics for downstream tables.

    proposals_total, gd_steps_total and expected_total sum, per block, the
    proposals, descent steps and certified expected-proposal bounds of every
    sweep's BlockReports (all zero for closed-form blocks); dividing by
    rejection_draws gives per-draw averages, realized against certified.
    """

    thetas: np.ndarray
    sweeps_run: int
    seed: int
    rho: float
    wall_time_s: float
    proposals_total: np.ndarray
    rejection_draws: np.ndarray
    gd_steps_total: np.ndarray
    expected_total: np.ndarray
    final_state: ChainState = field(repr=False)

    @property
    def proposals_per_draw(self) -> np.ndarray:
        """Average proposals per accepted sample, per factor (nan for closed-form blocks)."""
        return self._per_draw(self.proposals_total)

    @property
    def max_avg_proposals(self) -> float:
        return self._max(self.proposals_per_draw)

    @property
    def max_avg_certified(self) -> float:
        """The largest per-block average of the certified expected-proposal bound."""
        return self._max(self._per_draw(self.expected_total))

    def _per_draw(self, total: np.ndarray) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            return total / self.rejection_draws

    @staticmethod
    def _max(per: np.ndarray) -> float:
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
    proposals = np.zeros(model.b)
    gd_steps = np.zeros(model.b)
    expected = np.zeros(model.b)
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
                gd_steps += reports.gd_steps
                expected += reports.expected
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
    # Every sweep draws each rejection block once and no closed-form block.
    rejection_draws = sweeps_run * np.concatenate(
        [np.full(g.b, g.sampler is None, dtype=float) for g in model.groups])
    return RunReport(thetas=thetas, sweeps_run=sweeps_run, seed=int(seed),
                     rho=config.rho, wall_time_s=wall, proposals_total=proposals,
                     rejection_draws=rejection_draws, gd_steps_total=gd_steps,
                     expected_total=expected, final_state=state)


# ---------------------------------------------------------------------------
# Optimizer baselines


def _group_mode(group, c, a_theta: np.ndarray, rho: float, tol: float) -> np.ndarray:
    if group.mode is not None:
        return group.mode(a_theta, rho)
    return warm_start_group(c, a_theta, tol)[0]


def am_solve(model: SplitModel, rho: float, iters: int,
             theta0: np.ndarray | None = None, inner_tol: float = 1e-10):
    """Alternating minimization of the quadratically penalized objective.

    Each iteration takes the conditional mode of every block (closed form
    when available, warm-start descent to inner_tol otherwise) and then the
    exact master-parameter mode, the sweep's own conditional mean
    ThetaConditional.mean: the deterministic twin of the sweep. Returns
    (theta, z) with z one (b_g, k_g) array per group, as in ChainState.
    """
    master = ThetaConditional(model, rho)
    theta = np.zeros(model.d) if theta0 is None else np.array(theta0, dtype=float)
    z = None
    for _ in range(iters):
        z = [_group_mode(g, c, g.couple(theta), rho, inner_tol)
             for g, c in zip(model.groups, master.constants)]
        theta = master.mean(z)
    return theta, z


def admm_solve(model: SplitModel, rho: float, iters: int,
               theta0: np.ndarray | None = None, inner_tol: float = 1e-10):
    """Alternating direction method of multipliers on the same splitting.

    z-step: argmin U_i(z) + ||z - (A_i theta - u_i)||^2/(2 rho^2)
    theta-step: normal equations G theta = sum_i A_i^T (z_i + u_i), by
    ThetaConditional.mean
    dual step: u_i += z_i - A_i theta

    Returns (theta, z, duals), z and duals one (b_g, k_g) array per group.
    """
    master = ThetaConditional(model, rho)
    theta = np.zeros(model.d) if theta0 is None else np.array(theta0, dtype=float)
    duals = [np.zeros((g.b, g.k)) for g in model.groups]
    z = [g.couple(theta) for g in model.groups]
    for _ in range(iters):
        z = [_group_mode(g, c, g.couple(theta) - u, rho, inner_tol)
             for g, c, u in zip(model.groups, master.constants, duals)]
        theta = master.mean([zg + u for zg, u in zip(z, duals)])
        duals = [u + zg - g.couple(theta) for g, zg, u in zip(model.groups, z, duals)]
    return theta, z, duals


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
        raise InvalidParameter("not a trace file: header is truncated")
    magic, d, _ = _TRACE_HEADER.unpack(header)
    if magic != TRACE_MAGIC:
        raise InvalidParameter(f"not a trace file: magic {magic!r}")
    if d < 1:
        raise InvalidParameter(f"trace header gives dimension {d}")
    rows = len(payload) // (8 * d)
    return np.frombuffer(payload[:8 * d * rows], dtype="<f8").reshape(rows, d)
