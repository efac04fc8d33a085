"""Sweep kernel behavior, optimizer twins, traces and reproducibility."""

import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.stats import kstest

from splitmc import (
    SamplerConfig,
    SplitModel,
    admm_solve,
    am_solve,
    build_model,
    center_model,
    find_minimizer,
    initial_state,
    read_trace,
    run_chain,
    sgs_sweep,
)
from splitmc.conditionals import ThetaConditional
from splitmc.engine import PHASE_BLOCKS, PHASE_MASTER, ChainState, SweepStreams, TraceWriter
from splitmc.errors import InvalidParameter, NonFiniteDraw
from splitmc.metrics import ToyParams
from splitmc.model import ALL_BLOCKS, FactorGroup, make_quadratic_group

from scalar_reference import pi_rho_cell_masses_2d, pi_rho_marginal_1d


class _ZeroRng:
    """Null noise source: turns exact Gaussian draws into their means."""

    def standard_normal(self, size=None):
        return 0.0 if size is None else np.zeros(size)

    def uniform(self, size=None):
        return 0.5 if size is None else np.full(size, 0.5)


class TestSweepDistribution:
    def test_toy_lag1_autocorrelation(self):
        # The scalar chain is an AR(1) with mean contraction sigma^2/(sigma^2+rho^2).
        model = build_model("toy-gaussian-1", sigma=3.0, b=10)
        rho = 1.0
        n = 100_000
        config = SamplerConfig(rho=rho, sweeps=n)
        report = run_chain(model, config, seed=424, theta0=np.zeros(1))
        x = report.thetas[:, 0]
        c = ToyParams(mu=0.0, sigma=3.0, b=10, rho=rho).mean_contraction
        r1 = float(np.corrcoef(x[:-1], x[1:])[0, 1])
        se = math.sqrt((1.0 - c**2) / n)
        assert abs(r1 - c) <= 4 * se

    def test_large_rho_decorrelates(self):
        model = build_model("toy-gaussian-1", sigma=3.0, b=10)
        n = 20_000
        report = run_chain(model, SamplerConfig(rho=500.0, sweeps=n), seed=3,
                           theta0=np.zeros(1))
        x = report.thetas[:, 0]
        r1 = float(np.corrcoef(x[:-1], x[1:])[0, 1])
        assert abs(r1) <= 5.0 / math.sqrt(n)

    def test_invariance_from_stationary_start(self):
        # 1e4 independent replicates, each advanced one sweep from an exact
        # stationary draw; the matched marginal must survive at the 1% level.
        model = build_model("toy-gaussian-1", sigma=3.0, b=10)
        rho = 1.0
        params = ToyParams(mu=0.0, sigma=3.0, b=10, rho=rho)
        sd = math.sqrt(params.stationary.variance)
        config = SamplerConfig(rho=rho, sweeps=1)
        init_rng = np.random.default_rng(777)
        out = np.empty(10_000)
        for k in range(out.size):
            theta0 = np.array([sd * init_rng.standard_normal()])
            state = initial_state(model, theta0, seed=10_000 + k)
            state, _ = sgs_sweep(model, state, config)
            out[k] = state.theta[0]
        result = kstest(out, lambda x: params.stationary.cdf(x))
        assert result.pvalue > 0.01

    @pytest.mark.parametrize("name, centered", [
        ("logistic-split1", False), ("logistic-split1", True),
        ("logistic-split2", False), ("logistic-split2", True),
    ], ids=["raw", "centered", "split2-raw", "split2-centered"])
    def test_rejection_sweep_keeps_pi_rho(self, name, centered):
        # One sweep of a logistic model, whose blocks are all drawn by
        # rejection, from an exact draw of pi_rho's theta-marginal (by
        # Gauss-Hermite over the blocks' own potentials): the marginal of
        # every coordinate must survive at the 1% level. The centered law is
        # written from the raw blocks plus the tilt centering subtracts, so a
        # wrong tilt fails the test as a wrong sampler does. logistic-split1
        # at d = 1 and rho = 2 inverts the marginal's cdf on a grid;
        # logistic-split2 at d = 2 (two shards of 8 rows, two-dimensional
        # blocks) and rho = 1 draws a cell of a tensor grid by its mass and a
        # uniform point in it. Either way one sweep moves theta well away
        # from its start.
        if name == "logistic-split1":
            raw, rho, seed = build_model(name, d=1, n=20, seed=3), 2.0, 20_000
        else:
            raw, rho, seed = build_model(name, d=2, n=16, b=2, seed=3), 1.0, 30_000
        theta_star = find_minimizer(raw).theta_star
        (group,) = raw.groups
        model, tilt = raw, None
        if centered:
            model = center_model(raw, theta_star)
            tilt = group.gradient(group.couple(theta_star), ALL_BLOCKS)
        n = 2000
        if raw.d == 1:
            grid = theta_star[0] + np.linspace(-10.0, 10.0, 2001)
            cdf = pi_rho_marginal_1d(group, rho, grid, None if tilt is None else tilt[:, 0])
            theta0 = np.interp(np.random.default_rng(11 + centered).random(n), cdf, grid)[:, None]
            marginal_cdfs = [lambda x: np.interp(x, grid, cdf)]
        else:
            h = 0.25
            axes = [c + h * np.arange(-24, 25) for c in theta_star]
            mass = pi_rho_cell_masses_2d(group, rho, axes, tilt)
            rng = np.random.default_rng(13 + centered)
            cell = np.unravel_index(rng.choice(mass.size, size=n, p=mass.ravel()), mass.shape)
            theta0 = np.column_stack([axes[c][cell[c]] for c in range(2)])
            theta0 += h * (rng.random((n, 2)) - 0.5)
            # The draws are uniform within a cell, so each marginal cdf is
            # linear between the cell edges.
            marginal_cdfs = [
                lambda x, edges=ax - h / 2, cdf=np.cumsum(mass.sum(axis=1 - c)):
                np.interp(x, np.append(edges, edges[-1] + h), np.append(0.0, cdf))
                for c, ax in enumerate(axes)]
        config = SamplerConfig(rho=rho, sweeps=1)
        cond = ThetaConditional(model, rho)
        out = np.empty_like(theta0)
        for k in range(n):
            state = initial_state(model, theta0[k], seed=seed + 100_000 * centered + k)
            state, _ = sgs_sweep(model, state, config, cond)
            out[k] = state.theta
        for c, marginal_cdf in enumerate(marginal_cdfs):
            assert kstest(out[:, c], marginal_cdf).pvalue > 0.01


class TestReproducibility:
    def test_bitwise_chain_reproducibility(self):
        for model in (build_model("logistic-split2", d=3, n=30, b=5, seed=1),
                      build_model("logistic-split1", d=3, n=30, seed=1)):
            config = SamplerConfig(rho=0.4, sweeps=25)
            a = run_chain(model, config, seed=5, theta0=np.zeros(3))
            b = run_chain(model, config, seed=5, theta0=np.zeros(3))
            assert np.array_equal(a.thetas, b.thetas)
            assert all(np.array_equal(za, zb) for za, zb in
                       zip(a.final_state.z_blocks, b.final_state.z_blocks))

    @pytest.mark.parametrize("name, kwargs, rho, gd_steps, proposals, pinned", [
        # Closed form.
        ("toy-gaussian-1", {}, 1.0, 0, 0,
         [["0x1.57dfb3f1e8727p-3"], ["-0x1.c824f1a24f48cp-1"],
          ["-0x1.2b948755183aap-1"], ["0x1.97dc78a6c333fp-3"]]),
        # Rejection with no descent step.
        ("logistic-split1", {"d": 3, "n": 30, "seed": 1}, 0.3, 0, 135,
         [["0x1.d6130ce7b79a2p-2", "0x1.7b7eaac893904p-1", "0x1.21b02d7366465p-1"],
          ["0x1.3f9d18ed7cd8cp-2", "0x1.8490bdd750db5p-1", "0x1.0fb6e39d4efd4p-1"],
          ["0x1.624e1bc462a9dp-2", "0x1.714928454692bp-1", "0x1.2f82dcc630964p-1"],
          ["0x1.0a20e3a497c9dp-1", "0x1.1fb3430b156a4p-1", "0x1.1f7c79aef26a3p-1"]]),
        # Rejection after descent steps.
        ("logistic-split2", {"d": 3, "n": 30, "b": 5, "seed": 1}, 0.4, 17, 22,
         [["0x1.e27dd55736510p-3", "0x1.8adcfad1b8830p-1", "0x1.5493edd619e17p-2"],
          ["-0x1.58f5cbbbd2a14p-2", "0x1.bbbccafdac671p-1", "0x1.77494cc37e524p-2"],
          ["-0x1.8d95d0b78fd7ep-3", "0x1.ee2977ac01288p-1", "0x1.f01dc34498f0ap-3"],
          ["0x1.a016b8c1470c0p-3", "0x1.9e226aa55836dp-1", "0x1.fdd054590f26ep-3"]]),
    ])
    def test_first_sweeps_are_pinned(self, name, kwargs, rho, gd_steps, proposals, pinned):
        # The first draws of uncentered chains, bit for bit. Rewrites of the
        # descent's bookkeeping, of how uniforms are drawn or of how the
        # streams are reset must leave them as they are; a change that moves
        # them changes the chains and is recorded in the README's RNG contract.
        model = build_model(name, **kwargs)
        config = SamplerConfig(rho=rho, sweeps=4)
        report = run_chain(model, config, seed=7, theta0=np.full(model.d, 0.5))
        assert [[x.hex() for x in row] for row in report.thetas.tolist()] == pinned
        assert report.gd_steps_total.sum() == gd_steps
        assert report.proposals_total.sum() == proposals

    @pytest.mark.parametrize("name, kwargs", [
        ("toy-gaussian-1", {}),
        ("logistic-split1", {"d": 3, "n": 30, "seed": 1}),
    ])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_is_invalid(self, name, kwargs, bad):
        # Refused up front, before the coupling product (which would warn)
        # or a draw (which would blame a block or the warm start).
        model = build_model(name, **kwargs)
        theta0 = np.zeros(model.d)
        theta0[-1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameter, match="theta0 must be finite"):
                initial_state(model, theta0, seed=0)
            with pytest.raises(InvalidParameter, match="theta0 must be finite"):
                run_chain(model, SamplerConfig(rho=0.4, sweeps=2), seed=0, theta0=theta0)

    def test_reports_of_a_mixed_model_follow_the_block_order(self):
        # A closed-form block reports zeros and is never a rejection draw;
        # the rejection group's reports sit at its blocks' places.
        quad = make_quadratic_group(np.eye(3)[None], precision=0.5, center=0.1)
        shards = build_model("logistic-split2", d=3, n=30, b=5, seed=1).groups[0]
        model = SplitModel(3, [quad, shards])
        report = run_chain(model, SamplerConfig(rho=0.4, sweeps=30), seed=3)
        assert report.rejection_draws.tolist() == [0.0] + [30.0] * 5
        assert report.proposals_total[0] == 0 and (report.proposals_total[1:] >= 30).all()
        _, reports = sgs_sweep(model, report.final_state, SamplerConfig(rho=0.4, sweeps=1))
        assert reports[0] is None and all(r.proposals_used >= 1 for r in reports[1:])

    def test_ledger_sums_the_certified_bounds(self):
        # expected_total sums every sweep's certified expected-proposal
        # bounds per block, as proposals_total sums the proposals; a
        # closed-form block adds nothing, and a closed-form model certifies
        # nothing (max_avg_certified is nan, as max_avg_proposals is).
        quad = make_quadratic_group(np.eye(3)[None], precision=0.5, center=0.1)
        shards = build_model("logistic-split2", d=3, n=30, b=5, seed=1).groups[0]
        model = SplitModel(3, [quad, shards])
        total = np.zeros(model.b)

        def add(t, state, reports):
            np.add(total, reports.expected, out=total)

        report = run_chain(model, SamplerConfig(rho=0.4, sweeps=30), seed=3, callback=add)
        assert report.expected_total.tobytes() == total.tobytes()
        assert report.expected_total[0] == 0.0 and (report.expected_total[1:] >= 30.0).all()
        assert report.max_avg_certified == (report.expected_total[1:] / 30.0).max()
        assert report.max_avg_certified >= 1.0
        toy = run_chain(build_model("toy-gaussian-1"), SamplerConfig(rho=1.0, sweeps=5), seed=0)
        assert (toy.expected_total == 0.0).all()
        assert math.isnan(toy.max_avg_certified) and math.isnan(toy.max_avg_proposals)

    def test_callback_can_stop(self):
        model = build_model("toy-gaussian-1")
        config = SamplerConfig(rho=1.0, sweeps=100)
        seen = []

        def cb(t, state, reports):
            seen.append(t)
            return t < 7

        report = run_chain(model, config, seed=0, callback=cb)
        assert report.sweeps_run == 7
        assert seen == list(range(1, 8))

    def test_trace_roundtrip(self, tmp_path):
        model = build_model("toy-gaussian-2")
        config = SamplerConfig(rho=1.0, sweeps=40, burn_in=10, record_every=3)
        path = tmp_path / "chain.sgs1"
        report = run_chain(model, config, seed=21, trace_path=path)
        loaded = read_trace(path)
        assert np.array_equal(loaded, report.thetas)

    def test_trace_readable_without_close(self, tmp_path):
        # A killed run never patches T into the header; the rows on disk
        # still load, up to the last complete one.
        path = tmp_path / "killed.sgs1"
        rows = np.random.default_rng(4).standard_normal((1000, 3))
        writer = TraceWriter(path, 3)
        for row in rows:
            writer.append(row)
        partial = read_trace(path)
        assert 0 < len(partial) < len(rows)
        assert np.array_equal(partial, rows[:len(partial)])
        writer.close()
        assert np.array_equal(read_trace(path), rows)
        # A header count that disagrees with the file: the length decides.
        data = path.read_bytes()
        path.write_bytes(data[:20 + 24 * 7 + 10])
        assert np.array_equal(read_trace(path), rows[:7])

    @pytest.mark.parametrize("data, message", [
        (b"SGS1" + bytes(8), "header is truncated"),
        (b"SGS0" + bytes(16), "magic b'SGS0'"),
        (b"SGS1" + (0).to_bytes(8, "little") + bytes(8), "dimension 0"),
    ], ids=["truncated", "magic", "dimension"])
    def test_bad_trace_header_is_invalid(self, tmp_path, data, message):
        path = tmp_path / "bad.sgs1"
        path.write_bytes(data)
        with pytest.raises(InvalidParameter, match=message):
            read_trace(path)

    def test_non_finite_draw_names_sweep_and_block(self):
        # The sweep checks theta alone; A^T z carries the block's NaN or
        # infinity into it, through a zero coupling row too (0 * inf and
        # 0 * NaN are NaN), and the error names the block. That master draw
        # may flag invalid arithmetic first, which the error supersedes.
        for bad in (math.nan, math.inf, -math.inf):
            def sampler(a_theta, rho, rng, bad=bad):
                z = a_theta + rng.standard_normal(a_theta.shape)
                z[2] = bad
                return z

            for coupling in (1.0, 0.0):
                a = np.ones((4, 1, 1))
                a[2] = coupling
                quad = make_quadratic_group(a, precision=1.0, center=0.0)
                broken = FactorGroup(quad.a, quad.value, quad.gradient, quad.m, quad.M,
                                     sampler=sampler)
                model = SplitModel(1, [make_quadratic_group(np.eye(1)[None], precision=1.0,
                                                            center=0.0), broken])
                state = initial_state(model, np.zeros(1), seed=0)
                with np.errstate(invalid="ignore"), pytest.raises(
                        NonFiniteDraw, match=r"^sweep 1: auxiliary block 3 is not finite$"):
                    sgs_sweep(model, state, SamplerConfig(rho=1.0, sweeps=1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_master_draw_with_finite_blocks(self, bad):
        class BadNormals:
            def standard_normal(self, size=None):
                return np.full(size, bad)

        model = build_model("toy-gaussian-1", sigma=3.0, b=10)
        state = initial_state(model, np.zeros(1), seed=0)
        streams = SweepStreams(0)

        def factory(sweep, phase):
            return streams(sweep, phase) if phase == PHASE_BLOCKS else BadNormals()

        with pytest.raises(NonFiniteDraw, match=r"^sweep 1: the master draw is not finite$"):
            sgs_sweep(model, state, SamplerConfig(rho=1.0, sweeps=1), rng_factory=factory)

    @staticmethod
    def _master_normals(normals):
        """A stream factory whose master draw takes the given normals."""
        class FixedNormals:
            def standard_normal(self, size=None):
                return np.array(normals, dtype=float)

        streams = SweepStreams(0)
        return lambda sweep, phase: (streams(sweep, phase) if phase == PHASE_BLOCKS
                                     else FixedNormals())

    def test_huge_finite_master_draw_passes_without_warnings(self):
        # aniso-gaussian couples through the identity, so G = L = I and theta
        # is mu + rho xi: normals near the largest double give a finite theta
        # whose entries are near +-1e308, and whose sum overflows in any
        # order. No product or sum in the check may overflow or warn on it.
        model = build_model("aniso-gaussian", d=3)
        state = initial_state(model, np.zeros(3), seed=0)
        normals = [1.7e308, 1.7e308, -1e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            new, _ = sgs_sweep(model, state, SamplerConfig(rho=1.0, sweeps=1),
                               rng_factory=self._master_normals(normals))
        assert np.isfinite(new.theta).all() and np.abs(new.theta).min() > 9e307

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("coordinate", [0, 1, 2])
    def test_non_finite_master_draw_in_each_coordinate(self, bad, coordinate):
        model = build_model("aniso-gaussian", d=3)
        state = initial_state(model, np.zeros(3), seed=0)
        normals = [0.5, -0.5, 1e308]
        normals[coordinate] = bad
        with np.errstate(invalid="ignore"), pytest.raises(
                NonFiniteDraw, match=r"^sweep 1: the master draw is not finite$"):
            sgs_sweep(model, state, SamplerConfig(rho=1.0, sweeps=1),
                      rng_factory=self._master_normals(normals))


class TestStreamContract:
    def test_key_is_the_root_seed_sequence_state(self):
        key = np.random.SeedSequence(31).generate_state(2, np.uint64)
        assert np.array_equal(SweepStreams(31).key, key)

    def test_persistent_streams_match_fresh_philox(self):
        # Stream (t, p) is Philox at counter (0, p, t, 0), whatever the
        # previous sweep, or phase 0 of the same sweep, left behind in the
        # one generator.
        streams = SweepStreams(31)
        partial_buffers = []

        def half_word(g):
            g.integers(0, 2**32, dtype=np.uint32)
            assert g.bit_generator.state["has_uint32"] == 1

        def odd_normals(g):
            # A normal takes one 64-bit word or, rarely, more: the Philox
            # block of four words is usually left part used.
            g.standard_normal(3)
            partial_buffers.append(g.bit_generator.state["buffer_pos"] < 4)

        def phase_zero_first(g):
            # A sweep draws on phase 0 just before it asks for phase 1.
            streams(t, PHASE_BLOCKS).standard_normal(3)

        def draws(g):
            return (g.integers(0, 2**32, size=3, dtype=np.uint32),
                    g.standard_normal(5), g.uniform(size=4))

        for t in (1, 2, 7, 2**40):
            for phase in (PHASE_BLOCKS, PHASE_MASTER):
                fresh = np.random.Generator(np.random.Philox(key=streams.key,
                                                             counter=(0, phase, t, 0)))
                expected = draws(fresh)
                for leave in (half_word, odd_normals, phase_zero_first, lambda g: None):
                    leave(streams(t - 1, phase))
                    got = draws(streams(t, phase))
                    assert all(np.array_equal(x, y) for x, y in zip(got, expected))
        assert any(partial_buffers)

    @pytest.mark.parametrize("name, kwargs, rho", [
        ("toy-gaussian-1", {}, 1.0),
        ("logistic-split1", {"d": 3, "n": 30, "seed": 1}, 0.4),
        ("logistic-split2", {"d": 3, "n": 30, "b": 5, "seed": 1}, 0.4),
    ])
    def test_sgs_sweep_replays_the_next_run_chain_sweep(self, name, kwargs, rho):
        model = build_model(name, **kwargs)
        theta0 = np.zeros(model.d)
        t = 12
        state = run_chain(model, SamplerConfig(rho=rho, sweeps=t), seed=9,
                          theta0=theta0).final_state
        replayed, _ = sgs_sweep(model, state, SamplerConfig(rho=rho, sweeps=1))
        ref = run_chain(model, SamplerConfig(rho=rho, sweeps=t + 1), seed=9,
                        theta0=theta0).final_state
        assert replayed.sweep == ref.sweep == t + 1
        assert np.array_equal(replayed.theta, ref.theta)
        assert all(np.array_equal(a, b) for a, b in zip(replayed.z_groups, ref.z_groups))

    def test_chains_on_threads_match_serial(self):
        # Each chain owns its generators; only the read-only key is shared,
        # here also between two chains of the same seed.
        toy = build_model("toy-gaussian-1")
        rows = build_model("logistic-split1", d=3, n=30, seed=1)
        jobs = [(toy, SamplerConfig(rho=1.0, sweeps=3000), 5),
                (rows, SamplerConfig(rho=0.4, sweeps=300), 6),
                (toy, SamplerConfig(rho=1.0, sweeps=3000), 6),
                (rows, SamplerConfig(rho=0.4, sweeps=300), 6)]

        def run(job):
            model, config, seed = job
            return run_chain(model, config, seed=seed, theta0=np.zeros(model.d))

        serial = [run(job) for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
                futures = [pool.submit(run, job) for job in jobs]
                threaded = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(serial, threaded):
            assert np.array_equal(a.thetas, b.thetas)
            assert np.array_equal(a.proposals_total, b.proposals_total)

    def test_run_chain_builds_its_streams_once(self, monkeypatch):
        # The streams are keyed once per chain, not built per sweep: at most
        # one SeedSequence and one Philox generator per phase.
        built = {"SeedSequence": 0, "Philox": 0}

        def counting(cls):
            class Counting(cls):
                def __init__(self, *args, **kwargs):
                    built[cls.__name__] += 1
                    super().__init__(*args, **kwargs)
            Counting.__name__ = cls.__name__  # Philox checks it on a state reset
            return Counting

        for name in built:
            monkeypatch.setattr(np.random, name, counting(getattr(np.random, name)))
        report = run_chain(build_model("toy-gaussian-1"), SamplerConfig(rho=1.0, sweeps=50),
                           seed=918_273)
        assert report.sweeps_run == 50
        assert built["SeedSequence"] <= 1
        assert built["Philox"] <= 2

    def test_invalid_sweep_and_width_are_typed(self):
        with pytest.raises(InvalidParameter):
            ChainState(theta=np.zeros(1), z_groups=(), sweep=-1, rng_seed_root=0)
        with pytest.raises(InvalidParameter):
            ThetaConditional(build_model("toy-gaussian-1"), 0.0)


class TestOptimizerTwins:
    def test_toy_am_admm_converge(self):
        for name in ("toy-gaussian-1", "toy-gaussian-2"):
            model = build_model(name, sigma=3.0, b=10, mu=0.0)
            theta_am, _ = am_solve(model, rho=3.0, iters=100,
                                   theta0=np.array([5.0]))
            assert abs(theta_am[0]) <= 1e-8
            theta_admm, _, _ = admm_solve(model, rho=3.0, iters=100,
                                          theta0=np.array([5.0]))
            assert abs(theta_admm[0]) <= 1e-8

    def test_mixture_am_admm_reach_minimizer(self):
        model = build_model("gaussian-mixture", d=8)
        theta_am, _ = am_solve(model, rho=2.0, iters=120, theta0=np.full(8, 1.0))
        assert np.linalg.norm(theta_am) <= 1e-8
        theta_admm, _, _ = admm_solve(model, rho=2.0, iters=120,
                                      theta0=np.full(8, 1.0))
        assert np.linalg.norm(theta_admm) <= 1e-8

    def test_am_fixed_point_first_order_conditions(self):
        model = build_model("logistic-split2", d=3, n=30, b=5, seed=4)
        rho = 1.0
        theta, z_groups = am_solve(model, rho=rho, iters=400, inner_tol=1e-12)
        # Modes: grad V_i(z_i) = 0; master step: G theta = sum A_i^T z_i.
        (g,) = model.groups
        (z,) = z_groups
        grad_u = g.gradient(z, ALL_BLOCKS)
        for j in range(g.b):
            grad_v = grad_u[j] + (z[j] - g.a[j] @ theta) / rho**2
            assert np.linalg.norm(grad_v) <= 1e-6
        s = model.assemble([z])
        assert np.linalg.norm(np.asarray(model.gram) @ theta - s) <= 1e-10

    def test_noise_free_sweeps_reproduce_alternating_minimization(self):
        # Zeroing every injection turns the sweep into conditional modes: on
        # Gaussian models the trajectories agree bit for bit.
        model = build_model("toy-gaussian-1", sigma=3.0, b=10, mu=0.0)
        config = SamplerConfig(rho=2.0, sweeps=1)
        zero = _ZeroRng()
        state = initial_state(model, np.array([4.0]), seed=0)
        for _ in range(50):
            state, _ = sgs_sweep(model, state, config,
                                 rng_factory=lambda s, i: zero)
        theta_am, z_am = am_solve(model, rho=2.0, iters=50, theta0=np.array([4.0]))
        assert np.array_equal(state.theta, theta_am)
        assert len(z_am) == len(state.z_groups)
        assert all(np.array_equal(a, b) for a, b in zip(state.z_groups, z_am))
