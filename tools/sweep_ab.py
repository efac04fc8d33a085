"""Paired in-process A/B of one sweep: a parent checkout's splitmc against this tree's.

    python tools/sweep_ab.py --parent DIR                      # 400 states, 3 passes
    python tools/sweep_ab.py --parent DIR --states 100 --passes 1

Both trees' splitmc packages, and each tree's own benchmarks/workloads.py
(read, not changed), are loaded into one process under names of their own,
so the two sides run on the same host state. For each set-up, each tree
builds its own model; a chain of STATES sweeps on this tree's model gives
the chain states, and every pass replays each state through each tree's
sgs_sweep with the same Philox streams, in alternating order: the parent
goes first in even pairs and second in odd ones. Each side replays through
one kernel (ThetaConditional) of its own, and one untimed sweep from the
chain's start runs that kernel's checking draw (see
conditionals.sample_z_group), so no timed sweep is a checking one. The
set-ups:

- logistic-rows and logistic-shards: each tree's benchmark workload at
  full size, set up by workloads.make_workload(name, "full", ...).setup(SEED),
  its chain from theta* with the stream of the workload's first operation;
- logistic-split1 and logistic-split2 at the n = 200 defaults of
  `splitmc sample` (d = 10, b = 10, data seed 0), uncentered, at rho 3 and
  0.5, each chain from theta = 0 with seed 0, as `sample` runs it.

Prints, per set-up, the number of pairs, each side's p50 and p90 sweep time
in ms, the tree's p50 change and the share of pairs the tree won.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

REPO = Path(__file__).resolve().parents[1]
SEED = 1
WORKLOADS = ("logistic-rows", "logistic-shards")
CLI_SETUPS = {"logistic-split1": 3.0, "logistic-split2": 0.5}


def load_tree(root: Path, name: str):
    """root's splitmc as the package `name`, and root's benchmarks/workloads.py bound to it."""
    package_dir = root / "src" / "splitmc"
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    # workloads.py imports `splitmc`; it gets this tree's package while it loads.
    saved = sys.modules.get("splitmc")
    sys.modules["splitmc"] = package
    try:
        spec = importlib.util.spec_from_file_location(f"{name}_workloads",
                                                      root / "benchmarks" / "workloads.py")
        workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        if saved is None:
            del sys.modules["splitmc"]
        else:
            sys.modules["splitmc"] = saved
    return package, workloads


class Side:
    """One tree's model of a set-up, ready to replay chain states through its sgs_sweep."""

    def __init__(self, package, model, rho: float, theta0, seed: int):
        engine = package.engine
        self.engine = engine
        self.model = model
        self.config = engine.SamplerConfig(rho=rho, sweeps=1)
        self.cond = package.ThetaConditional(model, rho)
        self.start = engine.initial_state(model, theta0, seed)
        self.streams = engine.SweepStreams(seed)
        self.sweep(self.start)

    def state(self, theta, sweep: int):
        return self.engine.ChainState(theta=theta, z_groups=self.start.z_groups, sweep=sweep,
                                      rng_seed_root=self.start.rng_seed_root)

    def sweep(self, state):
        return self.engine.sgs_sweep(self.model, state, self.config, self.cond, self.streams)


def setups(package, workloads, out: Path):
    """(name, model, rho, theta0, seed) of every set-up, built by one tree."""
    for name in WORKLOADS:
        workload = workloads.make_workload(name, "full", out)
        setup = workload.setup(SEED)
        yield (name, setup.model, setup.rho, setup.theta_star,
               workloads.derive_seed(SEED, 1, 0))
    for name, rho in CLI_SETUPS.items():
        params = {"b": 10} if name == "logistic-split2" else {}
        model = package.build_model(name, d=10, n=200, seed=0, **params)
        yield f"{name} rho={rho:g}", model, rho, np.zeros(model.d), 0


def replay(parent: Side, tree: Side, states: int, passes: int):
    """Per-pair sweep times in s, parent and tree, over passes of the tree's chain states."""
    chain, state = [], tree.start
    for _ in range(states):
        chain.append((state.theta, state.sweep))
        state, _ = tree.sweep(state)
    times = ([], [])
    pair = 0
    for _ in range(passes):
        for theta, sweep in chain:
            order = (0, 1) if pair % 2 == 0 else (1, 0)
            for i in order:
                side = (parent, tree)[i]
                state = side.state(theta, sweep)
                t0 = perf_counter()
                side.sweep(state)
                times[i].append(perf_counter() - t0)
            pair += 1
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent checkout")
    parser.add_argument("--states", type=int, default=400, help="chain states per set-up")
    parser.add_argument("--passes", type=int, default=3, help="replays of every state")
    args = parser.parse_args(argv)
    if args.states < 1 or args.passes < 1:
        parser.error("--states and --passes must be at least 1")
    sides = [load_tree(root.resolve(), name)
             for root, name in ((args.parent, "splitmc_parent"), (REPO, "splitmc_tree"))]
    print(f"{'set-up':<24} {'pairs':>6} {'parent p50':>11} {'tree p50':>9} {'change':>7} "
          f"{'parent p90':>11} {'tree p90':>9} {'tree won':>9}")
    with tempfile.TemporaryDirectory() as tmp:
        built = [list(setups(package, workloads, Path(tmp) / str(i)))
                 for i, (package, workloads) in enumerate(sides)]
    for (name, *parent_args), (_, *tree_args) in zip(*built):
        parent = Side(sides[0][0], *parent_args)
        tree = Side(sides[1][0], *tree_args)
        old, new = replay(parent, tree, args.states, args.passes)
        won = sum(n < o for o, n in zip(old, new)) / len(old)
        p50, p90 = (np.percentile([old, new], q, axis=1) * 1e3 for q in (50, 90))
        print(f"{name:<24} {len(old):>6} {p50[0]:>8.4f} ms {p50[1]:>6.4f} ms "
              f"{p50[1] / p50[0] - 1:>+7.1%} {p90[0]:>8.4f} ms {p90[1]:>6.4f} ms {won:>9.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
