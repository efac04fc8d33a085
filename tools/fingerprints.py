"""Fingerprint the seed-determined outputs of splitmc: a JSON manifest of sha256 by name.

    python tools/fingerprints.py --out FILE                  # write the manifest
    python tools/fingerprints.py --out FILE --against OLD    # and diff it against OLD

The manifest covers:
- 150-sweep chains of the six zoo models, at their default parameters, at
  rho = 6.66e-11 (the narrowest width criterion 5's logistic grid plans,
  where rounding moves V(Z) - V(z~) most against the squeeze's margin),
  0.05, 0.3 and 1 (draws, proposal and descent totals, final blocks); a
  chain that raises is recorded by its error type;
- am_solve and admm_solve on the same models at rho = 0.3;
- ThetaConditional.sample(..., size=SIZE) on the same models at rho = 0.3,
  given the blocks A_i theta at theta = 0.3 everywhere;
- the second sample_z_group draw of a group (z, proposals, descent steps and
  bounds), made after its checking draw through the same constants: COPIES
  copies of a logistic-split2 shard at its two-proposal edge, squeezed over
  several rounds, and the logistic-split2 of `splitmc sample` (b = 10) at
  rho = 0.5, whose squeeze is off;
- the gradient and value of the logistic-split1 and logistic-split2 groups
  at fixed points, raw and centered at theta = 0.3 everywhere, over every
  block and over an index array that repeats blocks, as the rejection
  draw's first round reads them: a kernel change shows here even where
  the chains it moves do not;
- the CSV of `splitmc plan --eps 0.1` for each theorem, the default
  CSVs of `splitmc bias`, `experiment bias-toy` and `experiment rate-toy`,
  and the CSV of `experiment mixture` at the gaussian-batch workload's
  parameters (d_grid = (4,), n_samples = 2500, n_bins = 40);
- run_op(setup(1), 1, 0) of the three benchmark workloads: the sha256 of
  the fingerprint bytes the workload itself builds.

Timing columns (TIMING_COLUMNS) are dropped by name before hashing. Bit
identity holds on one host and one numpy/BLAS build, so the manifest
records the numpy, scipy and BLAS versions. --against lists every name
whose hash differs or that only one manifest has, and exits 1 if it
listed any.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

MODELS = ("toy-gaussian-1", "toy-gaussian-2", "aniso-gaussian", "gaussian-mixture",
          "logistic-split1", "logistic-split2")
TIMING_COLUMNS = frozenset({"wall_time_s", "sgs_seconds_per_sweep", "sgs_wall_seconds",
                            "ula_seconds_per_sweep"})
SWEEPS = 150
RHOS = (6.66e-11, 0.05, 0.3, 1.0)
SOLVE_RHO, SOLVE_ITERS = 0.3, 20
SIZE = 64
COPIES = 2000
THEOREMS = ("w1", "tv-single", "tv-multi", "tv-ns")


def _sha256(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
        digest.update(b"\0")
    return digest.hexdigest()


def _arrays(*arrays) -> list[bytes]:
    import numpy as np

    return [np.ascontiguousarray(a).tobytes() for a in arrays]


def _chain(model, rho: float, sweeps: int) -> str:
    from splitmc import SamplerConfig, run_chain

    report = run_chain(model, SamplerConfig(rho=rho, sweeps=sweeps), seed=0)
    return _sha256(*_arrays(report.thetas, report.proposals_total, report.gd_steps_total,
                            *report.final_state.z_groups))


def _solves(model, rho: float, iters: int) -> str:
    from splitmc import admm_solve, am_solve

    theta, z = am_solve(model, rho, iters)
    theta2, z2, duals = admm_solve(model, rho, iters)
    return _sha256(*_arrays(theta, *z, theta2, *z2, *duals))


def _theta_draws(model, rho: float, size: int) -> str:
    import numpy as np

    from splitmc import ThetaConditional

    z_groups = [g.couple(np.full(model.d, 0.3)) for g in model.groups]
    return _sha256(*_arrays(ThetaConditional(model, rho).sample(z_groups, np.random.default_rng(0),
                                                                size=size)))


def _second_draw(group, theta, rho: float) -> str:
    """sample_z_group's second draw of group at rho through one RhoConstants."""
    import numpy as np

    from splitmc import RhoConstants, sample_z_group

    c = RhoConstants(group, rho)
    a_theta = group.couple(theta)
    sample_z_group(c, a_theta, np.random.default_rng(0))
    return _sha256(*_arrays(*sample_z_group(c, a_theta, np.random.default_rng(1))))


def _shard_copies() -> str:
    """The second draw of COPIES copies of logistic-split2's shard 0 at its two-proposal edge."""
    import numpy as np

    from splitmc import FactorGroup, build_model

    (source,) = build_model("logistic-split2", d=10, n=200, b=5, seed=0).groups

    def shard_0(kernel):
        return lambda z, rows: kernel(z, np.zeros(len(z), dtype=np.int64))

    copies = FactorGroup(np.repeat(source.a[:1], COPIES, axis=0), shard_0(source.value),
                         shard_0(source.gradient), source.m[0], source.M[0])
    m, big_m = float(source.m[0]), float(source.M[0])
    rho = 1.0 / math.sqrt(2.0 * source.k * (big_m - m) - m)
    return _second_draw(copies, np.full(10, 0.5), rho)


def _kernels(model) -> str:
    """The gradient and value of model's one group at fixed points, over two row selections."""
    import numpy as np

    from splitmc.model import ALL_BLOCKS

    (group,) = model.groups
    z = group.couple(np.full(model.d, 0.3))
    z += 3.0 * np.random.default_rng(0).standard_normal(z.shape)
    twice = np.concatenate((np.arange(group.b)[::-1], np.arange(group.b)))
    return _sha256(*_arrays(*(kernel(z, ALL_BLOCKS) for kernel in (group.gradient, group.value)),
                            *(kernel(z[twice], twice) for kernel in (group.gradient, group.value))))


def _csv(argv: list[str], out: Path) -> str:
    """Run one CLI command into out and hash the CSV it wrote, timing columns dropped."""
    from splitmc.cli import main
    from splitmc.experiments import read_csv

    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv + ["--out", str(out)])
    path = out if out.suffix == ".csv" else next(out.glob("*.csv"))
    config, rows = read_csv(path)

    def kept(row):
        return sorted((k, v) for k, v in row.items() if k not in TIMING_COLUMNS)

    return _sha256(code, kept(config), [kept(r) for r in rows])


def _workload(name: str, out: Path) -> str:
    import workloads
    from speed import SpeedProbe

    workload = workloads.make_workload(name, "full", out)
    result = workload.run_op(workload.setup(1), 1, 0, SpeedProbe())
    return hashlib.sha256(result.fingerprint).hexdigest()


def _guarded(compute) -> str:
    """compute(), or the error type when it raises a library error."""
    from splitmc import SplitMCError

    try:
        return compute()
    except SplitMCError as exc:
        return f"error: {type(exc).__name__}"


def entries(out: Path) -> dict[str, str]:
    """Every fingerprint of the manifest, by name; out holds the CSVs written."""
    import numpy as np

    from splitmc import build_model, center_model

    import workloads

    found = {}
    for name in MODELS:
        for rho in RHOS:
            found[f"chain/{name}/rho={rho}"] = _guarded(
                lambda: _chain(build_model(name), rho, SWEEPS))
        found[f"solves/{name}/rho={SOLVE_RHO}"] = _guarded(
            lambda: _solves(build_model(name), SOLVE_RHO, SOLVE_ITERS))
        found[f"theta-draws/{name}/rho={SOLVE_RHO}"] = _theta_draws(build_model(name),
                                                                    SOLVE_RHO, SIZE)
    found["z-draw/logistic-split2-shard-copies/edge"] = _shard_copies()
    found["z-draw/logistic-split2-b10/rho=0.5"] = _second_draw(
        build_model("logistic-split2", b=10).groups[0], np.full(10, 0.3), 0.5)
    for name in ("logistic-split1", "logistic-split2"):
        model = build_model(name)
        found[f"kernels/{name}/raw"] = _kernels(model)
        found[f"kernels/{name}/centered"] = _kernels(center_model(model, np.full(model.d, 0.3)))
    commands = {f"plan/{theorem}": ["plan", "--theorem", theorem, "--eps", "0.1"]
                for theorem in THEOREMS}
    commands.update({"bias": ["bias"], "bias-toy": ["experiment", "bias-toy"],
                     "rate-toy": ["experiment", "rate-toy"],
                     "mixture": ["experiment", "mixture", "--set", "d_grid=(4,)",
                                 "--set", "n_samples=2500", "--set", "n_bins=40"]})
    for name, argv in commands.items():
        # plan and bias write one CSV file; the experiments write a directory.
        one_file = argv[0] in ("plan", "bias")
        target = out / (f"{name.replace('/', '-')}.csv" if one_file else name)
        found[f"csv/{name}"] = _csv(argv, target)
    for name in workloads.WORKLOADS:
        found[f"workload/{name}"] = _workload(name, out / name)
    return found


def versions() -> dict[str, str]:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_name}


def manifest() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        found = entries(Path(tmp))
    return {"versions": versions(), "fingerprints": found}


def changed(old: dict, new: dict) -> list[str]:
    """Names whose fingerprint differs between two manifests, or that only one has."""
    a, b = old["fingerprints"], new["fingerprints"]
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True, help="the manifest to write")
    parser.add_argument("--against", type=Path, help="a manifest to diff the new one against")
    args = parser.parse_args(argv)
    for path in (REPO / "src", REPO / "benchmarks"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    result = manifest()
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"{len(result['fingerprints'])} fingerprints written to {args.out}")
    if args.against is None:
        return 0
    old = json.loads(args.against.read_text())
    if old.get("versions") != result["versions"]:
        print(f"note: versions differ: {old.get('versions')} against {result['versions']}")
    names = changed(old, result)
    for name in names:
        print(f"changed: {name}")
    if not names:
        print(f"identical to {args.against}")
    return 1 if names else 0


if __name__ == "__main__":
    sys.exit(main())
