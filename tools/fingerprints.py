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
- the default CSVs of `splitmc bias`, `experiment bias-toy` and
  `experiment rate-toy`;
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
    from splitmc import build_model

    import workloads

    found = {}
    for name in MODELS:
        for rho in RHOS:
            found[f"chain/{name}/rho={rho}"] = _guarded(
                lambda: _chain(build_model(name), rho, SWEEPS))
        found[f"solves/{name}/rho={SOLVE_RHO}"] = _guarded(
            lambda: _solves(build_model(name), SOLVE_RHO, SOLVE_ITERS))
    commands = {"bias": ["bias"], "bias-toy": ["experiment", "bias-toy"],
                "rate-toy": ["experiment", "rate-toy"]}
    for name, argv in commands.items():
        target = out / (f"{name}.csv" if name == "bias" else name)
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
