"""splitmc benchmark: one workload per process, closed loop, plain or traced.

    python3 benchmarks/run.py --workload logistic-rows --seed 1 --seconds 30 --trace 0

--trace 0 times the workload untraced and reports the end-to-end metrics.
--trace 1 runs it with spans recorded at every splitmc layer boundary,
replays the same operations untraced to measure the tracing overhead and
to check that the draws are bit-identical, and reports the per-layer
metrics. Times are at reference speed (see speed.py). The last line of
standard output is one JSON object; the lines before it repeat every
metric with its unit and its wall-clock twin, plus failed_frac and the
environment. The full record (environment, per-operation figures,
failures) is written to .bench_out/ at the root of the checkout, and the
traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
BLAS_THREADS = 1  # at most nproc on any machine


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy runs each workload at a tiny size (self-test only)")
    return parser.parse_args(argv)


def import_library():
    """Import splitmc from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "splitmc" / "__init__.py").is_file():
        raise SystemExit(f"error: no splitmc sources under {src}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import splitmc

    if Path(splitmc.__file__).resolve().parent != (src / "splitmc").resolve():
        raise SystemExit(f"error: imported splitmc from {splitmc.__file__}, not {src}")


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    sha, dirty = None, None
    if (ROOT / ".git").exists() and shutil.which("git"):
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30).stdout.strip() or None
            status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                     "--untracked-files=no"],
                                    capture_output=True, text=True, timeout=30).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "git_sha": sha,
        "git_dirty": dirty,
        "seed": seed,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import harness
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    workload = workloads.make_workload(args.workload, args.scale, work_dir)
    env = environment(args.seed)
    ledger = harness.Ledger()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale, "environment": env}
    try:
        if args.trace:
            metrics, extra = harness.traced_run(workload, args.seed, args.seconds, ledger,
                                                OUT_DIR)
            units = layers.PER_LAYER
            record.update(extra)
        else:
            loop = harness.run_loop(workload, args.seed, args.seconds, ledger, workloads.no_span)
            metrics, wall, samples = harness.end_to_end_metrics(loop)
            units = harness.END_TO_END
            record.update(samples=samples, wall_clock=wall, operations=[
                {"wall_s": r.wall_s, "counts": r.counts,
                 "phases_s": {k: e - b for k, (b, e) in r.phases.items()}}
                for r in loop.done()])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed_frac = ledger.failed / ledger.attempted
    correct = ledger.failed == 0 and record.get("bit_identical", True)
    record.update(metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
                  attempted=ledger.attempted, failed=ledger.failed, failed_frac=failed_frac,
                  failures=ledger.messages, correct=correct)
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"# environment: {json.dumps(env)}")
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{json.dumps(record.get('samples', {}))}")
    wall = record.get("wall_clock", {})
    for name, value in metrics.items():
        twin = f"  (wall clock {wall[name]:.6g})" if name in wall else ""
        print(f"{name:<40} {value:.6g} {units[name]}{twin}")
    print(f"{'failed_frac':<40} {failed_frac:.6g} ({ledger.failed}/{ledger.attempted})")
    for message in ledger.messages:
        print(f"# failure: {message}")
    for name in record.get("layers_not_observed", []) + record.get("not_observed", []):
        print(f"# not observed: {name}")
    print(f"# record: {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
