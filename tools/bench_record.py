"""Record one point of the benchmark trajectory as BENCH_<n>.json.

Runs benchmarks/run.py of a checkout on every workload, plain (--trace 0)
and then traced (--trace 1), one process at a time, and writes
BENCH_<n>.json at the root of this repository, n one more than the highest
already there. Every point uses seed SEED and runs of SECONDS seconds, so
the points can be compared with one another. Per workload the file holds
the end-to-end metrics of the plain run and the per-layer metrics of the
traced run (values at reference speed, units, wall-clock twins where the
run prints them), failed_frac and correctness of both runs, and the names
the traced run prints as "not observed". It also holds each run's
environment (git sha and dirty flag included) and a sha256 of the
checkout's src/ and benchmarks/ sources, which names the measured code when
the tree has uncommitted changes.

    python tools/bench_record.py                    # this checkout
    python tools/bench_record.py --checkout DIR     # another checkout
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
WORKLOADS = ("logistic-rows", "logistic-shards", "gaussian-batch")
SEED = 1
SECONDS = 30.0
_NOT_OBSERVED = "# not observed: "
_ENVIRONMENT = "# environment: "
_RECORD = "# record: "


def source_sha256(checkout: Path) -> str:
    """sha256 over the paths and bytes of every .py file under src/ and benchmarks/."""
    digest = hashlib.sha256()
    for path in sorted(p for d in ("src", "benchmarks") for p in (checkout / d).rglob("*.py")):
        digest.update(str(path.relative_to(checkout)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def run_one(checkout: Path, workload: str, trace: int) -> dict:
    """One benchmarks/run.py process; its printed result as a dict."""
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv[1:])} exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    env = next(json.loads(l[len(_ENVIRONMENT):]) for l in lines if l.startswith(_ENVIRONMENT))
    record = next(l[len(_RECORD):] for l in lines if l.startswith(_RECORD))
    wall = json.loads((checkout / record).read_text()).get("wall_clock", {})
    metrics = {name: dict(m, wall_clock=wall[name]) if name in wall else m
               for name, m in result["metrics"].items()}
    return {
        "argv": argv[1:],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failed_frac": result["failed"] / result["attempted"],
        "metrics": metrics,
        "not_observed": [l[len(_NOT_OBSERVED):] for l in lines if l.startswith(_NOT_OBSERVED)],
        "environment": env,
    }


def next_path() -> Path:
    taken = [int(m.group(1)) for p in REPO.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return REPO / f"BENCH_{max(taken, default=0) + 1}.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=REPO,
                        help="the checkout whose benchmarks/run.py and src/ are measured")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    workloads = {}
    for name in WORKLOADS:
        plain = run_one(checkout, name, trace=0)
        traced = run_one(checkout, name, trace=1)
        workloads[name] = {"end_to_end": plain, "per_layer": traced}
        print(f"{name}: plain failed_frac {plain['failed_frac']:.3g}, "
              f"traced not observed {len(traced['not_observed'])}", file=sys.stderr)
    env = workloads[WORKLOADS[0]]["end_to_end"]["environment"]
    out = {
        "git_sha": env["git_sha"],
        "git_dirty": env["git_dirty"],
        "source_sha256": source_sha256(checkout),
        "seed": SEED,
        "seconds": SECONDS,
        "workloads": workloads,
    }
    path = next_path()
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(path.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
