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

With --parent DIR, the plain runs come in alternating pairs: per
workload, PAIRS pairs of one run of DIR (the parent checkout) and one of
the measured checkout, the parent first in even
pairs and second in odd ones. The file then also holds, per workload and
end-to-end metric, each side's median, quartiles and values and the
number of pairs the measured checkout won (ties count for neither side;
"better" is read from BENCHMARK.json), and the parent's git sha and
source sha256. The end_to_end field is the measured checkout's first run.

    python tools/bench_record.py                    # this checkout
    python tools/bench_record.py --checkout DIR     # another checkout
    python tools/bench_record.py --parent DIR       # alternating pairs with DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
WORKLOADS = ("logistic-rows", "logistic-shards", "gaussian-batch")
SEED = 1
SECONDS = 30.0
PAIRS = 10
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


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def paired(checkout: Path, parent: Path, workload: str, better: dict) -> dict:
    """PAIRS alternating plain runs of parent and checkout: each side's runs and who won."""
    runs = {"parent": [], "tree": []}
    for i in range(PAIRS):
        order = ("parent", "tree") if i % 2 == 0 else ("tree", "parent")
        for side in order:
            runs[side].append(run_one(parent if side == "parent" else checkout, workload, 0))
        print(f"{workload}: pair {i + 1}/{PAIRS} done", file=sys.stderr)
    metrics = {}
    for name, rule in better.items():
        values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
        sign = 1.0 if rule == "lower" else -1.0
        metrics[name] = {
            "parent": _summary(values["parent"]),
            "tree": _summary(values["tree"]),
            "tree_won": sum(sign * (t - p) < 0 for p, t in zip(values["parent"], values["tree"])),
        }
    return {"pairs": PAIRS,
            "failed_frac": {side: [r["failed_frac"] for r in rs] for side, rs in runs.items()},
            "metrics": metrics, "tree_runs": runs["tree"],
            "parent_environment": runs["parent"][0]["environment"]}


def next_path() -> Path:
    taken = [int(m.group(1)) for p in REPO.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return REPO / f"BENCH_{max(taken, default=0) + 1}.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=REPO,
                        help="the checkout whose benchmarks/run.py and src/ are measured")
    parser.add_argument("--parent", type=Path,
                        help="a parent checkout to run in alternating pairs with the measured one")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    better = {m["name"]: m["better"]
              for m in json.loads((checkout / "BENCHMARK.json").read_text())["end_to_end"]}
    workloads = {}
    for name in WORKLOADS:
        if args.parent is None:
            plain, pairs = run_one(checkout, name, trace=0), None
        else:
            pairs = paired(checkout, args.parent.resolve(), name, better)
            plain = pairs.pop("tree_runs")[0]
            parent_env = pairs.pop("parent_environment")
        traced = run_one(checkout, name, trace=1)
        workloads[name] = {"end_to_end": plain, "per_layer": traced}
        if pairs is not None:
            workloads[name]["paired"] = pairs
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
    if args.parent is not None:
        out["parent"] = {"git_sha": parent_env["git_sha"], "git_dirty": parent_env["git_dirty"],
                         "source_sha256": source_sha256(args.parent.resolve())}
    path = next_path()
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(path.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
