"""Self-test of the benchmark itself (not part of the library's test suite).

    python3 benchmarks/selftest.py

Runs every workload of BENCHMARK.json at toy size, untraced and traced, and
checks that each run exits 0, ends with the JSON result line, reports
exactly the metrics BENCHMARK.json names with their units, prints each of
them on its own line too, and has no failed operation. Then checks that the
benchmark, copied into a directory without the library sources, exits
with a nonzero code and prints no result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600


def run(cwd: Path, command, extra):
    return subprocess.run(list(command) + extra, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def check_result(proc, expected: dict) -> list[str]:
    problems = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return ["last line of stdout is not JSON"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"metrics differ: missing {sorted(set(expected) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), float):
            problems.append(f"{name}: {got}")
        pattern = rf"^{re.escape(name)}\s+\S+\s+{re.escape(unit)}(\s|$)"
        if not any(re.match(pattern, line) for line in lines[:-1]):
            problems.append(f"{name} not printed with its unit")
    if not any(line.startswith("failed_frac") for line in lines[:-1]):
        problems.append("failed_frac not printed")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = [sys.executable if c == "python3" else c for c in spec["command"]]
    units = {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}
    failed = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, command, ["--workload", workload, "--seed", "7", "--seconds", "1",
                                       "--trace", str(trace), "--scale", "toy"])
            problems = check_result(proc, units[key])
            failed += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} trace={trace}"
                  + "".join(f"\n     {p}" for p in problems))

    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, command, ["--workload", spec["workloads"][0]["name"], "--seed", "7",
                                   "--seconds", "1", "--trace", "0"])
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    refused = proc.returncode != 0 and not proc.stdout.strip()
    failed += not refused
    print(f"{'ok  ' if refused else 'FAIL'} refuses to run without the library sources "
          f"(exit {proc.returncode})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
