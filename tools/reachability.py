"""Which functions in src/splitmc does no command, experiment or workload enter?

Runs the four CLI commands, the five experiments at toy size and the three
benchmark workloads at their toy size under a function-entry profiler, then
prints every function or method defined in src/splitmc that was never
entered and is not on the keep-list below, and every keep-list entry that
is entered or no longer exists; it exits 1 if it printed either.

    python tools/reachability.py

Outputs go to a temporary directory that is removed afterwards.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "splitmc"

# module.qualname -> why it stays although run_everything never enters it.
KEEP = {
    # Called by the acceptance suite, tests/test_acceptance.py.
    "engine.am_solve": "acceptance suite: the alternating-minimization twin of the sweep",
    "engine.admm_solve": "acceptance suite: the ADMM twin",
    "engine._group_mode": "the mode step of am_solve and admm_solve",
    "conditionals.warm_start_group": "the descent to a caller's target, as _group_mode asks "
        "for it; the rejection draw enters the same descent through _descend",
    "conditionals.within_two_guarantee": "acceptance suite: the at-most-two-proposals regime",
    "metrics.Normal1D.cdf": "acceptance suite: KS test against the toy chain's stationary law",
    # Library API that only the tests read, or that a protocol requires.
    "model.SplitModel.potential": "U(theta) itself: gradient and centering tests compare to it",
    "model.make_quadratic_group.<locals>.value": "a group's value, read by SplitModel.potential",
    "model.make_quadratic_group.<locals>.recenter": "centering of a Gaussian group: every zoo "
        "Gaussian's minimizer search ends exactly at its center, so no command tilts one",
    "zoo.mixture_group.<locals>.value": "a group's value, read by SplitModel.potential",
    "engine.read_trace": "reads the trace file that sample --trace writes",
    "conditionals.BlockReports.__len__": "abstract in collections.abc.Sequence",
}


def defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line of the code object) -> qualified name, for every def in src/splitmc."""
    out = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", path)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                qualname = prefix + child.name
                out[(path, first)] = qualname
                visit(child, qualname + ".<locals>.", path)
            else:
                visit(child, prefix, path)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem + ".", str(path))
    return out


def run_everything(out: Path) -> None:
    from splitmc.cli import main

    import workloads
    from speed import SpeedProbe

    small = ["--n", "40", "--d", "3", "--b", "2"]
    commands = [
        ["plan", "--theorem", "w1", "--eps", "0.1"],
        ["plan", "--theorem", "tv-single", "--eps", "0.1"],
        ["plan", "--theorem", "tv-ns", "--eps", "0.1"],
        ["plan", "--theorem", "tv-multi", "--eps", "0.1", "--d", "3"],
        ["bias", "--grid-points", "4"],
        ["experiment", "bias-toy", "--set", "n_grid=4"],
        ["experiment", "rate-toy", "--set", "t_max=20", "--set", "theta0=1.0"],
        ["experiment", "gaussian-mixing", "--set", "d_grid=(4, 8)", "--set", "replicates=2",
         "--set", "n_chains=200", "--set", "kappa_grid=(10, 20)", "--set", "n_chains_w1=200",
         "--set", "eps_grid=(0.16, 0.11)", "--set", "n_chains_precision=2000"],
        ["experiment", "mixture", "--set", "d_grid=(2,)", "--set", "n_samples=300",
         "--set", "n_bins=8", "--set", "ula_sweeps=20"],
        ["experiment", "logistic", "--set", "d_grid=(2,)", "--set", "n_grid=(40,)",
         "--set", "b_grid=(2,)", "--set", "sweeps=10"],
    ]
    for model in ("toy-gaussian-1", "toy-gaussian-2", "aniso-gaussian", "gaussian-mixture",
                  "logistic-split1", "logistic-split2"):
        commands.append(["sample", "--model", model, "--rho", "0.3", "--sweeps", "5",
                         "--trace", *small])
    for k, argv in enumerate(commands):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv + ["--out", str(out / f"cmd{k}")])
        if code not in (0, 2):
            raise SystemExit(f"{' '.join(argv)} exited {code}")

    for name in workloads.WORKLOADS:
        workload = workloads.make_workload(name, "toy", out / name)
        setup = workload.setup(1)
        result = workload.run_op(setup, 1, 0, SpeedProbe())
        if result.failures:
            raise SystemExit(f"workload {name}: {result.failures}")


def main() -> int:
    sys.path[:0] = [str(REPO / "src"), str(REPO / "benchmarks")]
    functions = defined_functions()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    with tempfile.TemporaryDirectory() as tmp:
        sys.setprofile(profile)
        try:
            run_everything(Path(tmp))
        finally:
            sys.setprofile(None)

    never = sorted(name for key, name in functions.items() if key not in entered)
    stale = sorted(name for name in KEEP if name not in never)
    unexplained = [name for name in never if name not in KEEP]
    print(f"{len(functions)} functions in src/splitmc, {len(never)} never entered, "
          f"{len(never) - len(unexplained)} of them kept on purpose")
    for name in unexplained:
        print(f"never entered: {name}")
    for name in stale:
        print(f"keep-list entry is entered or gone: {name}")
    return 1 if unexplained or stale else 0


if __name__ == "__main__":
    sys.exit(main())
