"""Source-level guards over the splitmc package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import splitmc

PACKAGE_DIR = Path(splitmc.__file__).parent


def package_nodes(matches):
    """'file:line' of every node in the package's modules for which matches(node) holds."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if matches(node)]
    return found


def test_no_assert_statements():
    # Checks must raise typed errors: an assert disappears under python -O.
    found = package_nodes(lambda node: isinstance(node, ast.Assert))
    assert not found, f"assert statements in the package: {', '.join(found)}"


def test_no_logaddexp_calls():
    # Softplus goes through zoo._softplus, which is several times cheaper
    # than np.logaddexp(0, u) and agrees with it to 2 ulp.
    def is_logaddexp_call(node):
        if not isinstance(node, ast.Call):
            return False
        fn = node.func
        name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
        return name == "logaddexp"

    found = package_nodes(is_logaddexp_call)
    assert not found, f"logaddexp calls in the package: {', '.join(found)}"


def test_experiments_draw_only_from_their_keyed_streams():
    # Every experiment generator comes from experiments._rng, the SFC64
    # stream keyed by (seed, *key); numpy's default_rng and PCG64 would
    # bypass it.
    path = PACKAGE_DIR / "experiments.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [f"experiments.py:{node.lineno}" for node in ast.walk(tree)
             if getattr(node, "attr", getattr(node, "id", None)) in ("default_rng", "PCG64")]
    assert not found, f"default_rng or PCG64 in experiments.py: {', '.join(found)}"


def scipy_imports(*submodules):
    """'file:line' of every package import of scipy.<submodule> for the given submodules."""
    dotted = tuple(f"scipy.{name}" for name in submodules)

    def imports_one(node):
        if isinstance(node, ast.Import):
            return any(alias.name.startswith(dotted) for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            return module.startswith(dotted) or (
                module == "scipy" and any(alias.name in submodules for alias in node.names))
        return False

    return package_nodes(imports_one)


def test_no_scipy_stats_imports():
    # scipy.stats costs about half of `import splitmc.cli`; the package needs
    # only ndtr, ndtri and gammaincinv, which scipy.special provides.
    found = scipy_imports("stats")
    assert not found, f"scipy.stats imports in the package: {', '.join(found)}"


def test_no_scipy_integrate_or_optimize_imports():
    # scipy.integrate, which pulls in scipy.optimize, cost about 0.3 s of
    # `import splitmc.cli`; D_{-d} comes from scipy.special.pbdv and the
    # mixture bins by its cdf, so neither quadrature nor root-finding is needed.
    found = scipy_imports("integrate", "optimize")
    assert not found, ("scipy.integrate or scipy.optimize imports in the package: "
                       f"{', '.join(found)}")


def test_reachability_keep_list_is_current():
    # tools/reachability.py runs every command, experiment and workload at toy
    # size and fails on a src/ function that nothing enters and nothing keeps,
    # or on a keep-list entry that is entered or gone.
    tool = Path(__file__).resolve().parents[1] / "tools" / "reachability.py"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, str(tool)], capture_output=True, text=True,
                          env=env, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "keep-list entry is entered or gone" not in done.stdout, done.stdout


def test_fingerprint_manifest_runs_and_repeats(tmp_path):
    # tools/fingerprints.py: two runs agree entry for entry, and --against
    # lists exactly the entries that differ and exits 1. No hash is
    # compared with a committed value: bit identity holds on one host and
    # one numpy/BLAS build only.
    import json

    tool = Path(__file__).resolve().parents[1] / "tools" / "fingerprints.py"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")

    def run(*args):
        return subprocess.run([sys.executable, str(tool), *map(str, args)],
                              capture_output=True, text=True, env=env, timeout=300)

    first = run("--out", tmp_path / "first.json")
    assert first.returncode == 0, first.stdout + first.stderr
    manifest = json.loads((tmp_path / "first.json").read_text())
    assert set(manifest["versions"]) == {"python", "numpy", "scipy", "blas"}
    names = sorted(manifest["fingerprints"])
    assert any(n.startswith("workload/") for n in names) and "csv/rate-toy" in names
    edited = dict(manifest, fingerprints=dict(manifest["fingerprints"]))
    edited["fingerprints"][names[0]] = "0" * 64
    del edited["fingerprints"][names[1]]
    (tmp_path / "edited.json").write_text(json.dumps(edited))

    second = run("--out", tmp_path / "second.json", "--against", tmp_path / "edited.json")
    assert second.returncode == 1, second.stdout + second.stderr
    listed = [line.removeprefix("changed: ") for line in second.stdout.splitlines()
              if line.startswith("changed: ")]
    assert listed == names[:2]
    assert json.loads((tmp_path / "second.json").read_text()) == manifest
