"""Source-level guards over the splitmc package."""

import ast
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
