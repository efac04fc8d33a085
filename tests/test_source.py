"""Source-level guards over the splitmc package."""

import ast
from pathlib import Path

import splitmc

PACKAGE_DIR = Path(splitmc.__file__).parent


def test_no_assert_statements():
    # Checks must raise typed errors: an assert disappears under python -O.
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {', '.join(found)}"
