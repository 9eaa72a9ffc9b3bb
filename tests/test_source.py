"""Checks on the package source itself rather than its behaviour."""
import ast
from pathlib import Path

import fedthresh

PACKAGE_DIR = Path(fedthresh.__file__).resolve().parent


def test_no_assert_statements():
    """Invariants use explicit raises; `python -O` strips assert."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in package source: {found}"
