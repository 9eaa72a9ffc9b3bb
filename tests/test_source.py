"""Checks on the package source itself rather than its behaviour."""
import ast
import importlib.util
import inspect
from pathlib import Path

import fedthresh
from fedthresh import harness

PACKAGE_DIR = Path(fedthresh.__file__).resolve().parent
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_no_assert_statements():
    """Invariants use explicit raises; `python -O` strips assert."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in package source: {found}"


def test_benchmark_boundaries_exist():
    """The traced benchmark replaces these attributes by name and binds
    these arguments; a rename would break it only when it runs."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module.__name__}.{attr}"
               for module, attr, _, _ in tracing.BOUNDARIES
               if not hasattr(module, attr)]
    assert not missing, f"traced attributes gone: {missing}"
    train = inspect.signature(harness._train).parameters
    assert {"cfg", "clients", "channel"} <= set(train)
    assert next(iter(inspect.signature(harness._compute_method).parameters)) \
        == "tag"
