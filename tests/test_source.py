"""Checks on the package source itself rather than its behaviour."""
import ast
import importlib.util
import inspect
from pathlib import Path

import numpy as np

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


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_boundaries_exist():
    """The traced benchmark replaces these attributes by name and binds
    these arguments; a rename would break it only when it runs."""
    tracing = load_tracing()
    missing = [f"{module.__name__}.{attr}"
               for module, attr, _, _ in tracing.BOUNDARIES
               if not hasattr(module, attr)]
    assert not missing, f"traced attributes gone: {missing}"
    train = inspect.signature(harness._train).parameters
    assert {"cfg", "clients", "channel"} <= set(train)
    assert next(iter(inspect.signature(harness._compute_method).parameters)) \
        == "tag"


def test_traced_boundaries_are_reached(tmp_path):
    """A table that bound its functions at import would call the original
    past the traced module attribute, and that layer would time 0."""
    tracing = load_tracing()
    rng = np.random.default_rng(0)
    rows = np.column_stack([rng.normal(size=(300, 3)),
                            np.r_[np.zeros(270), np.ones(30)]])
    np.savetxt(tmp_path / "toy.csv", rows, fmt=["%.6f"] * 3 + ["%d"],
               delimiter=",", header="a,b,c,label", comments="")
    datasets = (
        {"kind": "synth", "num_normal": 270, "num_anomaly": 30, "dim": 3,
         "separation": 4.0},
        {"kind": "blobs", "num_normal": 270, "anomaly_blob_sizes": [15, 15],
         "dim": 3, "separations": [4.0, 8.0]},
        {"kind": "csv", "path": str(tmp_path / "toy.csv"),
         "label_column": "label", "positive_label": "1"})
    for dataset in datasets:
        for scheme in harness.PARTITIONS:
            cfg = harness.ScenarioConfig(
                dataset=dataset, scheme=scheme, num_clients=3, rounds=1,
                n_candidates=20, methods=("largest_mse",))
            tracer = tracing.Tracer()
            tracer.install()
            try:
                harness.run_scenario(cfg)
            finally:
                tracer.restore()
            names = {span[tracing.NAME] for span in tracer.spans}
            expected = {"data.load", "data.partition"} | (
                {"data.kmeans"} if scheme == "noniid_kmeans" else set())
            assert expected <= names, (dataset["kind"], scheme)
