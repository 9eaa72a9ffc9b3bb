"""Checks on the package source itself rather than its behaviour."""
import ast
import importlib.util
import inspect
from dataclasses import fields
from pathlib import Path

import numpy as np

import fedthresh
from fedthresh import cli, harness
from test_harness import OPTION_EFFECTS

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


def test_layer_layout_stays_in_autoencoder():
    """Only autoencoder.py knows how a model's flat parameter vector is cut
    into layers; every other module works on `ModelParams.flat`."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "autoencoder.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("weights", "biases")]
    assert not found, f"per-layer parameter reads outside autoencoder: {found}"


def test_every_option_has_an_effect_test():
    """Each option earns its place through a test that shows what it
    changes: a new option fails here until OPTION_EFFECTS lists it, and a
    deleted one until its entry goes."""
    options = {f.name for f in fields(harness.ScenarioConfig)}
    options |= {f"{tag}.{key}" for tag, method in harness.METHODS.items()
                for key in method.params}
    options |= {opt for command in cli.main.commands.values()
                for param in command.params for opt in param.opts}
    options -= {"--config", "--out", "--help"}
    assert sorted(options ^ set(OPTION_EFFECTS)) == []


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


def test_traced_training_boundaries_are_reached():
    """The stacked trainer must call `_loss_and_grads` and `average_params`
    through their module globals; a name bound at import would bypass the
    traced attribute and leave the per-layer step metrics at 0."""
    tracing = load_tracing()
    cfg = harness.ScenarioConfig(
        dataset={"kind": "synth", "num_normal": 270, "num_anomaly": 30,
                 "dim": 3, "separation": 4.0},
        scheme="random", num_clients=3, rounds=2, n_candidates=20,
        methods=("largest_mse",))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        harness.run_scenario(cfg)
    finally:
        tracer.restore()
    spans = tracer.spans

    def under_fedavg(span):
        while span[tracing.PARENT] >= 0:
            span = spans[span[tracing.PARENT]]
            if span[tracing.NAME] == "federation.run_fedavg":
                return True
        return False

    steps = [s for s in spans if s[tracing.NAME] == "autoencoder.step"]
    assert steps and all(under_fedavg(s) for s in steps)
    averages = [s for s in spans if s[tracing.NAME] == "federation.average"]
    assert len(averages) == cfg.rounds
