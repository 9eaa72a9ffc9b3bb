"""The three benchmark workloads: inputs from a seed, one operation, checks.

Each workload is one call into the public API, the same call the CLI
makes: `harness.run_scenario` (what `fedthresh threshold --out` runs) or
`harness.sweep_corruption` (what `fedthresh sweep-corruption` runs). The
seed reaches the program only through the files written here: a scenario
config (stage seeds fan out from the benchmark seed exactly as the CLI's
`--seed` does) and, for `noniid_csv`, a CSV.
"""
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# fedthresh is imported inside the functions that call it: run.py imports
# this module to write the inputs without the package on its path.
CONFIG_NAME = "config.json"
CSV_NAME = "input.csv"


@dataclass(frozen=True)
class Workload:
    name: str
    api: str            # "run_scenario" or "sweep_corruption"
    f1_floor: float     # every operation's global our_method F1 must reach it
    config: dict
    toy_config: dict
    corrupt_counts: tuple = ()


def _synth(num_normal, num_anomaly, dim, separation):
    return {"kind": "synth", "num_normal": num_normal,
            "num_anomaly": num_anomaly, "dim": dim, "separation": separation}


_CSV_DATASET = {"kind": "csv", "path": CSV_NAME, "label_column": "label",
                "positive_label": "1"}

WORKLOADS = {w.name: w for w in (
    # ROADMAP baseline scenario: equal clients, SGD, FedAvg dominates.
    Workload(
        "iid_train", "run_scenario", f1_floor=0.8,
        config=dict(dataset=_synth(50_000, 2_500, 16, 3.0), scheme="even",
                    num_clients=10, rounds=20, local_epochs=2),
        toy_config=dict(dataset=_synth(600, 60, 6, 3.0), scheme="even",
                        num_clients=3, rounds=2, local_epochs=1,
                        n_candidates=100)),
    # CSV ingest + k-means partition over uneven clients, Adam.
    Workload(
        "noniid_csv", "run_scenario", f1_floor=0.95,
        config=dict(dataset=_CSV_DATASET, scheme="noniid_kmeans",
                    num_clients=8, rounds=5, local_epochs=1,
                    optimizer="adam", learning_rate=0.01),
        toy_config=dict(dataset=_CSV_DATASET, scheme="noniid_kmeans",
                        num_clients=3, rounds=2, local_epochs=1,
                        optimizer="adam", learning_rate=0.01,
                        n_candidates=100)),
    # Train once, then threshold selection + evaluation three times on
    # large validation sets across many Dirichlet-sized clients.
    Workload(
        "threshold_sweep", "sweep_corruption", f1_floor=0.9,
        config=dict(dataset=_synth(100_000, 5_000, 8, 3.0), scheme="random",
                    num_clients=40, rounds=1, local_epochs=1, train_frac=0.2,
                    val_frac=0.4, n_candidates=4000),
        toy_config=dict(dataset=_synth(800, 80, 4, 3.0), scheme="random",
                        num_clients=6, rounds=1, local_epochs=1,
                        train_frac=0.2, val_frac=0.4, n_candidates=200),
        corrupt_counts=(0, 2, 5)),
)}


def write_csv(path: Path, seed: int, num_normal: int, num_anomaly: int,
              dim: int = 10) -> None:
    """Binary-label CSV: normals uniform in the unit cube, anomalies from
    one Gaussian blob far outside it.

    On uniform normals Lloyd's iterations reach the k-means cap on every
    seed tried (50 of 50), so the data path costs the same from seed to
    seed; offset sub-populations let some seeds converge early (2 in 50
    with offsets of 0.1, 2 in 10 with 0.3). The distant anomaly blob keeps
    the detection F1 steady across seeds.
    """
    rng = np.random.default_rng([seed, 0xC5F])
    normal = rng.uniform(0.0, 1.0, (num_normal, dim))
    anomaly = 3.0 + 0.3 * rng.standard_normal((num_anomaly, dim))
    labels = np.concatenate([np.zeros(num_normal), np.ones(num_anomaly)])
    order = rng.permutation(labels.size)
    table = np.column_stack([np.vstack([normal, anomaly]), labels])[order]
    header = ",".join([f"f{i}" for i in range(dim)] + ["label"])
    np.savetxt(path, table, fmt=["%.17g"] * dim + ["%d"], delimiter=",",
               header=header, comments="")


def make_inputs(workload: Workload, seed: int, work_dir: Path,
                toy: bool = False) -> None:
    """Write the workload's config (and CSV) into work_dir."""
    config = dict(workload.toy_config if toy else workload.config)
    (work_dir / CONFIG_NAME).write_text(json.dumps(config, indent=1) + "\n",
                                        encoding="utf-8")
    if config["dataset"]["kind"] == "csv":
        sizes = (1_500, 75) if toy else (50_000, 2_500)
        write_csv(work_dir / CSV_NAME, seed, *sizes)


def run_operation(workload: Workload, cfg, out_dir: Path):
    """The timed call; returns its rows (a list, or a dict per level)."""
    from fedthresh import harness
    if workload.api == "run_scenario":
        return harness.run_scenario(cfg, out_dir=out_dir, artifacts={})
    return harness.sweep_corruption(cfg, workload.corrupt_counts,
                                    out_dir=out_dir)


def results_digest(workload: Workload, result, out_dir: Path) -> str:
    """sha256 of the results.csv bytes the operation produced.

    run_scenario wrote results.csv itself; for a sweep, each level's rows
    go through the same `emit_report` and the files are hashed in order.
    """
    from fedthresh import harness
    digest = hashlib.sha256()
    if workload.api == "run_scenario":
        digest.update((out_dir / "results.csv").read_bytes())
    else:
        for count, rows in result.items():
            level_dir = out_dir / f"level{count}"
            harness.emit_report(rows, level_dir)
            digest.update((level_dir / "results.csv").read_bytes())
    return digest.hexdigest()


def f1_our_method(workload: Workload, result) -> float:
    """Global test F1 of our_method; for a sweep, at the clean level."""
    rows = result if workload.api == "run_scenario" \
        else result[workload.corrupt_counts[0]]
    return next(r.f1 for r in rows
                if r.method == "our_method" and r.client_id == "global")


def audit(cfg, channel) -> None:
    """The CLI's privacy audit over the channel the operation used."""
    from fedthresh.harness import AUDITED_METHODS, audit_channel
    audit_channel(channel, cfg.num_clients, cfg.rounds,
                  methods=[m for m in cfg.methods if m in AUDITED_METHODS])
