"""Command-line front end for training, thresholding, and sweeps.

Exit codes: 0 success, 2 configuration problems (bad config file, unknown
method tags, invalid values), 3 runtime failures (diverged training, a
failed privacy audit, unwritable paths, and so on).
"""
import functools
import sys
from dataclasses import replace

import click

from .errors import ConfigError
from .harness import (ScenarioConfig, build_followup_dataset, run_scenario,
                      sweep_clients, sweep_corruption, train_model)
from .thresholds import METHOD_TAGS
from .util import derive_seed


def _guard(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except click.ClickException:
            raise
        except Exception as exc:
            # a StageError carries its cause
            config_side = isinstance(exc, ConfigError) or \
                isinstance(getattr(exc, "cause", None), ConfigError)
            click.echo(f"error: {exc}", err=True)
            sys.exit(2 if config_side else 3)
    return wrapper


def _load(config_path, seed=None, methods=()):
    cfg = ScenarioConfig.from_file(config_path)
    if seed is not None:
        # one CLI seed fans out to decorrelated per-stage seeds
        stages = ("data", "model", "partition", "train", "corruption")
        cfg = replace(cfg, **{f"{stage}_seed": derive_seed(seed, i)
                              for i, stage in enumerate(stages)})
    if methods:
        cfg = replace(cfg, methods=tuple(methods))
    return cfg


def _parse_counts(raw: str):
    try:
        return [int(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"counts must be comma-separated integers, "
                          f"got {raw!r}") from None


config_option = click.option("--config", "config_path", required=True,
                             type=click.Path(), help="Scenario JSON file.")
seed_option = click.option("--seed", type=click.IntRange(min=0),
                           default=None,
                           help="Override every stage seed from one value.")
out_option = click.option("--out", "out_dir", type=click.Path(), default=None,
                          help="Output directory for CSV artifacts.")


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
def main():
    """Federated anomaly-threshold experiment runner."""


@main.command()
@config_option
@seed_option
@out_option
@_guard
def train(config_path, seed, out_dir):
    """FedAvg-train the shared autoencoder and save it."""
    cfg = _load(config_path, seed)
    _, round_log = train_model(cfg, out_dir)
    final = [r["last_epoch_mse"] for r in round_log[-cfg.num_clients:]]
    click.echo(f"trained {cfg.rounds} rounds x {cfg.num_clients} clients; "
               f"final mean last-epoch MSE {sum(final) / len(final):.6g}")
    if out_dir:
        click.echo(f"wrote model + round log to {out_dir}")


@main.command()
@config_option
@seed_option
@out_option
@click.option("--method", "methods", multiple=True,
              type=click.Choice(METHOD_TAGS),
              help="Restrict to these methods (repeatable).")
@_guard
def threshold(config_path, seed, out_dir, methods):
    """Run one full scenario: train, select thresholds, score test F1."""
    cfg = _load(config_path, seed, methods)
    rows = run_scenario(cfg, out_dir=out_dir)
    width = max(len(m) for m in cfg.methods) + 2
    click.echo(f"{'method':<{width}}{'global_f1':>10}{'threshold':>14}")
    for row in rows:
        if row.client_id == "global":
            click.echo(f"{row.method:<{width}}{row.f1:>10.4f}"
                       f"{row.threshold:>14.6g}")
    if out_dir:
        click.echo(f"wrote artifacts to {out_dir}")


@main.command("sweep-clients")
@config_option
@seed_option
@out_option
@click.option("--counts", required=True,
              help="Comma-separated client counts, each >= 2.")
@_guard
def sweep_clients_cmd(config_path, seed, out_dir, counts):
    """Rerun the scenario across client counts."""
    cfg = _load(config_path, seed)
    results = sweep_clients(cfg, _parse_counts(counts), out_dir)
    for count, rows in results.items():
        best = max((r for r in rows if r.client_id == "global"),
                   key=lambda r: r.f1)
        click.echo(f"{count} clients: best global F1 {best.f1:.4f} "
                   f"({best.method})")
    if out_dir:
        click.echo(f"wrote sweep CSVs to {out_dir}")


@main.command("sweep-corruption")
@config_option
@seed_option
@out_option
@click.option("--counts", required=True,
              help="Comma-separated corrupt-client counts.")
@_guard
def sweep_corruption_cmd(config_path, seed, out_dir, counts):
    """Corrupt growing client sets and redo threshold selection."""
    cfg = _load(config_path, seed)
    results = sweep_corruption(cfg, _parse_counts(counts), out_dir)
    for count, rows in results.items():
        ours = [r for r in rows
                if r.client_id == "global" and r.method == "our_method"]
        shown = ours[0] if ours else max(
            (r for r in rows if r.client_id == "global"), key=lambda r: r.f1)
        click.echo(f"{count} corrupt: {shown.method} global F1 "
                   f"{shown.f1:.4f}")
    if out_dir:
        click.echo(f"wrote corruption_sweep.csv to {out_dir}")


@main.command("followup-dataset")
@config_option
@seed_option
@out_option
@click.option("--runs", type=int, default=10, show_default=True,
              help="Scenario repetitions; each client contributes one row "
                   "per run.")
@_guard
def followup_dataset(config_path, seed, out_dir, runs):
    """Build the per-client summary-feature dataset and its correlations."""
    cfg = _load(config_path, seed)
    rows, corr, constant = build_followup_dataset(cfg, runs, out_dir)
    label_corr = corr[-1]
    click.echo(f"{len(rows)} feature rows; "
               f"{int(constant.sum())} constant columns")
    click.echo(f"strongest |corr| with f1_difference: "
               f"{max(abs(label_corr[:-1])):.3f}")
    if out_dir:
        click.echo(f"wrote followup CSVs to {out_dir}")


if __name__ == "__main__":
    main()
