"""FedAvg orchestration: broadcast, local training, weighted averaging.

Single-process simulation with an instrumented channel so tests can audit
exactly what crosses the client->server boundary. Determinism contract:
client order is list order, aggregation order is fixed, and every client
derives the same per-round training seed, so N identical clients behave
exactly like centralized training. A round trains one copy per client,
all of them in one stacked pass (`autoencoder._Stack`, built once per
run); each copy is bit-identical to training that client alone.
Averaging works on each model's flat parameter vector
(`ModelParams.flat`), never on its layers.
"""
import time
from dataclasses import dataclass, field

import numpy as np

from .autoencoder import (ModelParams, TrainConfig, _split, _Stack,
                          default_hidden_dims, init_model)
# not called here any more; perfbench/tracing.py replaces these attributes
# by name, so they stay importable from this module
from .autoencoder import mse_per_sample, train_local  # noqa: F401
from .errors import ConfigError, DivergedTraining, FederationError
from .util import NON_NEGATIVE, POSITIVE, check_dataclass, derive_seed


@dataclass(frozen=True)
class FedConfig:
    rounds: int
    train_cfg: TrainConfig
    hidden_dims: tuple | None = None  # None -> shrinking-bottleneck default
    model_seed: int = 0

    def __post_init__(self):
        check_dataclass(self, {"rounds": POSITIVE, "model_seed": NON_NEGATIVE})


@dataclass(frozen=True)
class ClientState:
    """One client's data slices. train_data holds only normal samples."""

    client_id: int
    train_data: np.ndarray
    val_data: np.ndarray
    val_labels: np.ndarray
    test_data: np.ndarray
    test_labels: np.ndarray

    def __post_init__(self):
        if self.train_data.ndim != 2 or self.train_data.shape[0] == 0:
            raise ConfigError(f"client {self.client_id}: empty training data")
        for name, data, labels in (("val", self.val_data, self.val_labels),
                                   ("test", self.test_data, self.test_labels)):
            if data.shape[0] != labels.shape[0]:
                raise ConfigError(f"client {self.client_id}: {name} labels "
                                  "do not align")


@dataclass(frozen=True)
class Message:
    direction: str  # "broadcast" (server->client) or "upload" (client->server)
    kind: str
    size: int
    client_id: int
    round_index: int = -1
    context: str = ""  # "fedavg" or the threshold method tag


@dataclass
class Channel:
    """Audit log of everything crossing the client<->server boundary."""

    messages: list = field(default_factory=list)

    def record(self, direction: str, kind: str, size: int, client_id: int,
               round_index: int = -1, context: str = "") -> None:
        if direction not in ("broadcast", "upload"):
            raise ConfigError(f"unknown direction {direction!r}")
        self.messages.append(Message(direction, kind, int(size), client_id,
                                     round_index, context))

    def select(self, direction: str | None = None, kind: str | None = None,
               context: str | None = None) -> list:
        return [m for m in self.messages
                if (direction is None or m.direction == direction)
                and (kind is None or m.kind == kind)
                and (context is None or m.context == context)]

    def count(self, direction: str | None = None, kind: str | None = None,
              context: str | None = None) -> int:
        return len(self.select(direction, kind, context))


def average_params(params_list, weights) -> ModelParams:
    """Element-wise weighted mean of model parameters.

    Weights are normalized to sum 1, so a single model comes back
    bit-identical (its normalized weight is exactly 1.0). They must be
    finite, non-negative, and have a positive sum that does not overflow.
    """
    params_list = list(params_list)
    weights = np.asarray(weights, dtype=np.float64)
    if not params_list or weights.shape != (len(params_list),):
        raise ConfigError("need one weight per model")
    if not np.isfinite(weights).all():
        raise ConfigError(f"weights must be finite, got {weights}")
    with np.errstate(over="ignore"):
        weight_sum = weights.sum()
    if np.any(weights < 0) or weight_sum <= 0:
        raise ConfigError("weights must be non-negative with a positive sum")
    if not np.isfinite(weight_sum):
        raise ConfigError(f"weights must have a finite sum, got {weights}")
    first = params_list[0]
    for p in params_list[1:]:
        if p.dims != first.dims:
            raise ConfigError(f"model dims differ: {p.dims} vs {first.dims}")
    norm = weights / weight_sum
    total = norm[0] * first.flat
    for coeff, params in zip(norm[1:], params_list[1:]):
        total += coeff * params.flat
    return ModelParams(*_split(total, first.dims))


def round_seed(base_seed: int, round_index: int) -> int:
    """Per-round training seed, identical for every client.

    Shared seeds make N clients with identical data reproduce centralized
    training exactly (their updates coincide, and averaging equals any one
    of them).
    """
    return derive_seed(base_seed, round_index)


def run_fedavg(clients, cfg: FedConfig, channel: Channel | None = None,
               round_log: list | None = None) -> ModelParams:
    """FedAvg for cfg.rounds rounds; returns the final global model.

    Per round: broadcast the global model, train one copy per client for
    cfg.train_cfg.local_epochs epochs (every client in one stacked pass),
    replace the global model with the average weighted by each client's
    training-sample count (McMahan et al. 2017). The stacked training
    state (the pooled rows, batch schedule, step spaces and buffers) is
    built once per run, before the first round; each round resets its
    parameters and optimizer moments and draws its own shuffles, exactly
    as a train_clients call per round would. A diverging client aborts
    with the round and client index; it names the client that training
    the clients one by one in list order would. Pass a Channel to audit
    synchronization (2 messages per client per round) and a list as
    round_log to collect per-client round rows (see write_round_log),
    read off training's own losses.
    """
    clients = list(clients)
    if not clients:
        raise ConfigError("no clients")
    input_dim = clients[0].train_data.shape[1]
    for c in clients:
        if c.train_data.shape[1] != input_dim:
            raise ConfigError(f"client {c.client_id}: feature dimension "
                              f"{c.train_data.shape[1]} != {input_dim}")
    hidden = cfg.hidden_dims or default_hidden_dims(input_dim)
    model = init_model(input_dim, hidden, cfg.model_seed)
    weights = np.array([c.train_data.shape[0] for c in clients],
                       dtype=np.float64)
    stack = _Stack(model, [c.train_data for c in clients], cfg.train_cfg)
    for t in range(cfg.rounds):
        if channel is not None:
            for c in clients:
                channel.record("broadcast", "model", model.flat.size,
                               c.client_id, t, context="fedavg")
        started = time.perf_counter()
        try:
            local_models, last_mse = stack.train(
                model, round_seed(cfg.train_cfg.seed, t))
        except DivergedTraining as exc:
            raise FederationError(t, clients[exc.client].client_id,
                                  exc) from exc
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        for c, local, mse in zip(clients, local_models, last_mse):
            if channel is not None:
                channel.record("upload", "model_update", local.flat.size,
                               c.client_id, t, context="fedavg")
            if round_log is not None:
                round_log.append({"round": t, "client_id": c.client_id,
                                  "last_epoch_mse": mse,
                                  "wall_time_ms": elapsed_ms})
        model = average_params(local_models, weights)
    return model


def write_round_log(rows, path) -> None:
    """Round log CSV: round, client_id, last_epoch_mse, wall_time_ms.

    last_epoch_mse is the client's row-weighted mean batch loss over its
    last local epoch, each batch's loss taken before that step's update.
    Clients train in one stacked pass, so wall_time_ms is that round's
    training time for all clients together, repeated on each client row;
    it leaves out the stacked state's one-time setup before round 0.
    """
    lines = ["round,client_id,last_epoch_mse,wall_time_ms"]
    for row in rows:
        lines.append(f"{row['round']},{row['client_id']},"
                     f"{row['last_epoch_mse']!r},{row['wall_time_ms']!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
