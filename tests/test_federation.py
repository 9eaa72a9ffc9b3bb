"""Tests for FedAvg orchestration, parameter averaging, and channel audit."""
import math

import numpy as np
import pytest

from fedthresh.autoencoder import (ModelParams, TrainConfig, default_hidden_dims,
                                   init_model, mse_per_sample, train_local)
from fedthresh.errors import ConfigError, DivergedTraining, FederationError
from fedthresh.federation import (Channel, ClientState, FedConfig,
                                  average_params, round_seed, run_fedavg,
                                  write_round_log)
from fedthresh.util import derive_seed


def constant_model(dims, value):
    """Autoencoder-shaped ModelParams with every parameter set to value."""
    weights, biases = [], []
    for in_dim, out_dim in zip(dims[:-1], dims[1:]):
        weights.append(np.full((out_dim, in_dim), value, dtype=np.float64))
        biases.append(np.full(out_dim, value, dtype=np.float64))
    return ModelParams(tuple(weights), tuple(biases))


def make_client(client_id, rng, n_train=40, dim=4):
    train = rng.normal(size=(n_train, dim))
    val = rng.normal(size=(10, dim))
    val_labels = np.array([0] * 8 + [1] * 2)
    test = rng.normal(size=(6, dim))
    test_labels = np.array([0] * 5 + [1])
    return ClientState(client_id, train, val, val_labels, test, test_labels)


def params_equal(a: ModelParams, b: ModelParams) -> bool:
    return (a.dims == b.dims
            and all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
            and all(np.array_equal(x, y) for x, y in zip(a.biases, b.biases)))


def sequential_train(model, data, cfg: TrainConfig, rounds: int) -> ModelParams:
    """Centralized reference: rounds sequential local fits, re-batched per round."""
    for t in range(rounds):
        cfg_t = TrainConfig(local_epochs=cfg.local_epochs,
                            learning_rate=cfg.learning_rate,
                            batch_size=cfg.batch_size,
                            seed=round_seed(cfg.seed, t),
                            optimizer=cfg.optimizer)
        model = train_local(model, data, cfg_t)
    return model


class TestAverageParams:
    def test_uniform_mean_of_two(self):
        a = constant_model((4, 2, 4), 1.0)
        b = constant_model((4, 2, 4), 3.0)
        avg = average_params([a, b], [1.0, 1.0])
        assert all(np.all(w == 2.0) for w in avg.weights)
        assert all(np.all(bb == 2.0) for bb in avg.biases)

    def test_weighted_mean(self):
        # weights (2, 3) on values (1.0, 2.0): (2*1 + 3*2) / 5 = 1.6
        a = constant_model((3, 2, 3), 1.0)
        b = constant_model((3, 2, 3), 2.0)
        avg = average_params([a, b], [2.0, 3.0])
        assert all(np.allclose(w, 1.6, rtol=0, atol=0) for w in avg.weights)
        assert all(np.allclose(bb, 1.6, rtol=0, atol=0) for bb in avg.biases)

    def test_single_model_bit_identical_copy(self):
        model = init_model(5, (3, 2), seed=7)
        avg = average_params([model], [4.25])
        assert params_equal(avg, model)
        # a copy, not a view of the input arrays
        assert avg.weights[0] is not model.weights[0]

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        models = [init_model(4, (3,), seed=s) for s in range(4)]
        weights = [1.0, 2.0, 3.0, 4.0]
        base = average_params(models, weights)
        order = rng.permutation(4)
        shuffled = average_params([models[i] for i in order],
                                  [weights[i] for i in order])
        for x, y in zip(base.weights + base.biases,
                        shuffled.weights + shuffled.biases):
            np.testing.assert_allclose(x, y, rtol=1e-12, atol=1e-15)

    def test_permutation_exact_for_dyadic_weights(self):
        # powers of two make every product and sum exact, so shuffling
        # must be bit-identical, not merely close
        models = [constant_model((4, 2, 4), v) for v in (0.5, 1.25, -3.0)]
        weights = [1.0, 2.0, 1.0]
        base = average_params(models, weights)
        shuffled = average_params([models[2], models[0], models[1]],
                                  [1.0, 1.0, 2.0])
        assert params_equal(base, shuffled)

    def test_dimension_mismatch_rejected(self):
        a = constant_model((4, 2, 4), 1.0)
        b = constant_model((4, 3, 4), 1.0)
        with pytest.raises(ConfigError, match="dims differ"):
            average_params([a, b], [1.0, 1.0])

    def test_weight_validation(self):
        a = constant_model((3, 2, 3), 1.0)
        with pytest.raises(ConfigError, match="one weight per model"):
            average_params([a, a], [1.0])
        with pytest.raises(ConfigError, match="one weight per model"):
            average_params([], [])
        with pytest.raises(ConfigError, match="non-negative"):
            average_params([a, a], [1.0, -1.0])
        with pytest.raises(ConfigError, match="positive sum"):
            average_params([a, a], [0.0, 0.0])


class TestFedConfig:
    def test_zero_rounds_rejected(self):
        with pytest.raises(ConfigError, match="rounds"):
            FedConfig(rounds=0, train_cfg=TrainConfig())


class TestClientState:
    def test_empty_training_data_rejected(self):
        with pytest.raises(ConfigError, match="empty training data"):
            ClientState(0, np.empty((0, 3)), np.zeros((2, 3)), np.zeros(2),
                        np.zeros((2, 3)), np.zeros(2))

    def test_misaligned_labels_rejected(self):
        with pytest.raises(ConfigError, match="labels"):
            ClientState(0, np.zeros((4, 3)), np.zeros((2, 3)), np.zeros(3),
                        np.zeros((2, 3)), np.zeros(2))


class TestRunFedavg:
    def test_single_client_matches_sequential_training(self):
        rng = np.random.default_rng(11)
        client = make_client(0, rng, n_train=50, dim=5)
        train_cfg = TrainConfig(local_epochs=2, learning_rate=0.05,
                                batch_size=16, seed=9)
        cfg = FedConfig(rounds=3, train_cfg=train_cfg, model_seed=4)
        fed = run_fedavg([client], cfg)

        init = init_model(5, default_hidden_dims(5), seed=4)
        ref = sequential_train(init, client.train_data, train_cfg, rounds=3)
        assert params_equal(fed, ref)

    def test_identical_clients_average_equals_either(self):
        rng = np.random.default_rng(12)
        data = rng.normal(size=(30, 4))
        clients = [make_client(i, np.random.default_rng(1)) for i in range(2)]
        clients = [ClientState(i, data, c.val_data, c.val_labels,
                               c.test_data, c.test_labels)
                   for i, c in enumerate(clients)]
        train_cfg = TrainConfig(local_epochs=1, learning_rate=0.05, seed=2)
        cfg = FedConfig(rounds=2, train_cfg=train_cfg, model_seed=0)
        fed = run_fedavg(clients, cfg)

        init = init_model(4, default_hidden_dims(4), seed=0)
        ref = sequential_train(init, data, train_cfg, rounds=2)
        assert params_equal(fed, ref)

    def test_identical_clients_match_centralized_loss(self):
        # three equal clients: averaging thirds costs at most an ulp per
        # round, so the final loss agrees with centralized training to 1e-9
        rng = np.random.default_rng(13)
        data = rng.normal(size=(48, 6))
        template = make_client(0, np.random.default_rng(1), dim=6)
        clients = [ClientState(i, data, template.val_data, template.val_labels,
                               template.test_data, template.test_labels)
                   for i in range(3)]
        train_cfg = TrainConfig(local_epochs=2, learning_rate=0.05,
                                batch_size=16, seed=5)
        cfg = FedConfig(rounds=3, train_cfg=train_cfg, model_seed=8)
        fed = run_fedavg(clients, cfg)

        init = init_model(6, default_hidden_dims(6), seed=8)
        central = sequential_train(init, data, train_cfg, rounds=3)
        fed_loss = float(np.mean(mse_per_sample(fed, data)))
        central_loss = float(np.mean(mse_per_sample(central, data)))
        assert math.isclose(fed_loss, central_loss, rel_tol=1e-9, abs_tol=1e-12)

    def test_one_round_zero_learning_rate_is_identity(self):
        rng = np.random.default_rng(14)
        clients = [make_client(i, rng) for i in range(2)]
        initial = init_model(4, (3,), seed=21)
        cfg = FedConfig(rounds=1,
                        train_cfg=TrainConfig(local_epochs=1, learning_rate=0.0),
                        hidden_dims=(3,), model_seed=21)
        out = run_fedavg(clients, cfg)
        assert params_equal(out, initial)

    def test_weighted_aggregation_matches_manual_round(self):
        rng = np.random.default_rng(15)
        a = make_client(0, rng, n_train=20)
        b = make_client(1, rng, n_train=60)
        train_cfg = TrainConfig(local_epochs=1, learning_rate=0.05, seed=3)
        init = init_model(4, default_hidden_dims(4), seed=6)

        cfg_0 = TrainConfig(local_epochs=1, learning_rate=0.05,
                            seed=round_seed(3, 0))
        locals_ = [train_local(init, c.train_data, cfg_0) for c in (a, b)]

        # model_seed 6 builds the same initial model inside run_fedavg
        by_count = run_fedavg([a, b], FedConfig(
            rounds=1, train_cfg=train_cfg, model_seed=6))
        assert params_equal(by_count, average_params(locals_, [20.0, 60.0]))
        # the sample counts matter: an equal-weight mean differs
        assert not params_equal(by_count,
                                average_params(locals_, [1.0, 1.0]))

    def test_deterministic_across_runs(self):
        def one_run():
            rng = np.random.default_rng(16)
            clients = [make_client(i, rng, n_train=25 + 5 * i)
                       for i in range(3)]
            cfg = FedConfig(rounds=2,
                            train_cfg=TrainConfig(local_epochs=1,
                                                  learning_rate=0.05, seed=4),
                            model_seed=2)
            return run_fedavg(clients, cfg)

        assert params_equal(one_run(), one_run())

    def test_hidden_dims_override(self):
        rng = np.random.default_rng(17)
        client = make_client(0, rng, dim=4)
        cfg = FedConfig(rounds=1, train_cfg=TrainConfig(learning_rate=0.01),
                        hidden_dims=(3,), model_seed=0)
        model = run_fedavg([client], cfg)
        assert model.dims == (4, 3, 4)

    def test_no_clients_rejected(self):
        cfg = FedConfig(rounds=1, train_cfg=TrainConfig())
        with pytest.raises(ConfigError, match="no clients"):
            run_fedavg([], cfg)

    def test_feature_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(18)
        a = make_client(0, rng, dim=4)
        b = make_client(1, rng, dim=5)
        cfg = FedConfig(rounds=1, train_cfg=TrainConfig())
        with pytest.raises(ConfigError, match="feature dimension"):
            run_fedavg([a, b], cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_carries_round_and_client(self):
        rng = np.random.default_rng(19)
        clients = [make_client(i, rng) for i in range(2)]
        cfg = FedConfig(rounds=3,
                        train_cfg=TrainConfig(local_epochs=3,
                                              learning_rate=1e200, seed=1),
                        model_seed=3)
        with pytest.raises(FederationError) as excinfo:
            run_fedavg(clients, cfg)
        err = excinfo.value
        assert err.round_index == 0
        assert err.client_id == 0
        assert isinstance(err.cause, DivergedTraining)
        assert f"round {err.round_index}" in str(err)
        assert f"client {err.client_id}" in str(err)


class TestChannelAudit:
    def test_message_count_is_two_per_client_per_round(self):
        rng = np.random.default_rng(20)
        clients = [make_client(i, rng) for i in range(3)]
        cfg = FedConfig(rounds=4,
                        train_cfg=TrainConfig(learning_rate=0.01, seed=0),
                        model_seed=1)
        channel = Channel()
        model = run_fedavg(clients, cfg, channel=channel)

        n, r = len(clients), cfg.rounds
        assert channel.count(context="fedavg") == 2 * n * r
        assert channel.count("broadcast", "model", "fedavg") == n * r
        assert channel.count("upload", "model_update", "fedavg") == n * r
        assert {m.kind for m in channel.select("upload", context="fedavg")} \
            == {"model_update"}
        assert {m.round_index for m in channel.messages} == set(range(r))
        size = sum(w.size + b.size
                   for w, b in zip(model.weights, model.biases))
        assert all(m.size == size for m in channel.messages)

    def test_record_validates_direction(self):
        channel = Channel()
        with pytest.raises(ConfigError, match="direction"):
            channel.record("sideways", "model", 3, 0)

    def test_select_filters(self):
        channel = Channel()
        channel.record("broadcast", "model", 5, 0, 0, context="fedavg")
        channel.record("upload", "summary_stats", 5, 0, context="our_method")
        assert len(channel.select(direction="upload")) == 1
        assert len(channel.select(kind="model")) == 1
        assert len(channel.select(context="our_method")) == 1
        assert channel.count() == 2


class TestRoundLog:
    def test_round_log_rows(self):
        rng = np.random.default_rng(21)
        clients = [make_client(i, rng) for i in range(2)]
        cfg = FedConfig(rounds=3,
                        train_cfg=TrainConfig(learning_rate=0.05, seed=7),
                        model_seed=5)
        log = []
        run_fedavg(clients, cfg, round_log=log)
        assert len(log) == 2 * 3
        for row in log:
            assert set(row) == {"round", "client_id", "last_epoch_mse",
                                "wall_time_ms"}
            assert np.isfinite(row["last_epoch_mse"])
            assert row["last_epoch_mse"] >= 0
            assert row["wall_time_ms"] >= 0
        assert [(r["round"], r["client_id"]) for r in log] == [
            (t, i) for t in range(3) for i in range(2)]

    def test_write_round_log_roundtrip(self, tmp_path):
        rows = [{"round": 0, "client_id": 1, "last_epoch_mse": 0.125,
                 "wall_time_ms": 3.5},
                {"round": 1, "client_id": 0, "last_epoch_mse": 0.0625,
                 "wall_time_ms": 2.25}]
        path = tmp_path / "rounds.csv"
        write_round_log(rows, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "round,client_id,last_epoch_mse,wall_time_ms"
        assert len(lines) == 3
        fields = lines[1].split(",")
        assert int(fields[0]) == 0 and int(fields[1]) == 1
        assert float(fields[2]) == 0.125 and float(fields[3]) == 3.5


class TestRoundSeed:
    def test_matches_derive_seed(self):
        assert round_seed(42, 3) == derive_seed(42, 3)

    def test_distinct_per_round(self):
        seeds = {round_seed(42, t) for t in range(50)}
        assert len(seeds) == 50
