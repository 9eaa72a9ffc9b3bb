import math
import re
from dataclasses import replace

import numpy as np
import pytest

from fedthresh.autoencoder import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS,
                                   ModelParams, TrainConfig, _loss_and_grads,
                                   _split, default_hidden_dims, forward,
                                   init_model, load_model, mse_per_sample,
                                   save_model, train_clients, train_local)
from fedthresh.errors import ConfigError, DivergedTraining, FederationError
from fedthresh.federation import (ClientState, FedConfig, average_params,
                                  round_seed, run_fedavg)


def test_default_hidden_dims_halves_and_quarters():
    assert default_hidden_dims(8) == (4, 2)
    assert default_hidden_dims(9) == (5, 3)
    assert default_hidden_dims(2) == (1, 1)


def test_init_model_architecture_and_bounds():
    model = init_model(8, (4, 2), seed=0)
    assert model.dims == (8, 4, 2, 4, 8)
    assert model.input_dim == 8
    for w, b in zip(model.weights, model.biases):
        fan_out, fan_in = w.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(w) <= limit)
        assert np.all(b == 0.0)


def test_init_model_rejects_non_integer_widths():
    # int() used to truncate these silently: (2.7,) built width 2
    # None and a bare int used to raise TypeError from the error path
    for hidden in ((2.7,), (4, 2.0), ("3",), None, 5):
        with pytest.raises(ConfigError, match="hidden_dims"):
            init_model(4, hidden, seed=0)
    assert init_model(4, (np.int64(3),), seed=0).dims == (4, 3, 4)


def test_init_model_deterministic_by_seed():
    a = init_model(6, (3,), seed=7)
    b = init_model(6, (3,), seed=7)
    c = init_model(6, (3,), seed=8)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert any(not np.array_equal(wa, wc)
               for wa, wc in zip(a.weights, c.weights))


def test_model_params_validation():
    model = init_model(4, (2,), seed=0)
    with pytest.raises(ConfigError):
        ModelParams(model.weights[:1], model.biases)  # mismatched lengths
    bad_w = [w.copy() for w in model.weights]
    bad_w[1] = bad_w[1][:, :-1]  # breaks the dimension chain
    with pytest.raises(ConfigError):
        ModelParams(tuple(bad_w), model.biases)
    nan_w = [w.copy() for w in model.weights]
    nan_w[0][0, 0] = np.nan
    with pytest.raises(ConfigError):
        ModelParams(tuple(nan_w), model.biases)


def test_forward_identity_output_allows_negatives():
    model = init_model(3, (2,), seed=1)
    x = np.array([[-5.0, -5.0, -5.0]])
    out = forward(model, x)
    assert out.shape == (1, 3)
    # hidden activations are clamped at zero, so this input reaches the
    # output layer as zeros and reconstructs to the zero bias vector
    assert np.array_equal(out, np.zeros((1, 3)))


def test_mse_per_sample_matches_manual(rng):
    model = init_model(5, (3,), seed=2)
    x = rng.normal(size=(11, 5))
    recon = forward(model, x)
    expected = np.mean((recon - x) ** 2, axis=1)
    assert np.allclose(mse_per_sample(model, x), expected, rtol=0, atol=1e-15)
    assert mse_per_sample(model, np.empty((0, 5))).shape == (0,)


def loss_and_grads(model, batch):
    """(loss, weight gradients, bias gradients) of model on batch."""
    loss, grads = _loss_and_grads(model.flat, model.dims, batch)
    return (float(loss),) + _split(grads, model.dims)


def numeric_grads(model, batch, eps=1e-6):
    """Central finite differences on every parameter, split into
    (weight gradients, bias gradients)."""
    grads = np.zeros_like(model.flat)
    for i in range(model.flat.size):
        plus, minus = model.flat.copy(), model.flat.copy()
        plus[i] += eps
        minus[i] -= eps
        lp, _ = _loss_and_grads(plus, model.dims, batch)
        lm, _ = _loss_and_grads(minus, model.dims, batch)
        grads[i] = (lp - lm) / (2 * eps)
    return _split(grads, model.dims)


def relative_error(a, b):
    denom = max(np.linalg.norm(a) + np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def test_gradient_check_small_model(rng):
    model = init_model(4, (2,), seed=3)
    batch = rng.normal(size=(7, 4))
    _, gw, gb = loss_and_grads(model, batch)
    num_w, num_b = numeric_grads(model, batch)
    for a, b in zip(gw, num_w):
        assert relative_error(np.asarray(a), b) < 1e-6
    for a, b in zip(gb, num_b):
        assert relative_error(np.asarray(a), b) < 1e-6


def test_train_local_reduces_loss(rng):
    data = rng.normal(size=(128, 6)) * 0.3
    model = init_model(6, (3,), seed=4)
    cfg = TrainConfig(local_epochs=20, learning_rate=0.1, batch_size=32,
                      seed=0)
    before, _, _ = loss_and_grads(model, data)
    after_model = train_local(model, data, cfg)
    after, _, _ = loss_and_grads(after_model, data)
    assert after < before * 0.9


def test_train_local_deterministic(rng):
    data = rng.normal(size=(64, 5))
    model = init_model(5, (2,), seed=5)
    cfg = TrainConfig(local_epochs=3, learning_rate=0.05, batch_size=16,
                      seed=11)
    a = train_local(model, data, cfg)
    b = train_local(model, data, cfg)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_train_local_adam_runs_and_differs_from_sgd(rng):
    data = rng.normal(size=(64, 5))
    model = init_model(5, (2,), seed=6)
    sgd = TrainConfig(local_epochs=2, learning_rate=0.01, batch_size=16,
                      seed=0, optimizer="sgd")
    adam = TrainConfig(local_epochs=2, learning_rate=0.01, batch_size=16,
                       seed=0, optimizer="adam")
    m_sgd = train_local(model, data, sgd)
    m_adam = train_local(model, data, adam)
    assert any(not np.array_equal(a, b)
               for a, b in zip(m_sgd.weights, m_adam.weights))


def one_step(optimizer, rng):
    """One row, batch 1, one epoch: the old model, the gradients at that
    row, and the model after exactly one update."""
    model = init_model(5, (3, 2), seed=8)
    row = rng.normal(size=(1, 5))
    _, gw, gb = loss_and_grads(model, row)
    cfg = TrainConfig(local_epochs=1, learning_rate=0.05, batch_size=1,
                      seed=0, optimizer=optimizer)
    new = train_local(model, row, cfg)
    return (model.weights + model.biases, gw + gb,
            new.weights + new.biases, cfg.learning_rate)


def test_train_local_sgd_step_is_exact(rng):
    old, grads, new, lr = one_step("sgd", rng)
    for p, g, q in zip(old, grads, new):
        assert np.array_equal(q, p - lr * g)


def test_train_local_adam_first_step_is_normalized(rng):
    # after one step the bias-corrected moments are g and g**2, so Adam
    # moves every parameter by lr * g / (|g| + eps)
    old, grads, new, lr = one_step("adam", rng)
    for p, g, q in zip(old, grads, new):
        np.testing.assert_allclose(q, p - lr * g / (np.abs(g) + ADAM_EPS),
                                   rtol=1e-12, atol=0)
    assert any(np.any(g != 0) for g in grads)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_local_divergence_raises(rng):
    data = rng.normal(size=(64, 4)) * 10
    model = init_model(4, (2,), seed=7)
    cfg = TrainConfig(local_epochs=50, learning_rate=1e12, batch_size=16,
                      seed=0)
    with pytest.raises(DivergedTraining) as err:
        train_local(model, data, cfg)
    assert err.value.epoch >= 0


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(local_epochs=0, learning_rate=0.1, batch_size=8, seed=0)
    with pytest.raises(ConfigError):
        TrainConfig(local_epochs=1, learning_rate=-0.1, batch_size=8, seed=0)
    with pytest.raises(ConfigError):
        TrainConfig(local_epochs=1, learning_rate=0.1, batch_size=0, seed=0)
    with pytest.raises(ConfigError):
        TrainConfig(local_epochs=1, learning_rate=0.1, batch_size=8, seed=0,
                    optimizer="lbfgs")


def test_save_load_roundtrip(tmp_path, rng):
    model = init_model(5, (3, 2), seed=8)
    data = rng.normal(size=(32, 5))
    cfg = TrainConfig(local_epochs=2, learning_rate=0.05, batch_size=8, seed=1)
    model = train_local(model, data, cfg)
    path = tmp_path / "model.txt"
    save_model(model, path)
    back = load_model(path)
    assert back.dims == model.dims
    for wa, wb in zip(model.weights, back.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(model.biases, back.biases):
        assert np.array_equal(ba, bb)


def test_load_model_rejects_bad_header(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("not-a-model\n")
    with pytest.raises(ConfigError):
        load_model(path)


# (line number, what to write there) in a saved 3->2->3 checkpoint of nine
# lines; each case used to escape as a bare ValueError naming neither file
# nor line, or, past the last layer, to load without error
BAD_CHECKPOINT_LINES = {
    "dims_token_not_an_integer": (2, "dims 3 x 3"),
    "width_below_one": (2, "dims 3 0 3"),
    "non_numeric_cell": (4, "0.5 abc 0.25"),
    "weight_row_missing_a_cell": (4, "0.5 0.25"),
    "data_after_the_last_layer": (10, "1 2 3"),
}


@pytest.mark.parametrize("case", sorted(BAD_CHECKPOINT_LINES))
def test_load_model_names_the_file_and_line(tmp_path, case):
    line_no, text = BAD_CHECKPOINT_LINES[case]
    path = tmp_path / "model.txt"
    save_model(init_model(3, (2,), seed=0), path)
    lines = path.read_text().splitlines()
    lines[line_no - 1:line_no] = [text]  # line 10 is appended
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError,
                       match=re.escape(f"{path}: line {line_no}")):
        load_model(path)


def test_flat_vector_backs_every_layer(tmp_path):
    model = init_model(5, (3, 2), seed=0)
    assert model.dims == (5, 3, 2, 3, 5)
    assert not model.flat.flags.writeable
    assert model.flat.size == sum(p.size
                                  for p in model.weights + model.biases)
    for p in model.weights + model.biases:
        assert np.shares_memory(p, model.flat)
        assert not p.flags.writeable
    # the split, interleaved per layer, is the checkpoint's number order
    weights, biases = _split(model.flat, model.dims)
    split_order = [p for w, b in zip(weights, biases) for p in (w, b)]
    model_order = [p for w, b in zip(model.weights, model.biases)
                   for p in (w, b)]
    for got, want in zip(split_order, model_order, strict=True):
        assert got.shape == want.shape and np.array_equal(got, want)
    save_model(model, tmp_path / "model.txt")
    saved = [float(t) for line in
             (tmp_path / "model.txt").read_text().splitlines()[2:]
             for t in line.split()]
    assert saved == np.concatenate([p.ravel() for p in split_order]).tolist()


def test_split_keeps_leading_axes_in_front():
    model = init_model(5, (3, 2), seed=0)
    buffer = np.arange(4 * model.flat.size, dtype=np.float64).reshape(4, -1)
    weights, biases = _split(buffer, model.dims)
    assert [w.shape for w in weights] == [(4,) + w.shape
                                          for w in model.weights]
    assert [b.shape for b in biases] == [(4,) + b.shape
                                         for b in model.biases]
    row_w, row_b = _split(buffer[2], model.dims)
    for whole, row in zip(weights + biases, row_w + row_b):
        assert np.shares_memory(whole, buffer)
        assert np.array_equal(whole[2], row)


# ---- stacked training against the one-client-at-a-time reference ----

def reference_loss_and_grads(params, x):
    """The 2-D forward/backward pass that trained one client at a time."""
    layers = len(params) // 2
    last = layers - 1
    acts = [x]  # post-activation per layer, acts[0] is the input
    for k in range(layers):
        z = acts[k] @ params[k].T + params[layers + k]
        acts.append(z if k == last else np.maximum(z, 0.0))
    diff = acts[-1] - x
    n, d = x.shape
    loss = float(np.mean(diff * diff))
    delta = (2.0 / (n * d)) * diff
    grads = [None] * len(params)
    for k in range(last, -1, -1):
        grads[k] = delta.T @ acts[k]
        grads[layers + k] = delta.sum(axis=0)
        if k > 0:
            # acts[k] = max(z, 0), so acts[k] > 0 exactly where z > 0
            delta = (delta @ params[k]) * (acts[k] > 0.0)
    return loss, grads


def reference_train_local(model, data, cfg):
    """The per-client training loop that train_clients replaced."""
    rng = np.random.default_rng(cfg.seed)
    params = [np.array(p) for p in model.weights + model.biases]
    adam = cfg.optimizer == "adam"
    m = [np.zeros_like(p) for p in params] if adam else None
    v = [np.zeros_like(p) for p in params] if adam else None
    lr, b1, b2, eps = cfg.learning_rate, ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    t = 0
    n = data.shape[0]
    for epoch in range(cfg.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = data[order[start:start + cfg.batch_size]]
            loss, grads = reference_loss_and_grads(params, batch)
            if not math.isfinite(loss):
                raise DivergedTraining(epoch)
            t += 1
            corr1, corr2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for k, g in enumerate(grads):
                if adam:
                    m[k] = b1 * m[k] + (1 - b1) * g
                    v[k] = b2 * v[k] + (1 - b2) * g ** 2
                    step = lr * (m[k] / corr1) / (np.sqrt(v[k] / corr2) + eps)
                else:
                    step = lr * g
                params[k] -= step
    # the loss check runs before each update; catch a blow-up on the last one
    if not all(np.all(np.isfinite(p)) for p in params):
        raise DivergedTraining(cfg.local_epochs - 1)
    layers = len(model.weights)
    return ModelParams(tuple(params[:layers]), tuple(params[layers:]))


def reference_fedavg(clients, cfg, model):
    """FedAvg training the clients one by one in list order; returns the
    model, or (round, client id, epoch) of the first divergence."""
    weights = [c.train_data.shape[0] for c in clients]
    for t in range(cfg.rounds):
        cfg_t = TrainConfig(local_epochs=cfg.train_cfg.local_epochs,
                            learning_rate=cfg.train_cfg.learning_rate,
                            batch_size=cfg.train_cfg.batch_size,
                            seed=round_seed(cfg.train_cfg.seed, t),
                            optimizer=cfg.train_cfg.optimizer)
        local_models = []
        for c in clients:
            try:
                local_models.append(
                    reference_train_local(model, c.train_data, cfg_t))
            except DivergedTraining as exc:
                return t, c.client_id, exc.epoch
        model = average_params(local_models, weights)
    return model


# unsorted; batch 16: one row, fewer rows than a batch, an exact multiple,
# sizes that differ by one, and 37/21/21/5 sharing the remainder 5
RAGGED_SIZES = (5, 32, 1, 37, 21, 36, 21)


def assert_same_params(a: ModelParams, b: ModelParams):
    for x, y in zip(a.weights + a.biases, b.weights + b.biases):
        assert x.shape == y.shape
        assert np.array_equal(x, y)


def ragged_clients(rng, sizes, dim=5, scales=None):
    scales = scales or [1.0] * len(sizes)
    clients = []
    for i, (n, scale) in enumerate(zip(sizes, scales)):
        val = rng.normal(size=(4, dim))
        clients.append(ClientState(10 + i, rng.normal(size=(n, dim)) * scale,
                                   val, np.array([0, 0, 0, 1]), val,
                                   np.array([0, 0, 0, 1])))
    return clients


def architectures():
    """(optimizer, input dim, hidden dims) for the bit-for-bit tests. A
    width-1 layer sums its bias gradient pairwise, not row by row, so the
    chains 4-2-1-2-4 and 2-1-2 check that path; the 5-3-2-3-5 cases keep
    their bare optimizer ids."""
    for optimizer in ("sgd", "adam"):
        yield pytest.param(optimizer, 5, (3, 2), id=optimizer)
        for dim, hidden in ((4, (3, 2)), (4, (2, 1)), (2, (1,))):
            yield pytest.param(optimizer, dim, hidden, id=f"{optimizer}-{dim}-"
                               + "x".join(map(str, hidden)))


@pytest.mark.parametrize("optimizer, dim, hidden", architectures())
def test_train_clients_matches_reference_bit_for_bit(rng, optimizer, dim,
                                                     hidden):
    datas = [c.train_data for c in ragged_clients(rng, RAGGED_SIZES, dim)]
    model = init_model(dim, hidden, seed=9)
    cfg = TrainConfig(local_epochs=3, learning_rate=0.05, batch_size=16,
                      seed=4, optimizer=optimizer)
    stacked = train_clients(model, datas, cfg)
    assert len(stacked) == len(datas)
    for data, got in zip(datas, stacked):
        assert_same_params(got, reference_train_local(model, data, cfg))
        assert_same_params(train_local(model, data, cfg), got)


@pytest.mark.parametrize("optimizer, dim, hidden", architectures())
def test_run_fedavg_matches_reference_bit_for_bit(rng, optimizer, dim, hidden):
    clients = ragged_clients(rng, RAGGED_SIZES, dim)
    cfg = FedConfig(rounds=3,
                    train_cfg=TrainConfig(local_epochs=3, learning_rate=0.05,
                                          batch_size=16, seed=2,
                                          optimizer=optimizer),
                    model_seed=6, hidden_dims=hidden)
    expected = reference_fedavg(clients, cfg, init_model(dim, hidden, seed=6))
    assert_same_params(run_fedavg(clients, cfg), expected)


def test_train_clients_rejects_empty_input():
    model = init_model(3, (2,), seed=0)
    with pytest.raises(ConfigError, match="empty"):
        train_clients(model, [], TrainConfig())
    with pytest.raises(ConfigError, match="empty"):
        train_clients(model, [np.ones((4, 3)), np.empty((0, 3))],
                      TrainConfig())


# Under lr 1e200 a client's loss overflows on its second step, so a client
# with one batch per epoch diverges in epoch 1 and a larger one in epoch 0;
# an all-zero client has zero gradients and never diverges.
DIVERGENCE_CASES = {
    # client 11 is larger, sorted first and fails first, but sequential
    # training fails on client 10 before it reaches client 11
    "later_larger_client_fails_earlier": ((1, 40, 8), (1.0, 1.0, 0.0)),
    "only_a_later_client_fails": ((40, 5, 33), (0.0, 1.0, 0.0)),
    "all_clients_fail": ((40, 40), (1.0, 1.0)),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(DIVERGENCE_CASES))
def test_divergence_names_the_client_sequential_training_would(rng, case):
    sizes, scales = DIVERGENCE_CASES[case]
    clients = ragged_clients(rng, sizes, scales=scales)
    cfg = FedConfig(rounds=2,
                    train_cfg=TrainConfig(local_epochs=3, learning_rate=1e200,
                                          batch_size=16, seed=1),
                    model_seed=3, hidden_dims=(3, 2))
    expected = reference_fedavg(clients, cfg, init_model(5, (3, 2), seed=3))
    assert isinstance(expected, tuple), "reference training did not diverge"
    with pytest.raises(FederationError) as excinfo:
        run_fedavg(clients, cfg)
    err = excinfo.value
    assert isinstance(err.cause, DivergedTraining)
    assert (err.round_index, err.client_id, err.cause.epoch) == expected
    if case == "later_larger_client_fails_earlier":
        # the premise: alone, client 11 fails in an earlier epoch
        with pytest.raises(DivergedTraining) as alone:
            reference_train_local(init_model(5, (3, 2), seed=3),
                                  clients[1].train_data,
                                  replace(cfg.train_cfg,
                                          seed=round_seed(1, 0)))
        assert alone.value.epoch < expected[2]
