"""Dense autoencoder: forward pass, backprop, mini-batch training, checkpoints.

The model is a plain fully connected net with ReLU hidden layers and an
identity output layer, trained to reconstruct its input under per-feature
mean-squared error. Everything is numpy; models are immutable values and
training returns a new value, so a shared model can be evaluated from
multiple threads.
"""
import functools
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DivergedTraining
from .util import NON_NEGATIVE, POSITIVE, check

MODEL_FORMAT_HEADER = "fedthresh-model v1"
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class ModelParams:
    """Layered weights/biases. weights[k] has shape (out_dim, in_dim).

    `flat` holds every parameter in one read-only float64 vector: the
    weight matrices in layer order, each row-major, then the biases in
    layer order. `weights` and `biases` are views into it."""

    weights: tuple
    biases: tuple
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ConfigError("weights and biases must be non-empty and parallel")
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ConfigError(f"layer {k}: weight {w.shape} / bias {b.shape} mismatch")
            if k > 0 and w.shape[1] != self.weights[k - 1].shape[0]:
                raise ConfigError(
                    f"layer {k}: in_dim {w.shape[1]} != previous out_dim "
                    f"{self.weights[k - 1].shape[0]}"
                )
        if self.input_dim != self.weights[-1].shape[0]:
            raise ConfigError("autoencoder must reconstruct its input dimension")
        flat = np.concatenate([np.ravel(p) for p in (*self.weights, *self.biases)],
                              dtype=np.float64)
        if not np.isfinite(flat).all():
            raise ConfigError("non-finite parameter")
        flat.setflags(write=False)
        object.__setattr__(self, "flat", flat)
        for name, views in zip(("weights", "biases"), _split(flat, self.dims)):
            object.__setattr__(self, name, views)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def dims(self) -> tuple:
        """Layer size chain: (input_dim, out_dim of every layer)."""
        return (self.input_dim,) + tuple(w.shape[0] for w in self.weights)


@functools.lru_cache(maxsize=None)
def _layout(dims) -> tuple:
    """(start, end, shape) of each array of the chain `dims` in ModelParams.flat."""
    shapes = [(o, i) for i, o in zip(dims, dims[1:])] + [(o,) for o in dims[1:]]
    ends = np.cumsum([math.prod(shape) for shape in shapes]).tolist()
    return tuple(zip([0] + ends[:-1], ends, shapes))


def _split(flat, dims) -> tuple:
    """(weights, biases) of the layer chain `dims` as views into a (..., P)
    parameter buffer laid out like ModelParams.flat; leading axes stay in
    front, so a (clients, P) buffer gives (clients, out, in) weights."""
    views = tuple(flat[..., start:end].reshape(flat.shape[:-1] + shape)
                  for start, end, shape in _layout(tuple(dims)))
    return views[:len(dims) - 1], views[len(dims) - 1:]


# each TrainConfig setting's accepted values, as util.check reads them
TRAIN_SETTINGS = {"local_epochs": POSITIVE, "learning_rate": NON_NEGATIVE,
                  "batch_size": POSITIVE, "optimizer": ("sgd", "adam")}


@dataclass(frozen=True)
class TrainConfig:
    local_epochs: int = 1
    learning_rate: float = 0.01
    batch_size: int = 32
    seed: int = 0
    optimizer: str = "sgd"

    def __post_init__(self):
        for name, domain in TRAIN_SETTINGS.items():
            check(name, getattr(self, name), domain)


def default_hidden_dims(input_dim: int) -> tuple:
    """Shrinking bottleneck: d -> ceil(d/2) -> ceil(d/4)."""
    return (max(1, math.ceil(input_dim / 2)), max(1, math.ceil(input_dim / 4)))


def init_model(input_dim: int, hidden_dims, seed: int) -> ModelParams:
    """Symmetric encoder/decoder with uniform Glorot-style init, zero biases.

    Layer chain: input -> hidden_dims... -> reversed(hidden_dims[:-1]) -> input.
    """
    try:
        hidden_dims = tuple(operator.index(h) for h in hidden_dims)
    except TypeError:
        raise ConfigError(f"hidden_dims must hold integer widths, got "
                          f"{hidden_dims!r}") from None
    if not hidden_dims:
        raise ConfigError("hidden_dims must be non-empty")
    POSITIVE.check("input_dim", input_dim)
    check("hidden_dims", hidden_dims, POSITIVE)
    chain = (input_dim,) + hidden_dims + tuple(reversed(hidden_dims[:-1])) + (input_dim,)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(chain[:-1], chain[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return ModelParams(tuple(weights), tuple(biases))


def _check_batch(model: ModelParams, batch: np.ndarray) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != model.input_dim:
        raise ConfigError(
            f"batch shape {batch.shape} incompatible with input_dim {model.input_dim}"
        )
    return batch


def forward(model: ModelParams, batch: np.ndarray) -> np.ndarray:
    """Reconstruction of `batch`; ReLU hidden layers, identity output."""
    a = _check_batch(model, batch)
    last = len(model.weights) - 1
    for k, (w, b) in enumerate(zip(model.weights, model.biases)):
        # in place in the matmul's output: on a large batch, allocating
        # a fresh array per op costs more than the arithmetic
        a = a @ w.T
        a += b
        if k < last:
            np.maximum(a, 0.0, out=a)
    return a


def mse_per_sample(model: ModelParams, data: np.ndarray) -> np.ndarray:
    """Per-row reconstruction error: mean over features of squared residual."""
    data = _check_batch(model, data)
    if data.shape[0] == 0:
        return np.empty(0)
    diff = forward(model, data)
    diff -= data
    diff *= diff
    return np.mean(diff, axis=1)


class _StepSpace:
    """What every step of one group of stacked clients reuses: views of its
    (P,) or (clients, P) parameter block `flat`, a gradient buffer shaped
    like flat, and per layer a contiguous (rows, clients, width) scratch
    view for the bias gradient, or None where np.sum takes that gradient
    (no client axis, or width 1). `grads` and the 1-D `scratch` (at least
    rows * clients * widest width entries) are allocated unless given;
    spaces whose steps never overlap can share them."""

    def __init__(self, flat, dims, rows, grads=None, scratch=None):
        self.weights, self.biases = _split(flat, dims)
        self.weights_t = tuple(w.swapaxes(-1, -2) for w in self.weights)
        self.biases_r = tuple(b[..., None, :] for b in self.biases)
        self.grads = np.empty_like(flat) if grads is None else grads
        self.grad_w, self.grad_b = _split(self.grads, dims)
        clients = flat.shape[:-1]
        if clients and scratch is None:
            scratch = np.empty(rows * clients[0] * max(dims[1:]))
        self.rowwise = tuple(
            scratch[:rows * clients[0] * w].reshape(rows, clients[0], w)
            if clients and w > 1 else None for w in dims[1:])


def _loss_and_grads(flat, dims, x, space=None):
    """Loss and gradients for the parameter vector `flat` of the layer
    chain `dims`; the gradients come back as one array laid out like flat.

    flat may carry a leading client axis: x of shape (clients, n, d) with
    flat of shape (clients, P) gives one loss per client. Each client's
    slice gets the float ops that its 2-D arrays alone would get, in the
    same order.

    `space` is flat's _StepSpace for n rows, built here if not given; the
    gradients it returns are space.grads, overwritten by its next call.
    Bias add and ReLU run in place in each matmul's output. A bias
    gradient adds the rows one after another, row 0 first, as the 2-D
    `delta.sum(axis=0)` does; with a client axis, delta is copied to the
    (rows, clients, width) scratch and reduced over its first axis, so each
    add spans every client. Width-1 layers keep np.sum: numpy drops the
    size-1 axis and sums the rows pairwise, in 2-D and stacked alike.
    """
    if space is None:
        space = _StepSpace(flat, dims, x.shape[-2])
    last = len(dims) - 2
    acts = [x]  # post-activation per layer, acts[0] is the input
    for k in range(last + 1):
        z = acts[k] @ space.weights_t[k]
        z += space.biases_r[k]
        if k < last:
            np.maximum(z, 0.0, out=z)
        acts.append(z)
    diff = acts.pop()
    diff -= x
    n, d = x.shape[-2:]
    loss = np.mean(diff * diff, axis=(-2, -1))
    delta = diff
    delta *= 2.0 / (n * d)
    for k in range(last, -1, -1):
        np.matmul(delta.swapaxes(-1, -2), acts[k], out=space.grad_w[k])
        rowwise = space.rowwise[k]
        if rowwise is None:
            np.sum(delta, axis=-2, out=space.grad_b[k])
        else:
            np.copyto(rowwise.swapaxes(0, 1), delta)
            np.add.reduce(rowwise, axis=0, out=space.grad_b[k])
        if k > 0:
            # acts[k] = max(z, 0), so acts[k] > 0 exactly where z > 0
            delta = delta @ space.weights[k]
            delta *= acts[k] > 0.0
    return loss, space.grads


def train_local(model: ModelParams, data: np.ndarray, cfg: TrainConfig) -> ModelParams:
    """Mini-batch SGD or Adam on MSE for cfg.local_epochs epochs.

    Deterministic for a fixed cfg.seed (epoch shuffles come from one
    generator). Raises DivergedTraining with the failing epoch index when
    the loss goes non-finite.
    """
    return train_clients(model, [data], cfg)[0][0]


def _batch_schedule(sizes, batch_size: int) -> list:
    """One epoch's steps for clients sorted largest first, as (lo, hi,
    start, rows): clients lo..hi-1 train on rows start..start+rows-1 of
    their permutation. The clients with a full batch at a step are a
    prefix; a final partial batch runs grouped with the clients of the
    same size, so no step holds padding rows."""
    schedule = []
    for start in range(0, sizes[0], batch_size):
        full = sum(n >= start + batch_size for n in sizes)
        if full:
            schedule.append((0, full, start, batch_size))
        lo = full
        while lo < len(sizes) and sizes[lo] > start:
            hi = lo + sizes[lo:].count(sizes[lo])
            schedule.append((lo, hi, start, sizes[lo] - start))
            lo = hi
    return schedule


def train_clients(model: ModelParams, datas, cfg: TrainConfig) -> tuple:
    """train_local for every client at once: (models, last_epoch_mse) in
    datas' order, with each client's mean step loss over its last epoch.

    All clients start from `model` and share cfg. Their parameters (and
    Adam moments) sit on a leading client axis, so a step is one batched
    matmul for every client with a batch at that step. Each client keeps
    its own shuffle generator, step count and float ops, so its result is
    bit-identical to training it alone. Raises DivergedTraining for the
    first client in list order that would fail alone: the first epoch with
    a non-finite loss, or the last epoch if its final parameters are
    non-finite.

    Each (lo, hi, rows) group of the batch schedule builds one _StepSpace
    at its first step; its views follow params[lo:hi] as updates change
    it, and all groups share one gradient buffer and one scratch. A bias
    gradient adds a client's rows in row order, pairwise on width-1
    layers, as training it alone does (see _loss_and_grads). The update
    runs in place in the gradient buffer, with the ops of the
    out-of-place formula in the same order; Adam's bias corrections come
    from one table per call, indexed by step count.
    """
    datas = [_check_batch(model, d) for d in datas]
    if not datas or any(d.shape[0] == 0 for d in datas):
        raise ConfigError("training data is empty")
    order = sorted(range(len(datas)), key=lambda i: -datas[i].shape[0])
    sizes = [datas[i].shape[0] for i in order]
    offsets = np.cumsum([0] + sizes[:-1])
    pool = np.concatenate([datas[i] for i in order])
    rngs = [np.random.default_rng(cfg.seed) for _ in order]
    schedule = _batch_schedule(sizes, cfg.batch_size)
    dims = model.dims
    params = np.repeat(model.flat[None], len(order), axis=0)
    adam = cfg.optimizer == "adam"
    # Adam's first and second moments; SGD skips them, because on a small
    # client allocating them is a measurable share of its training
    m = np.zeros_like(params) if adam else None
    v = np.zeros_like(params) if adam else None
    adam_tmp = np.empty_like(params) if adam else None
    lr, b1, b2, eps = cfg.learning_rate, ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    t = np.zeros(len(order), dtype=np.int64)
    if adam:
        # Adam's bias corrections by step count, from Python's float
        # power; numpy's power of an int array rounds differently
        most = cfg.local_epochs * -(-sizes[0] // cfg.batch_size)
        corr1 = np.array([1.0 - b1 ** s for s in range(most + 1)])[:, None]
        corr2 = np.array([1.0 - b2 ** s for s in range(most + 1)])[:, None]
    spaces = {}  # (lo, hi, rows) -> _StepSpace
    # the steps run one at a time, so every space shares these buffers; a
    # step holds at most min(batch_size, n) rows of each client
    grads = np.empty_like(params)
    scratch = np.empty(sum(min(cfg.batch_size, n) for n in sizes)
                       * max(dims[1:]))
    diverged = {}  # list index -> first epoch with a non-finite loss
    perm = np.empty((len(order), sizes[0]), dtype=np.intp)  # rows of pool
    loss_sums = np.zeros(len(order))  # last epoch's loss x rows, in order
    for epoch in range(cfg.local_epochs):
        for j, (rng, n) in enumerate(zip(rngs, sizes)):
            perm[j, :n] = offsets[j] + rng.permutation(n)
        for lo, hi, start, rows in schedule:
            space = spaces.get((lo, hi, rows))
            if space is None:
                space = spaces[lo, hi, rows] = _StepSpace(
                    params[lo:hi], dims, rows, grads[lo:hi], scratch)
            batch = np.take(pool, perm[lo:hi, start:start + rows], axis=0)
            loss, step = _loss_and_grads(params[lo:hi], dims, batch, space)
            for j in np.flatnonzero(~np.isfinite(loss)):
                diverged.setdefault(order[lo + j], epoch)
            if epoch == cfg.local_epochs - 1:
                loss_sums[lo:hi] += loss * rows
            t[lo:hi] += 1
            if adam:
                # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g², then
                # params -= lr (m / corr1) / (sqrt(v / corr2) + eps),
                # each op in place and in that order
                mk, vk, tmp = m[lo:hi], v[lo:hi], adam_tmp[lo:hi]
                mk *= b1
                np.multiply(step, 1 - b1, out=tmp)
                mk += tmp
                vk *= b2
                np.square(step, out=tmp)
                tmp *= 1 - b2
                vk += tmp
                np.divide(mk, corr1[t[lo:hi]], out=step)
                step *= lr
                np.divide(vk, corr2[t[lo:hi]], out=tmp)
                np.sqrt(tmp, out=tmp)
                tmp += eps
                step /= tmp
            else:
                step *= lr
            params[lo:hi] -= step
    # the loss check runs before each update; catch a blow-up on the last one
    for j in np.flatnonzero(~np.isfinite(params).all(axis=1)):
        diverged.setdefault(order[j], cfg.local_epochs - 1)
    if diverged:
        first = min(diverged)
        raise DivergedTraining(diverged[first], client=first)
    rows_of = np.argsort(order)  # row j of params is client order[j]
    return ([ModelParams(*_split(params[j], dims)) for j in rows_of],
            (loss_sums / sizes)[rows_of].tolist())


def save_model(model: ModelParams, path) -> None:
    """Write the versioned text checkpoint (17 significant digits)."""
    lines = [MODEL_FORMAT_HEADER, "dims " + " ".join(str(d) for d in model.dims)]
    for w, b in zip(model.weights, model.biases):
        for row in w:
            lines.append(" ".join(f"{x:.17g}" for x in row))
        lines.append(" ".join(f"{x:.17g}" for x in b))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def load_model(path) -> ModelParams:
    """Read a checkpoint written by save_model; bit-exact round trip."""
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if not lines or lines[0] != MODEL_FORMAT_HEADER:
        raise ConfigError(f"{path}: not a {MODEL_FORMAT_HEADER} checkpoint")
    if len(lines) < 2 or not lines[1].startswith("dims "):
        raise ConfigError(f"{path}: missing dims line")
    try:
        dims = [int(t) for t in lines[1].split()[1:]]
    except ValueError as exc:
        raise ConfigError(f"{path}: line 2: {exc}") from None
    if len(dims) < 2 or min(dims) < 1:
        raise ConfigError(f"{path}: line 2: dims needs at least two widths, "
                          f"each >= 1, got {dims}")
    # entries per line: each layer's fan_out weight rows, then its bias row
    want = [n for i, o in zip(dims, dims[1:]) for n in [i] * o + [o]]
    if len(lines) != 2 + len(want):
        raise ConfigError(f"{path}: line {min(len(lines), 2 + len(want)) + 1}: "
                          f"dims {dims} need {2 + len(want)} lines, got {len(lines)}")
    rows = []
    for no, (line, n) in enumerate(zip(lines[2:], want), start=3):
        try:
            rows.append([float(t) for t in line.split()])
        except ValueError as exc:
            raise ConfigError(f"{path}: line {no}: {exc}") from None
        if len(rows[-1]) != n:
            raise ConfigError(f"{path}: line {no} has {len(rows[-1])} "
                              f"entries, expected {n}")
    weights, biases, k = [], [], 0
    for fan_out in dims[1:]:
        weights.append(np.array(rows[k:k + fan_out]))
        biases.append(np.array(rows[k + fan_out]))
        k += fan_out + 1
    return ModelParams(tuple(weights), tuple(biases))
