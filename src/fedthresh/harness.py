"""Config-driven experiment runner.

A scenario is a pure function of its ScenarioConfig: build (or load) a
dataset, split, scale, partition onto clients, FedAvg-train one shared
model, compute every requested threshold method, and score per-client and
pooled F1 on held-out test data. Thresholds are always selected on
validation errors and reported on test errors.

Timing discipline: wall_time_ms covers threshold computation and
aggregation only, never data handling or model training, and timing lives
in timing.csv so results.csv stays byte-reproducible.
"""
import hashlib
import json
import time
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .autoencoder import (TRAIN_SETTINGS, TrainConfig, mse_per_sample,
                          save_model)
from .data import (SCALE_METHODS, SPLIT_NAMES, apply_scaler, check_fractions,
                   corrupt, fit_scaler, load_csv, partition_even,
                   partition_noniid, partition_random, split, synth,
                   synth_blobs, write_plan)
from .error_stats import (ERROR_CAP, FEATURE_CAP, ClassSummaries, ErrorSummary,
                          aggregate, summarize)
from .errors import AuditError, ConfigError, InsufficientTail, StageError
from .federation import Channel, ClientState, FedConfig, run_fedavg, \
    write_round_log
from .metrics import (STAT_FEATURE_COLUMNS, collect_stat_features,
                      correlation_matrix, f1_scores, sort_errors)
# not called here any more; perfbench/tracing.py replaces these attributes
# by name, so they stay importable from this module
from .metrics import confusion, f1_curve  # noqa: F401
from .thresholds import classify  # noqa: F401
from .thresholds import (METHOD_TAGS, fed_filtered, fed_minmax, fed_mse_std,
                         iqr, kqe, largest_mse, local_minmax, local_mse_std,
                         local_simple, our_method, percentile, pot)
from .util import (FINITE, NON_NEGATIVE, PERCENT, POSITIVE, SEVERAL, UNIT,
                   check, check_dataclass, check_fields, derive_seed)


@dataclass(frozen=True)
class Method:
    """client(work, cfg, params) turns one client's _ClientWork into its
    upload, of channel kind `upload`; a label-blind step reads
    `work.normal` alone. server(uploads, client_eval, cfg, params) turns
    the uploads, and the F1 vectors that client_eval gathers for a grid,
    into the shared threshold; without one, each client keeps its own.
    `params`: each method_params key and the Range it must lie in."""

    client: Callable
    upload: str
    server: Callable | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        # client_eval alone sends these kinds, one F1 vector per grid, and
        # audit_channel relies on that pairing
        if self.upload in ("candidates", "f1_scores"):
            raise AuditError(f"upload kind {self.upload!r} is reserved for "
                             "client_eval")


def _class_summaries(work, cfg, params):
    anomalous = work.errors[work.client.val_labels == 1]
    return ClassSummaries(summarize(work.normal),
                          summarize(anomalous) if anomalous.size else None)


def _fed_minmax_server(uploads, client_eval, cfg, params):
    lows, highs = zip(*uploads)
    return fed_minmax(min(lows), max(highs), cfg.n_candidates, client_eval)


def _mean_plus_std(work, cfg, params):
    s = summarize(work.errors)
    return s.mean + np.sqrt(s.variance)


def _local_minmax_client(work, cfg, params):
    errors, labels = work.errors, work.client.val_labels
    if np.any(labels == 1):
        return local_minmax(errors, labels, cfg.n_candidates, work.view)
    # no anomalies: every threshold scores F1 = 0 locally; the max error
    # at least predicts nothing falsely
    warnings.warn(f"client {work.client.client_id} holds no anomalies; "
                  "local_minmax falls back to max(errors)")
    return float(errors.max())


def _pot_client(work, cfg, params):
    try:
        return pot(work.normal, **params)
    except InsufficientTail as exc:
        warnings.warn(f"client {work.client.client_id}: thin tail, pot falls "
                      f"back to the {exc.u_quantile:.0%} percentile")
        return local_simple(percentile, work.normal,
                            {"p": exc.u_quantile * 100.0})


# fed_minmax's extremes are error samples, so it is outside the summary
# contract.
METHODS = {
    "our_method": Method(_class_summaries, "summary_stats",
                         lambda uploads, client_eval, cfg, _: our_method(
                             uploads, client_eval, cfg.n_candidates)),
    "fed_minmax": Method(lambda work, *_: (float(work.errors.min()),
                                           float(work.errors.max())),
                         "error_range", _fed_minmax_server),
    "fed_mse_std": Method(lambda work, *_: summarize(work.errors),
                          "summary_stats",
                          lambda uploads, *_: fed_mse_std(uploads)),
    "fed_filtered": Method(_mean_plus_std, "summary_stats",
                           lambda uploads, _, cfg, params:
                           fed_filtered(uploads, **params),
                           {"z_cut": POSITIVE}),
    "local_minmax": Method(_local_minmax_client, "local_threshold"),
    "kqe": Method(lambda work, _, params: kqe(work.normal, **params),
                  "local_threshold",
                  params={"q": UNIT,
                          "bandwidth": replace(NON_NEGATIVE, nullable=True)}),
    "iqr": Method(lambda work, _, params: local_simple(
        iqr, work.normal, params), "local_threshold"),
    "percentile": Method(lambda work, _, params: local_simple(
        percentile, work.normal, params), "local_threshold",
        params={"p": PERCENT}),
    "largest_mse": Method(lambda work, _, params: local_simple(
        largest_mse, work.normal, params), "local_threshold"),
    "pot": Method(_pot_client, "local_threshold",
                  params={"u_quantile": UNIT, "risk": UNIT}),
    "local_mse_std": Method(lambda work, _, params: local_simple(
        local_mse_std, work.normal, params), "local_threshold"),
}

# the summary protocol, whose uploads audit_channel checks
AUDITED_METHODS = tuple(tag for tag, m in METHODS.items()
                        if m.upload == "summary_stats")


def _method_kwargs(tag, given) -> dict:
    """One method's method_params as keyword arguments, checked against
    the method's parameter ranges; a numeric string is read by float()."""
    if tag not in METHODS:
        raise ConfigError(f"method_params: unknown method {tag!r}")
    if not isinstance(given, dict):
        raise ConfigError(f"method_params[{tag!r}] must be a mapping")
    ranges = METHODS[tag].params
    kwargs = {}
    for key, value in given.items():
        if key not in ranges:
            raise ConfigError(f"method_params[{tag!r}]: unknown key {key!r}; "
                              f"{tag} takes {list(ranges)}")
        try:
            value = float(value) if isinstance(value, str) else value
        except ValueError:
            raise ConfigError(f"method_params[{tag!r}] values must be "
                              f"numbers, got {given!r}") from None
        ranges[key].check(f"method_params[{tag!r}][{key!r}]", value)
        kwargs[key] = None if value is None else float(value)
    return kwargs


# Each entry calls through this module's globals when it runs, as METHODS
# does, so replacing `harness.synth` (say) reaches every later load. A load
# returns arrays that nothing else holds: the scale stage scales the
# features in place.
# kind -> (load(spec, seed), spec key -> type, spec key -> the Range its
# value, or each entry of a tuple value, must lie in)
DATASET_KINDS = {
    "synth": (lambda spec, seed: synth(**spec, seed=seed),
              {"num_normal": int, "num_anomaly": int, "dim": int,
               "separation": float},
              {"num_normal": POSITIVE, "num_anomaly": SEVERAL,
               "dim": POSITIVE, "separation": FINITE}),
    "blobs": (lambda spec, seed: synth_blobs(**spec, seed=seed),
              {"num_normal": int, "anomaly_blob_sizes": tuple[int, ...],
               "dim": int, "separations": tuple[float, ...]},
              {"num_normal": POSITIVE, "anomaly_blob_sizes": NON_NEGATIVE,
               "dim": POSITIVE, "separations": FINITE}),
    "csv": (lambda spec, seed: load_csv(**spec),
            {"path": str, "label_column": str, "positive_label": str}, {}),
}

# scheme -> partition(dataset, splits, cfg)
PARTITIONS = {
    "even": lambda ds, splits, cfg: partition_even(
        ds, splits, cfg.num_clients, cfg.partition_seed),
    "noniid_kmeans": lambda ds, splits, cfg: partition_noniid(
        ds, splits, cfg.num_clients, cfg.noniid_k, cfg.partition_seed),
    "random": lambda ds, splits, cfg: partition_random(
        ds, splits, cfg.num_clients, cfg.partition_seed, cfg.concentration),
}


# Each setting's accepted values: a Range, or a tuple of choices (of each
# entry, for a tuple). TrainConfig, FedConfig, split and the rest check the
# same objects; the other five fields have rules in __post_init__.
SETTINGS = {
    "scheme": tuple(PARTITIONS), "num_clients": POSITIVE, "rounds": POSITIVE,
    **TRAIN_SETTINGS, "scale_method": SCALE_METHODS, "train_frac": UNIT,
    "val_frac": UNIT, "methods": METHOD_TAGS, "n_candidates": SEVERAL,
    "concentration": POSITIVE, "noniid_k": POSITIVE,
    "noise_sigma_scale": NON_NEGATIVE,
    **dict.fromkeys(("data_seed", "model_seed", "partition_seed",
                     "train_seed", "corruption_seed"), NON_NEGATIVE),
}


def _distinct(name: str, values):
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ConfigError(f"{name} lists {repeated} more than once")
    return values


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a run depends on; hashable to bind result rows to it."""

    dataset: dict
    scheme: str = "even"
    num_clients: int = 6
    rounds: int = 5
    local_epochs: int = 1
    learning_rate: float = 0.05
    batch_size: int = 64
    optimizer: str = "sgd"
    hidden_dims: tuple[int, ...] | None = None
    scale_method: str = "minmax"
    train_frac: float = 0.6
    val_frac: float = 0.2
    methods: tuple[str, ...] = METHOD_TAGS
    n_candidates: int = 1000
    concentration: float = 0.5
    noniid_k: int | None = None
    corrupt_client_ids: tuple[int, ...] = ()
    noise_sigma_scale: float = 2.0
    method_params: dict = field(default_factory=dict)
    data_seed: int = 1
    model_seed: int = 2
    partition_seed: int = 3
    train_seed: int = 4
    corruption_seed: int = 5
    scenario_id: str = ""

    def __post_init__(self):
        check_dataclass(self, SETTINGS)
        for name in ("methods", "hidden_dims", "corrupt_client_ids"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, tuple(getattr(self, name)))
        # the rules that relate fields, or that no Range states
        if "kind" not in self.dataset:
            raise ConfigError("dataset must be a mapping with a 'kind' key")
        if self.noniid_k is not None and self.scheme != "noniid_kmeans":
            raise ConfigError(f"noniid_k applies only to scheme "
                              f"'noniid_kmeans', not {self.scheme!r}")
        check_fractions(self.train_frac, self.val_frac)
        if not self.methods:
            raise ConfigError("methods must name at least one method, got []")
        _distinct("methods", self.methods)
        if self.hidden_dims is not None and \
                min(self.hidden_dims, default=0) not in POSITIVE:
            raise ConfigError(f"hidden_dims must be non-empty widths in "
                              f"{POSITIVE}, got {list(self.hidden_dims)}")
        outside = [c for c in self.corrupt_client_ids
                   if not 0 <= c < self.num_clients]
        if outside:
            raise ConfigError(f"corrupt_client_ids {outside} outside "
                              f"[0, {self.num_clients})")
        for tag, given in self.method_params.items():
            _method_kwargs(tag, given)
        # written unquoted into every CSV row
        if any(c in self.scenario_id for c in ',"\r\n'):
            raise ConfigError(f"scenario_id must not hold a comma, quote, "
                              f"CR or LF, got {self.scenario_id!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        return cls(**raw)

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"{path}: no such config file") from None
        except ValueError as exc:  # JSONDecodeError, bad UTF-8, huge ints
            raise ConfigError(f"{path}: invalid JSON ({exc})") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        """The fields as JSON reads them back: every tuple a list."""
        return json.loads(json.dumps(vars(self)))

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]

    @property
    def effective_id(self) -> str:
        return self.scenario_id or f"scn-{self.config_hash()}"


@dataclass(frozen=True)
class ResultRow:
    scenario_id: str
    method: str
    client_id: str  # "global" or a decimal client index
    split: str
    f1: float
    threshold: float
    wall_time_ms: float
    config_hash: str


@dataclass
class MethodResult:
    tag: str
    global_theta: float
    client_thetas: list
    global_ms: float
    client_ms: list
    uploads: list


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def _build_dataset(cfg: ScenarioConfig):
    spec = dict(cfg.dataset)
    kind = spec.pop("kind")
    check("dataset.kind", kind, tuple(DATASET_KINDS))
    load, key_types, ranges = DATASET_KINDS[kind]
    if set(spec) != set(key_types):
        raise ConfigError(f"dataset kind {kind!r} takes keys "
                          f"{list(key_types)}, got {list(spec)}")
    check_fields(spec, key_types, ranges, "dataset.")
    if kind == "blobs":  # split gives val and test an anomaly each
        check("dataset.anomaly_blob_sizes total",
              sum(spec["anomaly_blob_sizes"]), SEVERAL)
    return load(spec, cfg.data_seed)


def build_client_states(plan, dataset, splits):
    """One ClientState per client, holding a copy of its rows of dataset."""
    clients = []
    for cid in range(plan.num_clients):
        train, val, test = (rows[plan.client_indices(name, cid)]
                            for name, rows in zip(SPLIT_NAMES, splits))
        clients.append(ClientState(
            cid, dataset.features[train], dataset.features[val],
            dataset.labels[val], dataset.features[test], dataset.labels[test]))
    return clients


def _scale(dataset, splits, method):
    """The whole dataset scaled by a scaler fit on its training rows, in
    place: the pipeline alone holds the loaded array. A scaled validation
    feature beyond FEATURE_CAP is refused, naming its column: its errors
    would overflow the summaries."""
    scaled = apply_scaler(dataset, fit_scaler(dataset.features[splits[0]],
                                              method), out=dataset.features)
    val = scaled.features[splits[1]]
    peaks = np.maximum(val.max(axis=0, initial=0.0),
                       -val.min(axis=0, initial=0.0))
    for name, peak in zip(scaled.feature_names, peaks):
        if peak > FEATURE_CAP:
            raise ConfigError(f"validation feature column {name!r} reaches "
                              f"{peak:g} once scaled, beyond {FEATURE_CAP:g}")
    return scaled


def _apply_corruption(cfg: ScenarioConfig, levels, clients):
    """Each client that some level corrupts, corrupted once."""
    ids = {i for level in levels for i in level.corrupt_client_ids}
    return [corrupt(c, cfg.noise_sigma_scale, cfg.corruption_seed)
            if c.client_id in ids else c for c in clients]


def _train(cfg: ScenarioConfig, clients, channel, round_log):
    train_cfg = TrainConfig(seed=cfg.train_seed, **{
        name: getattr(cfg, name) for name in TRAIN_SETTINGS})
    return run_fedavg(clients, FedConfig(cfg.rounds, train_cfg,
                                         cfg.hidden_dims, cfg.model_seed),
                      channel=channel, round_log=round_log)


class _ClientWork:
    """One client state's threshold-stage work under one model, and the
    one input of every method's client step: its validation errors, their
    normal-labelled subset (all a label-blind step reads), their sorted
    view, its sorted test errors and each method's upload, each computed
    on first use. An upload is kept only if computing it showed no
    warning, so a step that warned runs, and warns, again at each call."""

    def __init__(self, model, client):
        self.model = model
        self.client = client
        self._steps = {}

    @cached_property
    def errors(self):
        errors = mse_per_sample(self.model, self.client.val_data)
        if np.max(errors, initial=0.0) > ERROR_CAP:
            raise ConfigError(f"validation errors reach {errors.max():g}")
        return errors

    @cached_property
    def normal(self):
        return self.errors[self.client.val_labels == 0]

    @cached_property
    def view(self):
        return sort_errors(self.errors, self.client.val_labels)

    @cached_property
    def test_view(self):
        return sort_errors(mse_per_sample(self.model, self.client.test_data),
                           self.client.test_labels)

    def step(self, method, tag, cfg, params):
        """This client's upload for `tag`. Whether the step warned is read
        off warnings.showwarning: catch_warnings would reset every module's
        once-per-location registry."""
        if tag in self._steps:
            return self._steps[tag]
        shown, warned = warnings.showwarning, []

        def observe(*args, **kwargs):
            warned.append(args)
            shown(*args, **kwargs)
        warnings.showwarning = observe
        try:
            upload = method.client(self, cfg, params)
        finally:
            warnings.showwarning = shown
        if not warned:
            self._steps[tag] = upload
        return upload


def _timed_per_client(fn, client_ms):
    out = []
    for i in range(len(client_ms)):
        started = time.perf_counter()
        out.append(fn(i))
        client_ms[i] += (time.perf_counter() - started) * 1000.0
    return out


def _wire(payload) -> list:
    """What one upload puts on the wire, one entry per message: the fields
    of each ErrorSummary it holds, else the payload itself."""
    if isinstance(payload, ClassSummaries):
        return [tuple(vars(s).values())
                for s in (payload.normal, payload.anomaly) if s is not None]
    return [tuple(vars(payload).values()) if isinstance(payload, ErrorSummary)
            else payload]


def _compute_method(tag, cfg, work, channel: Channel) -> MethodResult:
    """Run one method over one _ClientWork per client: every client step
    (an upload the work kept is reused), each upload logged at its
    measured size, then the server step on the uploads alone."""
    method = METHODS[tag]
    params = _method_kwargs(tag, cfg.method_params.get(tag, {}))
    client_ms = [0.0] * len(work)
    started = time.perf_counter()

    def send(direction, kind, payload, cid):
        channel.record(direction, kind, np.size(payload), cid, context=tag)

    uploads = _timed_per_client(
        lambda i: work[i].step(method, tag, cfg, params), client_ms)
    for i, payload in enumerate(uploads):
        for part in _wire(payload):
            send("upload", method.upload, part, i)

    def client_eval(candidates):
        rows = _timed_per_client(
            lambda i: work[i].view.f1_scores(candidates), client_ms)
        for i, row in enumerate(rows):
            send("broadcast", "candidates", candidates, i)
            send("upload", "f1_scores", row, i)
        return np.vstack(rows)

    if method.server is None:  # local: the global row reports the mean
        theta, thetas = float(np.mean(uploads)), uploads
    else:
        theta = method.server(uploads, client_eval, cfg, params)
        thetas = [theta] * len(uploads)
    global_ms = (time.perf_counter() - started) * 1000.0
    return MethodResult(tag, float(theta), [float(t) for t in thetas],
                        global_ms, client_ms, uploads)


def _compute_methods(cfg, work, channel):
    """Every configured method over `work`. The validation errors are
    computed first, so their forward passes count to no single method."""
    for w in work:
        w.errors
    return [_compute_method(tag, cfg, work, channel) for tag in cfg.methods]


def _evaluate(cfg, method_results, work):
    """Per-client and pooled test F1 at each method's threshold(s).

    The "global" row pools every client's test confusion at that client's
    deployed threshold (shared for federated methods, per-client for local
    ones); its threshold column carries the shared or mean threshold.
    Each client's confusions at every method's threshold come from one
    binary search into its sorted test errors, and every F1 from one
    f1_scores call.
    """
    thetas = np.array([mr.client_thetas for mr in method_results])
    # (tp, fp, tn, fn) x clients x methods
    counts = np.stack([w.test_view.confusion_counts(thetas[:, i])
                       for i, w in enumerate(work)], axis=1)
    # methods x (pooled, then each client)
    scores = f1_scores(np.concatenate(
        [counts.sum(axis=1, keepdims=True), counts], axis=1)).T.tolist()
    scenario_id, config_hash = cfg.effective_id, cfg.config_hash()
    rows = []
    for mr, (pooled, *per_client) in zip(method_results, scores):
        rows.append(ResultRow(scenario_id, mr.tag, "global", "test", pooled,
                              mr.global_theta, mr.global_ms, config_hash))
        rows += [ResultRow(scenario_id, mr.tag, str(i), "test", score, theta,
                           ms, config_hash)
                 for i, (score, theta, ms) in enumerate(zip(
                     per_client, mr.client_thetas, mr.client_ms))]
    return rows


def _pipeline(cfg: ScenarioConfig, levels):
    """Load through train once for `cfg`, threshold and evaluate per level,
    then audit: (model, plan, channel, round_log, [(clients, results, rows)]).

    Split yields row indices, scale scales the loaded features in place
    (the data is checked at load and once scaled), and each client gathers
    its rows, so one full-size feature array is alive until then.

    A level is `cfg` with its own corrupt_client_ids and scenario_id.
    Corruption touches validation data only, so the model trains once, on
    the clean clients, and serves every level. Each client has two states,
    clean and corrupted: corruption runs once, at the union of the levels'
    ids, and a level reads the corrupted state of its own ids and the
    clean state of the rest. That equals corrupting its ids alone, as a
    client's noise depends only on its id and the corruption seed; test
    data is never corrupted, so every level scores on the clean test
    errors. Each state's validation errors, their sorted view and each
    client step that showed no warning are computed once per call, and a
    client that corruption leaves unchanged (noise scale 0) has one state.
    A step that warned runs again at each level, so its warnings pass the
    filters as any other does and its wall_time_ms covers the rerun.
    Every level still sends every upload and computes its own server
    steps, F1 rows and test confusions; a reused step adds only its
    lookup to wall_time_ms.
    """
    dataset = _stage("load", _build_dataset, cfg)
    splits = _stage("split", split, dataset, cfg.train_frac, cfg.val_frac,
                    derive_seed(cfg.data_seed, 1))
    dataset = _stage("scale", _scale, dataset, splits, cfg.scale_method)
    plan = _stage("partition", PARTITIONS[cfg.scheme], dataset, splits, cfg)
    clients = _stage("partition", build_client_states, plan, dataset, splits)
    del dataset, splits  # each client holds a copy of its rows
    corrupted = _stage("corrupt", _apply_corruption, cfg, levels, clients)
    channel, round_log = Channel(), []
    model = _stage("train", _train, cfg, clients, channel, round_log)
    clean = [_ClientWork(model, c) for c in clients]
    noisy = [w if c is w.client else _ClientWork(model, c)
             for w, c in zip(clean, corrupted)]
    runs = []
    for level in levels:
        work = [noisy[i] if i in level.corrupt_client_ids else w
                for i, w in enumerate(clean)]
        method_results = _stage("threshold", _compute_methods, level, work,
                                channel)
        rows = _stage("evaluate", _evaluate, level, method_results, clean)
        runs.append(([w.client for w in work], method_results, rows))
    audit_channel(channel, cfg.num_clients, cfg.rounds)
    return model, plan, channel, round_log, runs


def _write_training(out_dir, round_log, plan) -> Path:
    """fedavg_rounds.csv and partition_plan.csv; returns the directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _stage("report", write_round_log, round_log, out / "fedavg_rounds.csv")
    _stage("report", write_plan, plan, out / "partition_plan.csv")
    return out


def train_model(cfg: ScenarioConfig, out_dir=None):
    """Data prep + FedAvg, with no threshold level, so nothing is corrupted;
    optionally saves the model, round log and partition plan."""
    model, plan, _, round_log, _ = _pipeline(cfg, [])
    if out_dir is not None:
        out = _write_training(out_dir, round_log, plan)
        _stage("report", save_model, model, out / "model.txt")
    return model, round_log


def run_scenario(cfg: ScenarioConfig, out_dir=None, artifacts=None):
    """Execute one scenario; returns its ResultRows.

    Any failure surfaces as StageError naming the stage, and a channel
    that breaks the privacy contract as AuditError; nothing is written
    unless every stage and the audit succeeded. Pass a dict as `artifacts`
    to receive internals (model, channel, plan, clients, round log, and
    each method's client uploads under "uploads").
    """
    model, plan, channel, round_log, [(clients, method_results, rows)] = \
        _pipeline(cfg, [cfg])
    if artifacts is not None:
        artifacts.update(model=model, channel=channel, plan=plan,
                         clients=clients, round_log=round_log,
                         uploads={mr.tag: mr.uploads for mr in method_results})
    if out_dir is not None:
        _stage("report", emit_report, rows, out_dir, cfg=cfg)
        _write_training(out_dir, round_log, plan)
    return rows


def audit_channel(channel: Channel, num_clients: int, rounds: int,
                  methods=AUDITED_METHODS):
    """Raise AuditError unless the channel traffic matches the privacy
    contract.

    FedAvg synchronizes exactly twice per client per round. For the
    summary-protocol methods, clients upload only fixed-size statistics
    records (size <= 5) and F1 vectors, the server broadcasts only
    candidate grids, and each client's n-th F1 vector has the size of the
    n-th grid broadcast to it, so no other vector can pass as F1 scores.
    """
    fedavg = channel.count(context="fedavg")
    expected = 2 * num_clients * rounds
    if fedavg != expected:
        raise AuditError(f"FedAvg exchanged {fedavg} messages, expected "
                         f"2*{num_clients}*{rounds} = {expected}")
    for tag in methods:
        sent = channel.select(context=tag)
        kinds = {m.kind for m in sent if m.direction == "upload"}
        if not kinds <= {"summary_stats", "f1_scores"}:
            raise AuditError(f"{tag} uploaded {sorted(kinds)}; only "
                             "summary_stats and f1_scores are allowed")
        kinds = {m.kind for m in sent if m.direction == "broadcast"}
        if not kinds <= {"candidates"}:
            raise AuditError(f"{tag} broadcast {sorted(kinds)}; only "
                             "candidates are allowed")
        grids, scores = {}, {}
        for m in sent:
            if m.kind == "summary_stats" and m.size > 5:
                raise AuditError(f"{tag} summary payload of size {m.size} "
                                 "is not a fixed-size statistic")
            if m.kind in ("candidates", "f1_scores"):
                sizes = grids if m.kind == "candidates" else scores
                sizes.setdefault(m.client_id, []).append(m.size)
        for cid in sorted(grids.keys() | scores.keys()):
            if scores.get(cid, []) != grids.get(cid, []):
                raise AuditError(f"{tag} client {cid} uploaded f1_scores of "
                                 f"sizes {scores.get(cid, [])} for candidate "
                                 f"grids of sizes {grids.get(cid, [])}")


def _write_lines(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def emit_report(rows, out_dir, cfg: ScenarioConfig | None = None):
    """Write results.csv, timing.csv, methods_summary.csv, summary_table.txt.

    results.csv carries no timing, so identical configs reproduce it byte
    for byte; wall times go to timing.csv.
    """
    rows = list(rows)
    if not rows:
        raise ConfigError("no rows to report")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results = ["scenario_id,method,client_id,split,f1,threshold,config_hash"]
    timing = ["scenario_id,method,client_id,wall_time_ms,config_hash"]
    for r in rows:
        results.append(f"{r.scenario_id},{r.method},{r.client_id},{r.split},"
                       f"{r.f1!r},{r.threshold!r},{r.config_hash}")
        timing.append(f"{r.scenario_id},{r.method},{r.client_id},"
                      f"{r.wall_time_ms!r},{r.config_hash}")
    _write_lines(out / "results.csv", results)
    _write_lines(out / "timing.csv", timing)

    global_rows = [r for r in rows if r.client_id == "global"]
    summary = ["method,f1,threshold"]
    for r in global_rows:
        summary.append(f"{r.method},{r.f1!r},{r.threshold!r}")
    _write_lines(out / "methods_summary.csv", summary)

    name = Path(str(cfg.dataset.get("path", cfg.dataset["kind"]))).stem \
        if cfg is not None else "dataset"
    width = max([len("Method")] + [len(r.method) for r in global_rows]) + 2
    table = [f"{'Method':<{width}}{name}",
             "-" * (width + max(len(name), 6))]
    for r in global_rows:
        table.append(f"{r.method:<{width}}{r.f1:.4f}")
    _write_lines(out / "summary_table.txt", table)
    if cfg is not None:
        (out / "scenario_config.json").write_text(
            json.dumps(cfg.to_dict(), sort_keys=True, indent=2) + "\n",
            encoding="utf-8")
    return [out / "results.csv", out / "timing.csv",
            out / "methods_summary.csv", out / "summary_table.txt"]


def _sweep_counts(counts, name: str, domain) -> list:
    """A sweep's counts, each given once and checked as a config field's
    ints are: no bool, float or string passes, and each lies in domain."""
    counts = _distinct("counts", list(counts))
    check_fields({name: counts}, {name: tuple[int, ...]}, {name: domain})
    return counts


def sweep_clients(base_cfg: ScenarioConfig, client_counts, out_dir=None):
    """Rerun the scenario per client count with re-derived partitions."""
    client_counts = _sweep_counts(client_counts, "counts", SEVERAL)
    results = {}
    for count in client_counts:
        cfg = replace(base_cfg, num_clients=count,
                      scenario_id=f"{base_cfg.effective_id}-n{count}")
        results[count] = run_scenario(cfg)
    if out_dir is not None:
        _write_sweep(out_dir, "clients_sweep.csv", "client_count", results)
        timing = ["client_count,method,client_id,wall_time_ms"]
        for count, rows in results.items():
            timing += [f"{count},{r.method},{r.client_id},{r.wall_time_ms!r}"
                       for r in rows]
        _write_lines(Path(out_dir) / "timing_by_clients.csv", timing)
    return results


def _write_sweep(out_dir, name, level_column, results) -> None:
    """One line per sweep level and method: the global row's F1 and
    threshold."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = [f"{level_column},method,f1,threshold"]
    for level, rows in results.items():
        lines += [f"{level},{r.method},{r.f1!r},{r.threshold!r}"
                  for r in rows if r.client_id == "global"]
    _write_lines(out / name, lines)


def sweep_corruption(base_cfg: ScenarioConfig, corrupt_counts, out_dir=None):
    """Corrupt nested client sets (0..c-1) and redo threshold selection,
    each count one level of `_pipeline` over one trained model. The sweep
    sets corrupt_client_ids itself, so the base config must leave it
    empty."""
    if base_cfg.corrupt_client_ids:
        raise ConfigError(f"corrupt_client_ids must be [] in a corruption "
                          f"sweep, which sets it per level; got "
                          f"{list(base_cfg.corrupt_client_ids)}")
    corrupt_counts = _sweep_counts(corrupt_counts, "corrupt counts", replace(
        NON_NEGATIVE, high=base_cfg.num_clients + 1))
    levels = [replace(base_cfg, corrupt_client_ids=tuple(range(count)),
                      scenario_id=f"{base_cfg.effective_id}-corrupt{count}")
              for count in corrupt_counts]
    runs = _pipeline(base_cfg, levels)[-1]
    results = {count: rows for count, (_, _, rows) in zip(corrupt_counts, runs)}
    if out_dir is not None:
        _write_sweep(out_dir, "corruption_sweep.csv", "corrupt_count",
                     results)
    return results


def build_followup_dataset(base_cfg: ScenarioConfig, num_runs: int,
                           out_dir=None):
    """Per-client summary-feature rows labeled with the federated-vs-local
    F1 difference, plus their correlation matrix.

    Each run re-derives data/partition/training seeds so clients see
    varied distributions; every client contributes one row per run.
    """
    POSITIVE.check("num_runs", num_runs)
    needed = ("our_method", "local_minmax")
    feature_rows = []
    for run in range(num_runs):
        cfg = replace(
            base_cfg, methods=needed,
            data_seed=derive_seed(base_cfg.data_seed, run),
            partition_seed=derive_seed(base_cfg.partition_seed, run),
            train_seed=derive_seed(base_cfg.train_seed, run),
            scenario_id=f"{base_cfg.effective_id}-run{run}")
        [(_, method_results, rows)] = _pipeline(cfg, [cfg])[-1]
        fed_f1 = {r.client_id: r.f1 for r in rows if r.method == "our_method"}
        local_f1 = {r.client_id: r.f1 for r in rows
                    if r.method == "local_minmax"}
        summaries = method_results[needed.index("our_method")].uploads
        global_normal = aggregate([cs.normal for cs in summaries])
        global_anomaly = aggregate([cs.anomaly for cs in summaries
                                    if cs.anomaly])
        for i, cs in enumerate(summaries):
            feature_rows.append(collect_stat_features(
                cs, global_normal, global_anomaly, local_f1[str(i)],
                fed_f1[str(i)]))
    corr, constant = correlation_matrix(feature_rows)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        lines = [",".join(STAT_FEATURE_COLUMNS)]
        for row in feature_rows:
            lines.append(",".join(repr(float(v)) for v in row.as_array()))
        _write_lines(out / "followup_features.csv", lines)
        corr_lines = ["feature," + ",".join(STAT_FEATURE_COLUMNS)]
        for name, values in zip(STAT_FEATURE_COLUMNS, corr):
            corr_lines.append(
                name + "," + ",".join(repr(float(v)) for v in values))
        _write_lines(out / "followup_correlation.csv", corr_lines)
    return feature_rows, corr, constant
