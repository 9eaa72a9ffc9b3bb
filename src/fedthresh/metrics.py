"""F1 machinery, per-candidate sweeps, and the summary-feature dataset.

f1_curve sorts one client's errors once and reads every candidate's
confusion counts off a searchsorted index into the anomaly prefix sums.
naive_f1_curve recounts per candidate and is the test oracle it must match
bit for bit.
"""
import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# no compiled sweep exists; kept because perfbench/worker.py records it
HAVE_FAST_SWEEP = False


@dataclass(frozen=True)
class Confusion:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ConfigError("confusion counts must be non-negative")


def confusion(labels, predicted) -> Confusion:
    """Counts with anomaly (label 1) as the positive class."""
    labels = np.asarray(labels).astype(bool)
    predicted = np.asarray(predicted).astype(bool)
    if labels.shape != predicted.shape:
        raise ConfigError("labels and predictions must align")
    tp = int(np.sum(labels & predicted))
    fp = int(np.sum(~labels & predicted))
    fn = int(np.sum(labels & ~predicted))
    tn = int(np.sum(~labels & ~predicted))
    return Confusion(tp, fp, tn, fn)


def f1(c: Confusion) -> float:
    """2tp / (2tp + fp + fn); 0 when the denominator is 0."""
    denom = 2.0 * c.tp + c.fp + c.fn
    return 0.0 if denom == 0.0 else (2.0 * c.tp) / denom


def _prepare(errors, labels):
    errors = np.asarray(errors, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if errors.shape != labels.shape:
        raise ConfigError("errors and labels must align")
    order = np.argsort(errors, kind="stable")
    sorted_errors = errors[order]
    sorted_anoms = (labels[order] != 0).astype(np.int64)
    prefix = np.concatenate(([0], np.cumsum(sorted_anoms)))
    return sorted_errors, prefix, int(prefix[-1])


def f1_curve(errors, labels, candidates) -> np.ndarray:
    """F1 per candidate threshold under the strict "error > theta" rule.

    Sorts the errors once and sweeps the ascending candidate grid in
    O((n + m) log n) instead of recounting per candidate.
    """
    candidates = np.ascontiguousarray(candidates, dtype=np.float64).ravel()
    if candidates.size and np.any(np.diff(candidates) < 0):
        raise ConfigError("candidates must be sorted ascending")
    sorted_errors, prefix, positive = _prepare(errors, labels)
    n = sorted_errors.size
    idx = np.searchsorted(sorted_errors, candidates, side="right")
    tp = positive - prefix[idx]
    fp = (n - idx) - tp
    fn = positive - tp
    denom = 2.0 * tp + fp + fn
    out = np.zeros(candidates.size)
    nz = denom != 0.0
    out[nz] = (2.0 * tp[nz]) / denom[nz]
    return out


def naive_f1_curve(errors, labels, candidates) -> np.ndarray:
    """Per-candidate recount; the oracle f1_curve must match."""
    errors = np.asarray(errors, dtype=np.float64).ravel()
    anoms = np.asarray(labels).ravel() != 0
    out = np.empty(len(candidates))
    for j, c in enumerate(np.asarray(candidates, dtype=np.float64).ravel()):
        pred = errors > c
        tp = int(np.sum(pred & anoms))
        fp = int(np.sum(pred & ~anoms))
        fn = int(np.sum(~pred & anoms))
        denom = 2.0 * tp + fp + fn
        out[j] = 0.0 if denom == 0.0 else (2.0 * tp) / denom
    return out


def aggregate_f1(candidates, scores):
    """Mean F1 over clients per candidate; returns (theta, score) at the
    argmax.

    scores holds one row per client, one column per candidate. The rows
    come from clients, so their shape and range are checked. Ties break
    toward the smallest candidate (argmax takes the first hit of an
    ascending grid).
    """
    candidates = np.asarray(candidates, dtype=np.float64)
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    if scores.ndim != 2 or scores.shape[1] != candidates.size:
        raise ConfigError(f"scores grid {scores.shape} does not match "
                          f"{candidates.size} candidates")
    if scores.size and (scores.min() < 0.0 or scores.max() > 1.0):
        raise ConfigError("F1 scores must lie in [0, 1]")
    column = scores.mean(axis=0)
    best = int(np.argmax(column))
    return float(candidates[best]), float(column[best])


@dataclass(frozen=True)
class StatFeatureRow:
    """One client's local + aggregated summary features and the F1 gap.

    f1_difference = federated F1 minus local F1, so a positive value means
    the federated threshold served this client better.
    """

    normal_mean: float
    normal_variance: float
    normal_skewness: float
    normal_kurtosis: float
    normal_count: float
    anomaly_mean: float
    anomaly_variance: float
    anomaly_skewness: float
    anomaly_kurtosis: float
    anomaly_count: float
    normal_aggr_mean: float
    normal_aggr_variance: float
    normal_aggr_skewness: float
    normal_aggr_kurtosis: float
    normal_proportional_count: float
    anomaly_aggr_mean: float
    anomaly_aggr_variance: float
    anomaly_aggr_skewness: float
    anomaly_aggr_kurtosis: float
    anomaly_proportional_count: float
    f1_difference: float

    def as_array(self) -> np.ndarray:
        return np.array(dataclasses.astuple(self), dtype=np.float64)


# column order of the exported feature dataset; the final column is the label
STAT_FEATURE_COLUMNS = tuple(f.name for f in dataclasses.fields(StatFeatureRow))


def collect_stat_features(local, global_normal, global_anomaly,
                          f1_local: float, f1_fed: float) -> StatFeatureRow:
    """Assemble one client's feature row.

    Clients without local anomalies contribute a zeroed anomaly block
    (count 0) instead of being dropped, so every scenario emits one row
    per client.
    """
    n = local.normal
    a = local.anomaly
    if global_normal.count <= 0 or global_anomaly.count <= 0:
        raise ConfigError("aggregated summaries must carry positive counts")
    anomaly_block = (
        (a.mean, a.variance, a.skewness, a.kurtosis, float(a.count))
        if a is not None else (0.0, 0.0, 0.0, 0.0, 0.0))
    prop_anomaly = (anomaly_block[4] / global_anomaly.count)
    return StatFeatureRow(
        n.mean, n.variance, n.skewness, n.kurtosis, float(n.count),
        *anomaly_block,
        global_normal.mean, global_normal.variance, global_normal.skewness,
        global_normal.kurtosis, n.count / global_normal.count,
        global_anomaly.mean, global_anomaly.variance, global_anomaly.skewness,
        global_anomaly.kurtosis, prop_anomaly,
        f1_fed - f1_local,
    )


def correlation_matrix(rows):
    """Pearson correlation over the 21 feature/label columns.

    Returns (matrix, constant_mask). Constant columns cannot carry a
    correlation; their rows/columns are zeroed and flagged instead of
    emitting NaN. Nonconstant diagonal entries are exactly 1.
    """
    if len(rows) < 2:
        raise ConfigError("correlation needs at least two rows")
    data = np.vstack([r.as_array() for r in rows])
    centered = data - data.mean(axis=0)
    scale = np.sqrt((centered * centered).sum(axis=0))
    constant = scale == 0.0
    safe = np.where(constant, 1.0, scale)
    corr = (centered.T @ centered) / np.outer(safe, safe)
    corr[constant, :] = 0.0
    corr[:, constant] = 0.0
    corr = np.clip(corr, -1.0, 1.0)
    idx = np.where(~constant)[0]
    corr[idx, idx] = 1.0
    return corr, constant
