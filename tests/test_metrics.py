import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedthresh.errors import ConfigError
from fedthresh.metrics import (Confusion, aggregate_f1,
                               collect_stat_features, confusion,
                               correlation_matrix, f1, f1_curve)
from fedthresh.error_stats import ClassSummaries, ErrorSummary, summarize


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


def test_confusion_counts():
    labels = np.array([1, 1, 0, 0, 1])
    preds = np.array([1, 0, 0, 1, 1])
    c = confusion(labels, preds)
    assert (c.tp, c.fp, c.tn, c.fn) == (2, 1, 1, 1)
    assert c.tp + c.fp + c.tn + c.fn == 5


def test_confusion_rejects_misaligned():
    with pytest.raises(ConfigError):
        confusion(np.array([1, 0]), np.array([1]))


def test_f1_values():
    assert f1(Confusion(2, 1, 1, 1)) == pytest.approx(2 * 2 / (2 * 2 + 1 + 1))
    assert f1(Confusion(0, 0, 10, 0)) == 0.0  # no positives anywhere
    assert f1(Confusion(5, 0, 0, 0)) == 1.0


def test_f1_curve_simple_case():
    errors = np.array([0.1, 0.2, 0.3, 0.9, 1.1])
    labels = np.array([0, 0, 0, 1, 1])
    candidates = np.array([0.0, 0.25, 0.5, 1.0, 2.0])
    got = f1_curve(errors, labels, candidates)
    want = naive_f1_curve(errors, labels, candidates)
    assert np.array_equal(got, want)
    assert got[2] == 1.0  # theta=0.5 separates perfectly
    assert got[-1] == 0.0  # everything above the max predicts nothing


def test_f1_curve_strictly_greater_rule():
    # a candidate exactly equal to an anomaly's error must NOT catch it
    errors = np.array([0.5, 1.0])
    labels = np.array([0, 1])
    out = f1_curve(errors, labels, np.array([0.5, 1.0]))
    assert out[0] == 1.0  # 0.5 < 1.0 error flagged, normal 0.5 not flagged
    assert out[1] == 0.0  # error > 1.0 is false for the anomaly itself


def test_f1_curve_rejects_descending_candidates():
    with pytest.raises(ConfigError):
        f1_curve(np.array([1.0]), np.array([1]), np.array([2.0, 1.0]))


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(1, 40))
def test_f1_curve_matches_naive_recount(seed, n, m):
    rng = np.random.default_rng(seed)
    errors = rng.normal(size=n) ** 2
    labels = (rng.random(n) < 0.3).astype(int)
    # candidate grid deliberately includes exact error values (tie cases)
    grid = np.sort(np.concatenate([
        rng.choice(errors, size=min(5, n)),
        rng.uniform(errors.min() - 0.1, errors.max() + 0.1, size=m)]))
    assert np.array_equal(f1_curve(errors, labels, grid),
                          naive_f1_curve(errors, labels, grid))


def test_aggregate_f1_mean_and_ties():
    candidates = np.array([1.0, 2.0, 3.0])
    scores = np.array([[0.5, 0.9, 0.9],
                       [0.7, 0.9, 0.9]])
    theta, score = aggregate_f1(candidates, scores)
    # ties break toward the smallest candidate
    assert theta == 2.0 and score == pytest.approx(0.9)


def test_aggregate_f1_validation():
    # client F1 rows are outside input: grid shape and range are checked
    with pytest.raises(ConfigError, match="does not match"):
        aggregate_f1(np.array([1.0, 2.0]), np.array([[0.5]]))
    with pytest.raises(ConfigError, match=r"\[0, 1\]"):
        aggregate_f1(np.array([1.0]), np.array([[1.5]]))
    with pytest.raises(ConfigError, match=r"\[0, 1\]"):
        aggregate_f1(np.array([1.0]), np.array([[-0.1]]))


def _global(mean=1.0, count=100):
    return ErrorSummary(mean=mean, variance=1.0, skewness=0.1, kurtosis=3.0,
                        count=count)


def test_collect_stat_features_row_layout(rng):
    local = ClassSummaries(summarize(rng.normal(size=40)),
                           summarize(rng.normal(3.0, 1.0, size=10)))
    row = collect_stat_features(local, _global(count=400), _global(count=50),
                                f1_local=0.5, f1_fed=0.75)
    arr = row.as_array()
    assert arr.shape == (21,)
    assert row.f1_difference == pytest.approx(0.25)
    assert row.normal_proportional_count == pytest.approx(40 / 400)
    assert row.anomaly_proportional_count == pytest.approx(10 / 50)


def test_collect_stat_features_zeroes_missing_anomalies(rng):
    local = ClassSummaries(summarize(rng.normal(size=40)), None)
    row = collect_stat_features(local, _global(count=400), _global(count=50),
                                f1_local=0.0, f1_fed=0.0)
    assert (row.anomaly_mean, row.anomaly_variance, row.anomaly_count) == \
        (0.0, 0.0, 0.0)
    assert row.anomaly_proportional_count == 0.0


def test_correlation_matrix_constant_columns(rng):
    rows = []
    for _ in range(12):
        local = ClassSummaries(summarize(rng.normal(size=40)),
                               summarize(rng.normal(3.0, 1.0, size=10)))
        rows.append(collect_stat_features(local, _global(count=400),
                                          _global(count=50),
                                          f1_local=float(rng.random()),
                                          f1_fed=float(rng.random())))
    corr, constant = correlation_matrix(rows)
    assert corr.shape == (21, 21)
    assert not np.any(np.isnan(corr))
    assert np.all(np.abs(corr) <= 1.0)
    # the global aggregates repeat across rows -> constant columns zeroed
    assert constant[10] and corr[10, 10] == 0.0
    # local normal mean varies -> unit diagonal
    assert not constant[0] and corr[0, 0] == 1.0
    assert np.allclose(corr, corr.T)


def test_correlation_matrix_needs_two_rows(rng):
    local = ClassSummaries(summarize(rng.normal(size=40)), None)
    row = collect_stat_features(local, _global(), _global(), 0.1, 0.2)
    with pytest.raises(ConfigError):
        correlation_matrix([row])
