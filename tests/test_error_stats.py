import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedthresh.error_stats import (AGGREGATION_MODES, ErrorSummary,
                                   OverlapRegion, aggregate,
                                   generate_candidates, overlap_region,
                                   summarize)
from fedthresh.errors import ConfigError


def moments_oracle(x):
    """Population moments straight from the definitions."""
    x = np.asarray(x, dtype=np.float64)
    mu = x.mean()
    m2 = np.mean((x - mu) ** 2)
    m3 = np.mean((x - mu) ** 3)
    m4 = np.mean((x - mu) ** 4)
    if m2 == 0.0:
        return mu, 0.0, 0.0, 0.0
    return mu, m2, m3 / m2 ** 1.5, m4 / m2 ** 2


def test_summarize_two_point_example():
    s = summarize(np.array([0.0, 2.0]))
    assert (s.mean, s.variance, s.skewness, s.kurtosis) == (1.0, 1.0, 0.0, 1.0)
    assert s.count == 2 and not s.degenerate


def test_summarize_constant_vector():
    s = summarize(np.full(5, 3.25))
    assert (s.mean, s.variance, s.skewness, s.kurtosis) == (3.25, 0.0, 0.0, 0.0)
    assert s.degenerate


def test_summarize_matches_oracle(rng):
    x = rng.gamma(2.0, 1.5, size=4001)
    s = summarize(x)
    mu, m2, skew, kurt = moments_oracle(x)
    assert np.isclose(s.mean, mu, rtol=1e-12)
    assert np.isclose(s.variance, m2, rtol=1e-12)
    assert np.isclose(s.skewness, skew, rtol=1e-12)
    assert np.isclose(s.kurtosis, kurt, rtol=1e-12)
    assert not s.degenerate


def test_summarize_standard_normal_sample():
    x = np.random.default_rng(77).standard_normal(100_000)
    s = summarize(x)
    assert -0.05 <= s.skewness <= 0.05
    assert 2.9 <= s.kurtosis <= 3.1


def test_summarize_empty_rejected():
    with pytest.raises(ConfigError):
        summarize(np.array([]))


def test_exact_pooled_spec_example():
    parts = [summarize(np.array([0.0, 2.0])), summarize(np.array([4.0]))]
    g = aggregate(parts, mode="exact_pooled")
    mu, m2, skew, kurt = moments_oracle(np.array([0.0, 2.0, 4.0]))
    assert np.isclose(g.mean, mu, rtol=1e-12)
    assert np.isclose(g.variance, m2, rtol=1e-12)
    assert np.isclose(g.skewness, skew, rtol=1e-12)
    assert np.isclose(g.kurtosis, kurt, rtol=1e-12)
    assert g.count == 3


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_exact_pooled_equals_concatenation(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = data.draw(st.integers(3, 400))
    clients = data.draw(st.integers(1, 8))
    x = rng.normal(2.0, 3.0, size=n) ** 2
    cuts = np.sort(rng.integers(0, n + 1, size=clients - 1))
    parts = np.split(x, cuts)
    summaries = [summarize(p) for p in parts if len(p) > 0]
    g = aggregate(summaries, mode="exact_pooled")
    whole = summarize(x)
    for got, want in ((g.mean, whole.mean), (g.variance, whole.variance),
                      (g.skewness, whole.skewness),
                      (g.kurtosis, whole.kurtosis)):
        assert np.isclose(got, want, rtol=1e-9, atol=1e-12)
    assert g.count == whole.count


def test_weighted_mode_mean_variance_exact(rng):
    parts = [rng.normal(1.0, 2.0, size=m) for m in (50, 120, 11)]
    summaries = [summarize(p) for p in parts]
    g_w = aggregate(summaries, mode="weighted")
    whole = summarize(np.concatenate(parts))
    assert np.isclose(g_w.mean, whole.mean, rtol=1e-12)
    assert np.isclose(g_w.variance, whole.variance, rtol=1e-12)


def test_weighted_mode_formula_oracle():
    """Hand-computed scaled-moment aggregation for two clients."""
    a = ErrorSummary(mean=0.0, variance=4.0, skewness=1.0, kurtosis=4.0,
                     count=10)
    b = ErrorSummary(mean=2.0, variance=1.0, skewness=-0.5, kurtosis=3.0,
                     count=30)
    g = aggregate([a, b], mode="weighted")
    n = 40
    mu = (10 * 0.0 + 30 * 2.0) / n
    var = (10 * (4.0 + 0.0 ** 2) + 30 * (1.0 + 2.0 ** 2)) / n - mu ** 2
    sg = np.sqrt(var)
    skew = (10 * 1.0 * np.sqrt(10) * (sg / 2.0) ** 3
            + 30 * -0.5 * np.sqrt(30) * (sg / 1.0) ** 3) / n
    kurt = (10 * 4.0 * 10 * (sg / 2.0) ** 4
            + 30 * 3.0 * 30 * (sg / 1.0) ** 4) / n
    assert np.isclose(g.mean, mu, rtol=1e-12)
    assert np.isclose(g.variance, var, rtol=1e-12)
    assert np.isclose(g.skewness, skew, rtol=1e-12)
    assert np.isclose(g.kurtosis, kurt, rtol=1e-12)


def test_weighted_mode_skips_zero_variance_clients():
    a = summarize(np.full(4, 1.0))
    b = summarize(np.array([0.0, 1.0, 2.0, 3.0]))
    with pytest.warns(UserWarning):
        g = aggregate([a, b], mode="weighted")
    assert np.isfinite(g.skewness) and np.isfinite(g.kurtosis)


def test_aggregate_rejects_unknown_mode():
    with pytest.raises(ConfigError):
        aggregate([summarize(np.array([1.0, 2.0]))], mode="telepathy")
    assert set(AGGREGATION_MODES) == {"weighted", "exact_pooled"}


def test_aggregate_single_summary_identity_by_mode(rng):
    s = summarize(rng.normal(size=100))
    g = aggregate([s], mode="exact_pooled")
    assert np.isclose(g.mean, s.mean, rtol=1e-12)
    assert np.isclose(g.variance, s.variance, rtol=1e-12)
    assert np.isclose(g.skewness, s.skewness, rtol=1e-12)
    assert np.isclose(g.kurtosis, s.kurtosis, rtol=1e-12)
    # the count-weighted formulas are exact only for mean/variance: their
    # S and K terms scale with sqrt(N) and N, so even one client round-trips
    # S to S*sqrt(N). This inexactness is why exact_pooled is the default.
    g_w = aggregate([s], mode="weighted")
    assert np.isclose(g_w.mean, s.mean, rtol=1e-12)
    assert np.isclose(g_w.variance, s.variance, rtol=1e-12)
    assert np.isclose(g_w.skewness, s.skewness * np.sqrt(100), rtol=1e-12)
    assert np.isclose(g_w.kurtosis, s.kurtosis * 100, rtol=1e-12)


def gs(mean, var):
    return ErrorSummary(mean=mean, variance=var, skewness=0.0, kurtosis=3.0,
                        count=100)


def test_overlap_region_worked_examples():
    r = overlap_region(gs(1.0, 0.25), gs(5.0, 1.0))
    assert (r.lower, r.upper) == (2.0, 2.5)
    assert not r.degenerate

    r = overlap_region(gs(0.0, 1.0), gs(0.0, 1.0))
    assert (r.lower, r.upper) == (-3.0, 3.0)
    assert not r.degenerate

    r = overlap_region(gs(0.0, 0.01), gs(10.0, 0.01))
    assert r.degenerate
    assert np.isclose(r.lower, 0.3)
    assert np.isclose(r.upper, 9.7)


def test_overlap_region_symmetric_without_refine(rng):
    for _ in range(20):
        a = gs(rng.normal(), float(rng.uniform(0.1, 2.0)) ** 2)
        b = gs(rng.normal(), float(rng.uniform(0.1, 2.0)) ** 2)
        r1 = overlap_region(a, b)
        r2 = overlap_region(b, a)
        assert np.isclose(r1.lower, r2.lower) and np.isclose(r1.upper, r2.upper)


def test_generate_candidates():
    r = OverlapRegion(lower=0.0, upper=1.0, degenerate=False)
    assert np.array_equal(generate_candidates(r, 3), [0.0, 0.5, 1.0])
    grid = generate_candidates(OverlapRegion(2.0, 2.5, False), 1000)
    assert grid[0] == 2.0 and grid[-1] == 2.5
    assert np.isclose(grid[1] - grid[0], 0.5 / 999)
    assert np.all(np.diff(grid) > 0)
    with pytest.raises(ConfigError):
        generate_candidates(r, 1)
    with pytest.warns(UserWarning):
        singleton = generate_candidates(OverlapRegion(2.0, 2.0, True), 5)
    assert np.array_equal(singleton, [2.0])


def test_error_summary_validation():
    with pytest.raises(ConfigError):
        ErrorSummary(mean=0.0, variance=-1.0, skewness=0.0, kurtosis=0.0,
                     count=5)
    with pytest.raises(ConfigError):
        ErrorSummary(mean=0.0, variance=1.0, skewness=0.0, kurtosis=3.0,
                     count=0)
