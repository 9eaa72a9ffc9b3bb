import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedthresh.error_stats import (ErrorSummary, OverlapRegion, aggregate,
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
    g = aggregate(parts)
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
    g = aggregate(summaries)
    whole = summarize(x)
    for got, want in ((g.mean, whole.mean), (g.variance, whole.variance),
                      (g.skewness, whole.skewness),
                      (g.kurtosis, whole.kurtosis)):
        assert np.isclose(got, want, rtol=1e-9, atol=1e-12)
    assert g.count == whole.count


def test_aggregate_single_summary_identity_by_mode(rng):
    s = summarize(rng.normal(size=100))
    g = aggregate([s])
    assert np.isclose(g.mean, s.mean, rtol=1e-12)
    assert np.isclose(g.variance, s.variance, rtol=1e-12)
    assert np.isclose(g.skewness, s.skewness, rtol=1e-12)
    assert np.isclose(g.kurtosis, s.kurtosis, rtol=1e-12)


@pytest.mark.parametrize("k", [250, 260, 270, 1000])
def test_summarize_rejects_errors_whose_variance_squared_underflows(k):
    # near 2**-260 the kurtosis reads 3.76235 against 3.76273, and from
    # 2**-265 on it divides by zero
    x = np.random.default_rng(0).normal(1.0, 0.3, 1000) ** 2 * 0.02
    with pytest.raises(ConfigError, match=r"^errors of scale \S+ are too "
                       r"small to summarize: their variance \S+ squared "
                       r"underflows$"):
        summarize(x * 2.0 ** -k)
    # a little larger, the same errors keep their kurtosis
    assert np.isclose(summarize(x * 2.0 ** -245).kurtosis,
                      summarize(x).kurtosis, rtol=1e-9)


@pytest.mark.parametrize("variance", [1e-155, 1e-170])
def test_aggregate_rejects_uploads_whose_pooled_variance_squared_underflows(
        variance):
    # each client's tuple is valid; the server divides by the square too
    uploads = [ErrorSummary(1e-80, variance, 0.0, 3.0, 50)] * 2
    with pytest.raises(ConfigError, match="too small to summarize"):
        aggregate(uploads)


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
