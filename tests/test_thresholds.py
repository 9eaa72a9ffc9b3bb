import inspect
import math
import warnings

import numpy as np
import pytest

from fedthresh.error_stats import (ClassSummaries, generate_candidates,
                                   overlap_region, aggregate, summarize)
from fedthresh.errors import (ConfigError, InsufficientTail,
                              NoAnomalyStatistics)
from fedthresh.metrics import f1_curve
from fedthresh.harness import METHODS
from fedthresh.thresholds import (KQE_BAND, KQE_XTOL, METHOD_TAGS, _brentq,
                                  _smoothed_cdf, classify, fed_filtered,
                                  fed_minmax, fed_mse_std, iqr, kqe,
                                  largest_mse, local_minmax, local_mse_std,
                                  local_simple, our_method, percentile, pot)

EPS = np.finfo(float).eps


def brute_force_best_f1(errors, labels):
    """Try every distinct error (and surroundings) as a cut point."""
    errors = np.asarray(errors, dtype=np.float64)
    cuts = np.unique(np.concatenate([errors, errors - 1e-12,
                                     [errors.min() - 1.0]]))
    best = 0.0
    for cut in cuts:
        pred = errors > cut
        tp = np.sum(pred & (labels == 1))
        fp = np.sum(pred & (labels == 0))
        fn = np.sum(~pred & (labels == 1))
        denom = 2.0 * tp + fp + fn
        if denom > 0:
            best = max(best, 2.0 * tp / denom)
    return best


def separable_client(rng, n_normal=60, n_anomaly=20):
    normal = rng.uniform(0.0, 0.4, size=n_normal)
    anomaly = rng.uniform(0.6, 1.0, size=n_anomaly)
    errors = np.concatenate([normal, anomaly])
    labels = np.concatenate([np.zeros(n_normal, dtype=int),
                             np.ones(n_anomaly, dtype=int)])
    return errors, labels


def single_client_eval(errors, labels):
    return lambda candidates: f1_curve(errors, labels, candidates)[None, :]


def test_method_registry_complete():
    assert METHOD_TAGS == ("our_method", "fed_minmax", "fed_mse_std",
                           "fed_filtered", "local_minmax", "kqe", "iqr",
                           "percentile", "largest_mse", "pot",
                           "local_mse_std")
    assert tuple(METHODS) == METHOD_TAGS


def test_our_method_separable_single_client(rng):
    errors, labels = separable_client(rng)
    summaries = [ClassSummaries(summarize(errors[labels == 0]),
                                summarize(errors[labels == 1]))]
    theta = our_method(summaries, single_client_eval(errors, labels), n=1000)
    scores = f1_curve(errors, labels, np.array([theta]))
    assert scores[0] == 1.0
    assert brute_force_best_f1(errors, labels) == 1.0


def test_our_method_requires_anomaly_summary(rng):
    errors, labels = separable_client(rng)
    summaries = [ClassSummaries(summarize(errors[labels == 0]), None)]
    with pytest.raises(NoAnomalyStatistics):
        our_method(summaries, single_client_eval(errors, labels))


def test_our_method_tie_breaks_to_smallest(rng):
    errors, labels = separable_client(rng)
    summaries = [ClassSummaries(summarize(errors[labels == 0]),
                                summarize(errors[labels == 1]))]

    def flat_eval(candidates):
        return np.full((1, len(candidates)), 0.5)

    theta = our_method(summaries, flat_eval, n=100)
    region = overlap_region(aggregate([summaries[0].normal]),
                            aggregate([summaries[0].anomaly]))
    assert theta == generate_candidates(region, 100)[0]


def test_fed_minmax_separable(rng):
    errors, labels = separable_client(rng)
    theta = fed_minmax(float(errors.min()), float(errors.max()), 2000,
                       single_client_eval(errors, labels))
    assert f1_curve(errors, labels, np.array([theta]))[0] == 1.0
    with pytest.warns(UserWarning, match="zero-width candidate range"):
        assert fed_minmax(1.0, 1.0, 100,
                          single_client_eval(errors, labels)) == 1.0


def test_zero_width_range_returns_the_constant_with_one_warning():
    errors = np.full(10, 0.5)
    labels = np.repeat([0, 1], 5)
    summaries = [ClassSummaries(summarize(errors[:5]), summarize(errors[5:]))]
    client_eval = single_client_eval(errors, labels)
    for tag, search in (
            ("our_method", lambda: our_method(summaries, client_eval, 100)),
            ("fed_minmax", lambda: fed_minmax(0.5, 0.5, 100, client_eval)),
            ("local_minmax", lambda: local_minmax(errors, labels, 100))):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert search() == 0.5, tag
        assert [(w.category, str(w.message)) for w in caught] == [
            (UserWarning, "zero-width candidate range; single candidate")], tag


def test_fed_minmax_spacing_wider_than_our_method(rng):
    # the overlap region is a strict subinterval of [min, max] here, so
    # an equal candidate budget is spread thinner by fed_minmax
    errors, labels = separable_client(rng)
    summaries = [ClassSummaries(summarize(errors[labels == 0]),
                                summarize(errors[labels == 1]))]
    region = overlap_region(aggregate([summaries[0].normal]),
                            aggregate([summaries[0].anomaly]))
    overlap_width = region.upper - region.lower
    full_width = errors.max() - errors.min()
    assert full_width > overlap_width > 0


def test_fed_mse_std_examples():
    one = summarize(np.array([-1.0, 3.0]))  # mu=1, sigma=2
    assert fed_mse_std([one]) == pytest.approx(3.0)
    a = summarize(np.array([0.0, 2.0]))  # mu=1, sigma=1
    b = summarize(np.array([2.0, 4.0]))  # mu=3, sigma=1
    assert fed_mse_std([a, b]) == pytest.approx(3.0)
    assert fed_mse_std([a, a, a]) == pytest.approx(2.0)


def test_fed_filtered_examples():
    assert fed_filtered([1.0, 1.0, 1.0, 100.0]) == pytest.approx(1.0)
    assert fed_filtered([4.2, 4.2, 4.2]) == pytest.approx(4.2)
    assert fed_filtered([1.0, 2.0, 3.0]) == pytest.approx(3.0)


def test_local_minmax_examples():
    errors = np.array([0.1, 0.2, 0.9, 1.0])
    labels = np.array([0, 0, 1, 1])
    theta = local_minmax(errors, labels, 1000)
    assert 0.2 <= theta < 0.9
    assert f1_curve(errors, labels, np.array([theta]))[0] == 1.0
    with pytest.raises(ConfigError):
        local_minmax(errors, np.zeros(4, dtype=int), 1000)
    # n=2 evaluates only {min, max}; theta=max predicts nothing -> F1 0,
    # so the min endpoint wins
    assert local_minmax(errors, labels, 2) == pytest.approx(0.1)


def test_local_simple_examples():
    assert local_simple(iqr, np.array([1.0, 2, 3, 4, 5])) == pytest.approx(7.0)
    assert local_simple(largest_mse, np.array([0.3, 0.9, 0.1])) == \
        pytest.approx(0.9)
    assert local_simple(local_mse_std, np.array([0.0, 2.0])) == \
        pytest.approx(2.0)
    assert local_simple(percentile, np.array([1.0, 2.0, 3.0]),
                        {"p": 50}) == pytest.approx(2.0)
    assert local_simple(percentile, np.arange(101.0)) == 99.0  # default p
    with pytest.raises(ConfigError, match=r"^p must be in \(0, 100\), got 0$"):
        local_simple(percentile, np.array([1.0]), {"p": 0})


def test_kqe_constant_vector_warns():
    with pytest.warns(UserWarning):
        assert kqe(np.full(10, 2.5)) == 2.5


def test_kqe_level_below_the_bracket_returns_the_minimum():
    # the smoothed CDF is 0 up to where the lowest error enters the band,
    # 8.3 h below it, and jumps there past 1e-300; the clip returns the
    # minimum
    x = np.random.default_rng(8).normal(size=200)
    assert kqe(x, q=1e-300) == x.min()


def test_kqe_zero_bandwidth_matches_median():
    x = np.arange(1.0, 101.0)
    got = kqe(x, q=0.5, bandwidth=0.0)
    assert abs(got - np.quantile(x, 0.5)) <= 1e-6


def test_kqe_uniform_tail_quantile():
    x = np.random.default_rng(5).uniform(0.0, 1.0, size=10_000)
    assert 0.97 <= kqe(x, q=0.99) <= 1.0


def test_kqe_smoothing_pulls_toward_center():
    # kernel smoothing of a two-sided sample moves extreme quantiles
    # relative to the raw empirical quantile but stays in a sane range
    x = np.random.default_rng(6).normal(size=2000)
    theta = kqe(x, q=0.99)
    empirical = np.quantile(x, 0.99)
    assert abs(theta - empirical) < 0.5
    with pytest.raises(ConfigError):
        kqe(x, q=1.5)


def kqe_bandwidth(errors):
    """The normal-reference bandwidth kqe picks by default."""
    q1, q3 = np.quantile(errors, [0.25, 0.75])
    spread = min(float(np.std(errors, ddof=1)), (q3 - q1) / 1.34)
    return 0.9 * spread * errors.size ** (-0.2)


def full_cdf(errors, h):
    """kqe's smoothed CDF over every error, by scipy's normal CDF."""
    special = pytest.importorskip("scipy.special")
    return lambda x: float(np.mean(special.ndtr((x - errors) / h)))


def test_kqe_band_edge_is_one_to_double_precision():
    tail = 0.5 * math.erfc(KQE_BAND / math.sqrt(2.0))
    assert tail < 2.0 ** -54
    assert 0.5 * math.erfc(-KQE_BAND / math.sqrt(2.0)) == 1.0


def test_brentq_port_has_scipy_defaults_and_errors():
    optimize = pytest.importorskip("scipy.optimize")
    ours = inspect.signature(_brentq).parameters
    theirs = inspect.signature(optimize.brentq).parameters
    for name in ("xtol", "rtol", "maxiter"):
        assert ours[name].default == theirs[name].default

    def f(x):
        return x ** 3 - 2.0
    # too few steps, and ends of one sign
    for a, b, maxiter in ((0.0, 3.0, 2), (2.0, 3.0, 100)):
        with pytest.raises((RuntimeError, ValueError)) as want:
            optimize.brentq(f, a, b, maxiter=maxiter)
        with pytest.raises(want.type) as got:
            _brentq(f, a, b, f(a), f(b), maxiter=maxiter)
        assert str(got.value) == str(want.value)


def test_brentq_port_returns_scipy_bits_on_kqe_problems():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(27)
    for _ in range(300):
        errors = 10.0 ** rng.uniform(-9, 3) * rng.gamma(
            2.0, size=int(rng.integers(2, 600)))
        h = kqe_bandwidth(errors)
        q = rng.uniform(0.01, 0.99)
        lo, hi = errors.min() - 10.0 * h, errors.max() + 10.0 * h
        for cdf in (full_cdf(errors, h), _smoothed_cdf(np.sort(errors), h)):
            def f(x):
                return cdf(x) - q
            got = _brentq(f, lo, hi, f(lo), f(hi), xtol=KQE_XTOL * h)
            assert got == optimize.brentq(f, lo, hi, xtol=KQE_XTOL * h)


@pytest.mark.parametrize("spread", [1e-9, 1e-3, 1.0, 1e3])
@pytest.mark.parametrize("n", [2, 50, 4080])
@pytest.mark.parametrize("q", [0.01, 0.5, 0.99])
def test_banded_cdf_stays_within_its_bound_of_the_full_mean(q, n, spread):
    errors = spread * np.random.default_rng(n).gamma(2.0, size=n)
    h = kqe_bandwidth(errors)
    full, banded = full_cdf(errors, h), _smoothed_cdf(np.sort(errors), h)
    # the band's 2**-54, plus a few ulps of rounding on each side and the
    # pairwise sum's log2(n) in the full mean
    bound = 2.0 ** -54 + (math.log2(n) + 4) * EPS
    theta = kqe(errors, q)
    for x in theta + h * np.arange(-12.0, 13.0):
        assert abs(banded(x) - full(x)) <= bound
    # and the root matches scipy's over the full mean, to the tolerance
    optimize = pytest.importorskip("scipy.optimize")
    lo, hi = errors.min() - 10.0 * h, errors.max() + 10.0 * h
    level = min(max(q, full(lo)), full(hi))
    want = optimize.brentq(lambda x: full(x) - level, lo, hi,
                           xtol=KQE_XTOL * h)
    want = min(max(want, errors.min()), errors.max())
    assert abs(theta - want) <= 2.0 * (KQE_XTOL * h + 4 * EPS * abs(want))


def test_kqe_median_evaluates_a_wide_band():
    # at q = 0.5 most errors lie within 8.3 h of the root, so the band,
    # not the count below it, carries F
    errors = np.random.default_rng(4080).gamma(2.0, size=4080)
    h = kqe_bandwidth(errors)
    theta = kqe(errors, 0.5)
    inside = np.abs(errors - theta) < KQE_BAND * h
    assert inside.mean() > 0.6
    assert abs(_smoothed_cdf(np.sort(errors), h)(theta) - 0.5) < 1e-12


def test_pot_exponential_oracle():
    x = np.random.default_rng(7).exponential(1.0, size=100_000)
    theta = pot(x, u_quantile=0.98, risk=1e-3)
    assert abs(theta - np.log(1000.0)) / np.log(1000.0) < 0.10


def test_pot_insufficient_tail():
    with pytest.raises(InsufficientTail) as info:
        pot(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), u_quantile=0.9)
    assert info.value.u_quantile == 0.9


def test_pot_constant_exceedances_fall_back_to_max():
    # u interpolates into the gap (1.36), so the nine exceedances are the
    # identical 5.0 spikes: zero tail variance
    x = np.concatenate([np.linspace(0, 1, 91), np.full(9, 5.0)])
    with pytest.warns(UserWarning):
        assert pot(x, u_quantile=0.91) == pytest.approx(5.0)


def test_classify_strict_rule():
    assert np.array_equal(classify(np.array([0.5]), 0.5), [0])
    assert np.array_equal(classify(np.array([0.4, 0.6]), 0.5), [0, 1])
    errs = np.array([0.1, 0.9, 0.5])
    assert np.array_equal(classify(errs, errs.min() - 1.0), [1, 1, 1])


def test_classify_monotone_in_theta(rng):
    errors = rng.gamma(2.0, 1.0, size=200)
    thetas = np.sort(rng.uniform(0, errors.max(), size=10))
    prev = classify(errors, thetas[0])
    for theta in thetas[1:]:
        cur = classify(errors, theta)
        # raising theta never flips normal -> anomaly
        assert not np.any(cur > prev)
        prev = cur


def test_f1_search_methods_hit_grid_maximum(rng):
    """The returned theta's F1 equals the max over the candidate grid."""
    errors, labels = separable_client(rng, 50, 15)
    noise = rng.uniform(0.35, 0.65, size=30)
    errors = np.concatenate([errors, noise])
    labels = np.concatenate([labels, (noise > 0.5).astype(int)])
    theta = local_minmax(errors, labels, 500)
    grid = np.linspace(errors.min(), errors.max(), 500)
    curve = f1_curve(errors, labels, grid)
    got = f1_curve(errors, labels, np.array([theta]))[0]
    assert got == pytest.approx(curve.max())
