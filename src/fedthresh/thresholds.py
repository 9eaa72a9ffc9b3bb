"""The proposed federated threshold and the ten baselines.

Federated methods see only what their protocol shares (five-number
summaries, F1 vectors, scalar statistics); local methods run entirely on
one client's validation errors. Methods that ignore labels consume
normal-only validation errors; the harness enforces that feed.

All F1-searching methods search one evenly spaced grid through
_grid_search, use the strict "error > theta" decision rule, and break
score ties toward the smallest candidate. A zero-width range gives a
one-point grid, with a warning.
"""
import math
import warnings

import numpy as np

from .errors import ConfigError, InsufficientTail, NoAnomalyStatistics
from .error_stats import (OverlapRegion, aggregate, generate_candidates,
                          overlap_region)
from .metrics import aggregate_f1, sort_errors
# not called here any more; perfbench/tracing.py replaces this attribute
# by name, so it stays importable from this module
from .metrics import f1_curve  # noqa: F401
from .util import PERCENT, UNIT

# the tags of harness.METHODS, which runs each method, in report order
METHOD_TAGS = (
    "our_method", "fed_minmax", "fed_mse_std", "fed_filtered", "local_minmax",
    "kqe", "iqr", "percentile", "largest_mse", "pot", "local_mse_std",
)


def our_method(client_class_summaries, client_eval, n: int = 1000) -> float:
    """Threshold with the best mean client F1 over the overlap region.

    client_class_summaries: per-client ClassSummaries. client_eval maps a
    candidate grid to the clients x candidates F1 matrix (in the federated
    deployment each client computes its own row). Requires at least one
    client holding anomaly statistics: the overlap region needs both
    distributions.
    """
    client_class_summaries = list(client_class_summaries)
    if not client_class_summaries:
        raise ConfigError("no client summaries")
    normals = [cs.normal for cs in client_class_summaries]
    anomalies = [cs.anomaly for cs in client_class_summaries
                 if cs.anomaly is not None]
    if not anomalies:
        raise NoAnomalyStatistics(
            "no client reported anomaly statistics; the overlap region "
            "requires both class distributions")
    global_normal = aggregate(normals)
    global_anomaly = aggregate(anomalies)
    region = overlap_region(global_normal, global_anomaly)
    return _grid_search(region, n, client_eval)


def _grid_search(region: OverlapRegion, n: int, client_eval) -> float:
    """Mean client F1 argmax over n candidates spanning the region."""
    candidates = generate_candidates(region, n)
    theta, _ = aggregate_f1(candidates, client_eval(candidates))
    return theta


def fed_minmax(global_min: float, global_max: float, n: int,
               client_eval) -> float:
    """Mean-F1 argmax over n candidates spanning [min, max] errors."""
    return _grid_search(OverlapRegion(global_min, global_max), n, client_eval)


def fed_mse_std(summaries) -> float:
    """Unweighted mean over clients of (mean + std) of their mixed errors."""
    summaries = list(summaries)
    if not summaries:
        raise ConfigError("no summaries")
    return float(np.mean([s.mean + np.sqrt(s.variance) for s in summaries]))


def fed_filtered(local_thresholds, z_cut: float = 1.5) -> float:
    """Max of the local thresholds surviving a |z| <= z_cut filter.

    z-scores use the population std of the threshold set itself; a zero
    std keeps everything.
    """
    thresholds = np.asarray(local_thresholds, dtype=np.float64).ravel()
    if thresholds.size == 0:
        raise ConfigError("no local thresholds")
    std = float(np.std(thresholds))
    if std == 0.0:
        return float(thresholds.max())
    z = (thresholds - thresholds.mean()) / std
    survivors = thresholds[np.abs(z) <= z_cut]
    if survivors.size == 0:
        return float(thresholds.max())
    return float(survivors.max())


def local_minmax(errors, labels, n: int, view=None) -> float:
    """Local F1 argmax over n candidates spanning this client's errors.
    view: `sort_errors(errors, labels)`, where the caller holds it."""
    errors = np.asarray(errors, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if not (np.any(labels != 0) and np.any(labels == 0)):
        raise ConfigError("local_minmax needs both classes in the labels")
    region = OverlapRegion(float(errors.min()), float(errors.max()))
    if view is None:
        view = sort_errors(errors, labels)
    return _grid_search(region, n, lambda candidates: view.f1_scores(
        candidates)[None, :])


def iqr(errors) -> float:
    """Tukey's upper fence, q3 + 1.5 (q3 - q1)."""
    q1, q3 = np.quantile(errors, [0.25, 0.75])
    return q3 + 1.5 * (q3 - q1)


def percentile(errors, p: float = 99.0) -> float:
    PERCENT.check("p", p)
    return np.quantile(errors, float(p) / 100.0)


def largest_mse(errors) -> float:
    return errors.max()


def local_mse_std(errors) -> float:
    return errors.mean() + errors.std()


def local_simple(rule, errors, params=None) -> float:
    """rule(errors, **params), one of the label-free rules above, over the
    errors as a flat, non-empty float array."""
    errors = np.asarray(errors, dtype=np.float64).ravel()
    if errors.size == 0:
        raise ConfigError("no errors")
    return float(rule(errors, **(params or {})))


# Phi(-KQE_BAND) = 5.2e-17 < 2**-54, so a kernel term Phi((x - e)/h) is
# 1.0 to double precision from (x - e)/h >= KQE_BAND up, and below 2**-54
# from (x - e)/h <= -KQE_BAND down. Counting the first kind as 1 and
# dropping the second moves each such term by less than 2**-54, so the
# mean F moves by less than 2**-54 * (#counted + #dropped) / n <= 2**-54.
# The terms in the band add the rounding of libm's erfc, an exact sum
# (fsum), one add and one divide: a few ulps of F.
KQE_BAND = 8.3
# brentq's step tolerance, as a multiple of the bandwidth h: every step
# of the solver then scales with the errors
KQE_XTOL = 1e-10


def kqe(errors, q: float = 0.99, bandwidth: float | None = None) -> float:
    """Gaussian-kernel-smoothed quantile of the error distribution.

    Bandwidth defaults to the normal-reference rule
    0.9 * min(std, IQR/1.34) * n^(-1/5); the smoothed ECDF
    F(x) = mean(Phi((x - X_i)/h)) is inverted at level q. h = 0 (or a
    degenerate spread) falls back to the plain empirical quantile, the
    h -> 0 limit. The result is clipped to the observed error range: the
    kernel tails put mass beyond the sample extremes, and a threshold
    outside what was observed carries no information.

    F is evaluated on the sorted errors in a band: the errors with
    (x - X_i)/h >= KQE_BAND (8.3) count as 1, those at or below -KQE_BAND
    are left out, and Phi is computed only in between, so F is within
    2**-54 of the full mean, plus a few ulps of rounding. _brentq finds
    the root to a step tolerance of KQE_XTOL * h (1e-10 h) plus 4 eps of
    the root, relative: every step scales with h, so multiplying every
    error by a power of two multiplies the result by exactly that power
    (barring underflow and overflow).
    """
    errors = np.asarray(errors, dtype=np.float64).ravel()
    if errors.size == 0:
        raise ConfigError("no errors")
    UNIT.check("q", q)
    if np.all(errors == errors[0]):
        warnings.warn("constant errors; kqe returns the constant")
        return float(errors[0])
    if bandwidth is None:
        n = errors.size
        std = float(np.std(errors, ddof=1))
        q1, q3 = np.quantile(errors, [0.25, 0.75])
        spread = min(std, (q3 - q1) / 1.34)
        bandwidth = 0.9 * spread * n ** (-0.2)
    if not bandwidth > 0.0:
        return float(np.quantile(errors, q))
    h = float(bandwidth)
    ordered = np.sort(errors)
    smoothed_cdf = _smoothed_cdf(ordered, h)
    low, high = float(ordered[0]), float(ordered[-1])
    lo, hi = low - 10.0 * h, high + 10.0 * h
    f_lo, f_hi = smoothed_cdf(lo), smoothed_cdf(hi)
    # the band makes f_lo 0 and f_hi 1 unless h is lost in the rounding
    # of the errors; a q they do not bracket puts the root past an end,
    # and the clip below returns that end of the errors
    q = min(max(q, f_lo), f_hi)
    root = _brentq(lambda x: smoothed_cdf(x) - q, lo, hi, f_lo - q, f_hi - q,
                   xtol=KQE_XTOL * h)
    return min(max(root, low), high)


def _smoothed_cdf(ordered, h: float):
    """x -> mean(Phi((x - e)/h)) over the sorted errors `ordered`, with
    the terms outside the band |x - e| < KQE_BAND * h counted as 1 (e
    below it) or left out (e above it)."""
    n = ordered.size
    reach = KQE_BAND * h
    width = h * math.sqrt(2.0)

    def smoothed_cdf(x):
        ones = int(np.searchsorted(ordered, x - reach, side="right"))
        end = int(np.searchsorted(ordered, x + reach, side="left"))
        band = ((ordered[ones:end] - x) / width).tolist()
        # Phi(a) = erfc(-a / sqrt(2)) / 2
        return (ones + 0.5 * math.fsum(map(math.erfc, band))) / n
    return smoothed_cdf


def _brentq(f, xa, xb, fa, fb, xtol=2e-12, rtol=4 * np.finfo(float).eps,
            maxiter=100):
    """A root of f in [xa, xb], given fa = f(xa) and fb = f(xb).

    A step-for-step port of SciPy's optimize.brentq (Brent's method, as
    in its brentq.c) with the same defaults, so the same f gives the same
    bits; the caller passes f at the ends instead of having them
    evaluated again. Raises ValueError when fa and fb share a sign and
    RuntimeError when maxiter steps do not converge.
    """
    xpre, xcur, fpre, fcur = xa, xb, fa, fb
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and \
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / \
                    (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # a good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def pot(errors, u_quantile: float = 0.98, risk: float = 1e-3) -> float:
    """Peaks-over-threshold: GPD method-of-moments fit to tail exceedances.

    u is the empirical u_quantile of the errors; the returned threshold is
    the level exceeded with probability `risk` under the fitted tail.
    Raises InsufficientTail with fewer than 8 exceedances; callers fall
    back to a plain percentile.
    """
    errors = np.asarray(errors, dtype=np.float64).ravel()
    if errors.size == 0:
        raise ConfigError("no errors")
    UNIT.check("u_quantile", u_quantile)
    n = errors.size
    u = float(np.quantile(errors, u_quantile))
    exceed = errors[errors > u] - u
    n_u = exceed.size
    if n_u < 8:
        raise InsufficientTail(
            f"{n_u} exceedances above the {u_quantile} quantile; need >= 8",
            u_quantile)
    m = float(exceed.mean())
    v = float(exceed.var())
    if v == 0.0:
        warnings.warn("zero-variance tail; pot falls back to max(errors)")
        return float(errors.max())
    ratio = m * m / v
    xi = 0.5 * (1.0 - ratio)
    sigma = 0.5 * m * (1.0 + ratio)
    if abs(xi) < 1e-6:
        return u + sigma * np.log(n_u / (risk * n))
    return u + (sigma / xi) * ((risk * n / n_u) ** (-xi) - 1.0)


def classify(errors, theta: float) -> np.ndarray:
    """1 (anomaly) iff error > theta, strict inequality."""
    return (np.asarray(errors, dtype=np.float64) > theta).astype(np.int64)
