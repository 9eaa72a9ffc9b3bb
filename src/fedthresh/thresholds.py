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
import warnings

import numpy as np

from .errors import ConfigError, InsufficientTail, NoAnomalyStatistics
from .error_stats import (OverlapRegion, aggregate, generate_candidates,
                          overlap_region)
from .metrics import aggregate_f1, f1_curve
from .util import PERCENT, UNIT

# the tags of harness.METHODS, which runs each method, in report order
METHOD_TAGS = (
    "our_method", "fed_minmax", "fed_mse_std", "fed_filtered", "local_minmax",
    "kqe", "iqr", "percentile", "largest_mse", "pot", "local_mse_std",
)


def our_method(client_class_summaries, client_eval, n: int = 1000,
               mode: str = "exact_pooled") -> float:
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
    global_normal = aggregate(normals, mode)
    global_anomaly = aggregate(anomalies, mode)
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


def local_minmax(errors, labels, n: int) -> float:
    """Local F1 argmax over n candidates spanning this client's errors."""
    errors = np.asarray(errors, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if not (np.any(labels != 0) and np.any(labels == 0)):
        raise ConfigError("local_minmax needs both classes in the labels")
    region = OverlapRegion(float(errors.min()), float(errors.max()))
    return _grid_search(region, n, lambda candidates: f1_curve(
        errors, labels, candidates)[None, :])


def _iqr_fence(errors, params):
    q1, q3 = np.quantile(errors, [0.25, 0.75])
    return q3 + 1.5 * (q3 - q1)


def _percentile(errors, params):
    p = params.get("p", 99.0)
    PERCENT.check("p", p)
    return np.quantile(errors, float(p) / 100.0)


# tag -> rule(errors, params) of local_simple
LOCAL_RULES = {
    "iqr": _iqr_fence,
    "percentile": _percentile,
    "largest_mse": lambda errors, _: errors.max(),
    "local_mse_std": lambda errors, _: errors.mean() + errors.std(),
}


def local_simple(method: str, errors, params=None) -> float:
    """One label-free rule of LOCAL_RULES over the errors."""
    errors = np.asarray(errors, dtype=np.float64).ravel()
    if errors.size == 0:
        raise ConfigError("no errors")
    if method not in LOCAL_RULES:
        raise ConfigError(f"unknown local_simple method {method!r}")
    return float(LOCAL_RULES[method](errors, params or {}))


def kqe(errors, q: float = 0.99, bandwidth: float | None = None) -> float:
    """Gaussian-kernel-smoothed quantile of the error distribution.

    Bandwidth defaults to the normal-reference rule
    0.9 * min(std, IQR/1.34) * n^(-1/5); the smoothed ECDF
    F(x) = mean(Phi((x - X_i)/h)) is inverted at level q. h = 0 (or a
    degenerate spread) falls back to the plain empirical quantile, the
    h -> 0 limit. The result is clipped to the observed error range: the
    kernel tails put mass beyond the sample extremes, and a threshold
    outside what was observed carries no information.
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
    # imported here: scipy takes about half a second to import, and every
    # CLI call, --help and config errors included, would pay it
    from scipy.optimize import brentq
    from scipy.special import ndtr

    def smoothed_cdf(x):
        return float(np.mean(ndtr((x - errors) / h)))

    lo = float(errors.min()) - 10.0 * h
    hi = float(errors.max()) + 10.0 * h
    # a q the bracket's CDF does not reach puts the root past an end, and
    # the clip below returns that end of the errors
    q = min(max(q, smoothed_cdf(lo)), smoothed_cdf(hi))
    root = float(brentq(lambda x: smoothed_cdf(x) - q, lo, hi, xtol=1e-12))
    return float(np.clip(root, errors.min(), errors.max()))


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
