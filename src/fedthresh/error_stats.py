"""Per-client error summaries, global aggregation, overlap region, candidates.

A client reduces its reconstruction-error vector to the five-tuple
(mean, variance, skewness, kurtosis, count) per class; only these tuples
cross the client->server boundary. The server pools them into global
statistics, intersects the two classes' +-3 sigma intervals to get the
overlap region, and spreads candidate thresholds over it.

Moment conventions: population (biased) central moments throughout;
kurtosis is Pearson (non-excess, normal -> 3). Zero-variance vectors
store S = K = 0 with a degenerate flag; everything else uses the straight
formulas, so a five-tuple determines its central power sums exactly and
the server pools them losslessly.
"""
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .util import SEVERAL

_TINY = np.finfo(np.float64).tiny
# The largest validation error the summaries take: its fourth power stays
# finite. A feature past its square root squares past it, so the scale and
# corrupt stages refuse such a validation feature, naming the setting.
ERROR_CAP = 1e50
FEATURE_CAP = ERROR_CAP ** 0.5


@dataclass(frozen=True)
class ErrorSummary:
    """One client's five-number error summary for one class, as uploaded."""

    mean: float
    variance: float
    skewness: float
    kurtosis: float
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError(f"summary count must be >= 1, got {self.count}")
        if self.variance < 0:
            raise ConfigError(f"negative variance {self.variance}")

    @property
    def degenerate(self) -> bool:
        return self.variance == 0.0

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))


@dataclass(frozen=True)
class ClassSummaries:
    """One client's summaries keyed by ground-truth validation labels."""

    normal: ErrorSummary
    anomaly: ErrorSummary | None = None


@dataclass(frozen=True)
class OverlapRegion:
    lower: float
    upper: float
    degenerate: bool = False


def summarize(errors) -> ErrorSummary:
    """Population-moment five-tuple of an error vector."""
    errors = np.asarray(errors, dtype=np.float64).ravel()
    n = errors.size
    if n == 0:
        raise ConfigError("cannot summarize an empty error vector")
    if np.all(errors == errors[0]):
        # exact constant detection; the float mean of [c]*n can drift off c
        return ErrorSummary(float(errors[0]), 0.0, 0.0, 0.0, n)
    mu = float(np.mean(errors))
    d = errors - mu
    m2 = float(np.mean(d * d))
    m3 = float(np.mean(d * d * d))
    m4 = float(np.mean(d * d * d * d))
    return _from_moments(mu, m2, m3, m4, n)


def _from_moments(mu, m2, m3, m4, n) -> ErrorSummary:
    """The five-tuple of the population central moments m2 > 0, m3, m4.

    S and K divide by m2 squared. Below the normal float range that square
    loses its leading digits, then reaches zero, so such errors are refused.
    """
    if m2 * m2 < _TINY:
        raise ConfigError(
            f"errors of scale {abs(mu) + m2 ** 0.5:.3g} are too small to "
            f"summarize: their variance {m2:.3g} squared underflows")
    return ErrorSummary(mu, m2, m3 / m2 ** 1.5, m4 / (m2 * m2), n)


def _central_sums(s: ErrorSummary):
    """Invert a five-tuple back to (n, mean, M2, M3, M4) power sums.

    M_k are sums of (x - mean)^k. Exact: S and K are pure ratios of the
    population moments, and a zero-variance vector has all central sums
    identically zero.
    """
    m2 = s.variance
    m3 = s.skewness * m2 ** 1.5
    m4 = s.kurtosis * m2 * m2
    n = s.count
    return n, s.mean, n * m2, n * m3, n * m4


def _combine(a, b):
    """Merge two (n, mean, M2, M3, M4) blocks; exact pooled power sums."""
    na, mua, m2a, m3a, m4a = a
    nb, mub, m2b, m3b, m4b = b
    n = na + nb
    delta = mub - mua
    mu = mua + delta * nb / n
    m2 = m2a + m2b + delta ** 2 * na * nb / n
    m3 = (m3a + m3b
          + delta ** 3 * na * nb * (na - nb) / n ** 2
          + 3.0 * delta * (na * m2b - nb * m2a) / n)
    m4 = (m4a + m4b
          + delta ** 4 * na * nb * (na * na - na * nb + nb * nb) / n ** 3
          + 6.0 * delta ** 2 * (na * na * m2b + nb * nb * m2a) / n ** 2
          + 4.0 * delta * (na * m3b - nb * m3a) / n)
    return n, mu, m2, m3, m4


def _finish(n, mu, big_m2, big_m3, big_m4) -> ErrorSummary:
    m2 = big_m2 / n
    if m2 <= 0.0:
        return ErrorSummary(mu, 0.0, 0.0, 0.0, n)
    return _from_moments(mu, m2, big_m3 / n, big_m4 / n, n)


def aggregate(summaries) -> ErrorSummary:
    """Pool per-client five-tuples into one global five-tuple.

    Merges the reconstructed central power sums pairwise, so the result
    reproduces the moments of the concatenated error vector.
    """
    summaries = list(summaries)
    if not summaries:
        raise ConfigError("aggregate needs at least one summary")
    acc = _central_sums(summaries[0])
    for s in summaries[1:]:
        acc = _combine(acc, _central_sums(s))
    return _finish(*acc)


def overlap_region(normal: ErrorSummary,
                   anomaly: ErrorSummary) -> OverlapRegion:
    """Intersection of the two classes' +-3 sigma intervals.

    When the intervals do not intersect (fully separated distributions)
    the region degenerates to the gap between them, so candidates still
    fall between the two classes.
    """
    lo_n, hi_n = normal.mean - 3.0 * normal.std, normal.mean + 3.0 * normal.std
    lo_a, hi_a = (anomaly.mean - 3.0 * anomaly.std,
                  anomaly.mean + 3.0 * anomaly.std)
    lower = max(lo_n, lo_a)
    upper = min(hi_n, hi_a)
    if lower >= upper:
        return OverlapRegion(min(hi_n, lo_a), max(hi_n, lo_a),
                             degenerate=True)
    return OverlapRegion(lower, upper)


def generate_candidates(region: OverlapRegion, n: int) -> np.ndarray:
    """n evenly spaced candidates across the region, endpoints included."""
    SEVERAL.check("n_candidates", n)
    if region.upper < region.lower:
        raise ConfigError(f"region bounds inverted: [{region.lower}, {region.upper}]")
    if region.upper == region.lower:
        warnings.warn("zero-width candidate range; single candidate")
        return np.array([region.lower])
    return np.linspace(region.lower, region.upper, n)

