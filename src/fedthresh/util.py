"""Small shared helpers: seeding and integer apportionment."""
import numpy as np

from .errors import ConfigError


def derive_seed(*path: int) -> int:
    """Collapse a seed-tree path to one 64-bit integer seed."""
    seq = np.random.SeedSequence([int(p) for p in path])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def largest_remainder(weights: np.ndarray, total: int) -> np.ndarray:
    """Apportion `total` items proportionally to `weights`.

    Hamilton's method: floor the exact quotas, then hand the leftover
    items to the largest fractional parts (ties broken by lower index).
    Guarantees the result sums to `total` exactly.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1 or weights.size == 0:
        raise ConfigError("weights must be a non-empty 1-d array")
    if not np.all(np.isfinite(weights)):
        raise ConfigError(f"weights must be finite, got {weights}")
    if np.any(weights < 0) or weights.sum() <= 0:
        raise ConfigError("weights must be non-negative with a positive sum")
    quotas = weights / weights.sum() * total
    counts = np.floor(quotas).astype(np.int64)
    short = total - int(counts.sum())
    if short > 0:
        frac = quotas - counts
        order = np.lexsort((np.arange(weights.size), -frac))
        counts[order[:short]] += 1
    return counts
