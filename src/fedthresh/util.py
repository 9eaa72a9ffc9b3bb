"""Small shared helpers: setting ranges, seeding and integer apportionment."""
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class Range:
    """The numbers a setting accepts: low to high, high excluded, low
    included only if low_closed; None only if nullable. A bool is no
    number here, nor is an int too large for a float."""

    low: float
    high: float = float("inf")
    low_closed: bool = False
    nullable: bool = False

    def __contains__(self, value) -> bool:
        if value is None or isinstance(value, bool) or not isinstance(
                value, (int, float, np.integer, np.floating)):
            return value is None and self.nullable
        try:
            value = float(value)
        except OverflowError:
            return False
        above = value >= self.low if self.low_closed else value > self.low
        return above and value < self.high

    def __str__(self) -> str:
        text = f"{'[' if self.low_closed else '('}{self.low:g}, {self.high:g})"
        return text + " or null" if self.nullable else text

    def check(self, name: str, value) -> None:
        """Raise ConfigError naming `name` unless value lies in the range."""
        if value not in self:
            raise ConfigError(f"{name} must be in {self}, got {value!r}")


POSITIVE = Range(0.0)  # a positive number; for a count, an integer >= 1
SEVERAL = Range(1.0)  # for a count, an integer >= 2
NON_NEGATIVE = Range(0.0, low_closed=True)
UNIT = Range(0.0, 1.0)
PERCENT = Range(0.0, 100.0)
FINITE = Range(-float("inf"))


def check(name: str, value, domain) -> None:
    """Raise ConfigError naming `name` unless value lies in domain: a
    Range, or a tuple of choices (for a list or tuple, each entry's)."""
    many = isinstance(value, (list, tuple))
    unknown = [v for v in (value if many else (value,)) if v not in domain]
    if not unknown:
        return
    if isinstance(domain, Range):  # no list is a number: this raises
        domain.check(f"{name} entries" if many else name, value)
    raise ConfigError(f"unknown {name} {unknown if many else value!r}; "
                      f"valid: {domain}")


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
