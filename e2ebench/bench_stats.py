"""Summary statistics and failure counting for the end-to-end benchmark.

Pure Python, no dependency on the program under test, so the helpers are
testable in milliseconds (``test_e2ebench.py``).
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass, field

#: A tail percentile is only trusted when at least this many samples lie
#: beyond it (p99 needs 1000 samples, p90 needs 100).
MIN_TAIL_SAMPLES = 10


@dataclass(frozen=True)
class Percentile:
    """One nearest-rank percentile together with the evidence behind it."""

    value: float
    samples: int
    #: Samples strictly above the percentile's rank.
    beyond: int

    @property
    def meets_rule(self) -> bool:
        """True when at least :data:`MIN_TAIL_SAMPLES` samples lie beyond it."""
        return self.beyond >= MIN_TAIL_SAMPLES


def percentile(samples, q: float) -> Percentile:
    """Nearest-rank ``q``-quantile of ``samples`` (``0 < q < 1``).

    The value is always an observed sample (the ``ceil(q * n)``-th
    smallest), so a p99 over fewer than 100 samples is simply the largest
    one; :attr:`Percentile.meets_rule` says whether enough samples back it.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    ordered = sorted(float(x) for x in samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return Percentile(value=ordered[rank - 1], samples=len(ordered), beyond=len(ordered) - rank)


def median(values) -> float:
    values = [float(v) for v in values]
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def trimmed_mean(values, fraction: float = 0.2) -> float:
    """Mean after dropping ``floor(fraction * n)`` values from each end."""
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("trimmed mean of no values")
    cut = int(fraction * len(ordered))
    kept = ordered[cut : len(ordered) - cut]
    return sum(kept) / len(kept)


@dataclass
class Tally:
    """Attempted and failed operations, with a reason per failure."""

    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)

    def record(self, ok: bool, reason: "str | None" = None) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons[reason or "failed"] += 1

    def merge(self, other: "Tally") -> "Tally":
        return Tally(
            attempted=self.attempted + other.attempted,
            failed=self.failed + other.failed,
            reasons=self.reasons + other.reasons,
        )

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def ok_ratio(self) -> float:
        return 1.0 - self.failed_ratio
