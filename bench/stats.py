"""Order statistics used to summarise repeated measurements.

Quartiles follow ``statistics.quantiles(values, n=4)`` (the "exclusive"
method), so they match what a reader gets by feeding the same samples to
the standard library.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3). With one sample all three are that sample."""
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must lie in [0, 100], got {p}")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def highest_supported_percentile(count: int, beyond: int = 10) -> int | None:
    """Largest whole percentile p with at least ``beyond`` samples above it.

    A tail percentile read from fewer samples than that is noise, so for
    small counts (fewer than 2 * beyond samples, where even p50 lacks the
    support) this returns None.
    """
    if count < 1:
        return None
    p = math.floor(100 * (count - beyond) / count)
    return p if p >= 50 else None


def summarize(values: Sequence[float]) -> dict:
    """Median, quartiles, the highest supported percentile and the count."""
    q1, q2, q3 = quartiles(values)
    summary = {"count": len(values), "median": q2, "q1": q1, "q3": q3}
    p = highest_supported_percentile(len(values))
    if p is not None:
        summary[f"p{p}"] = percentile(values, p)
    return summary
