"""Summary statistics with the benchmark's percentile rule.

A timing is reported as its median plus the *tail*: the highest
percentile of :data:`TAIL_LADDER` that still has at least
:data:`MIN_BEYOND` samples strictly above its rank. With 1,000 samples
or more that is p99, the percentile the ``*_p99_ms`` names promise; with
300 it is p95. The percentile actually used and the
sample count travel with every summary, so a ``*_p99_ms`` metric always
says which percentile it holds.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

#: Candidate tail percentiles, highest first.
TAIL_LADDER: tuple[float, ...] = (99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


def nearest_rank(sorted_values: Sequence[float], percentile: float) -> float:
    """Nearest-rank percentile of already-sorted values (1-based rank)."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(percentile / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(count: int) -> float | None:
    """The highest ladder percentile with ``MIN_BEYOND`` samples above it.

    Returns ``None`` when even the median leaves fewer than
    ``MIN_BEYOND`` samples beyond it (fewer than 20 samples).
    """
    for percentile in TAIL_LADDER:
        rank = max(1, math.ceil(percentile / 100.0 * count))
        if count - rank >= MIN_BEYOND:
            return percentile
    return None


def median(values: Iterable[float]) -> float:
    """The median (mean of the middle pair for an even count)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def summarize(values: Iterable[float]) -> dict[str, float | int | None]:
    """``{"n", "p50", "tail_pct", "tail"}`` for a list of timings.

    ``tail`` falls back to the maximum, with ``tail_pct`` ``None``, when
    the sample is too small for any ladder percentile.
    """
    ordered = sorted(values)
    if not ordered:
        return {"n": 0, "p50": None, "tail_pct": None, "tail": None}
    percentile = tail_percentile(len(ordered))
    tail = nearest_rank(ordered, percentile) if percentile is not None else ordered[-1]
    return {"n": len(ordered), "p50": median(ordered), "tail_pct": percentile, "tail": tail}
