"""Percentile rules shared by every workload."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
#: ``windowed_percentile`` splits its samples into this many windows,
#: and needs at least ``MIN_WINDOW`` samples in each.
WINDOWS = 5
MIN_WINDOW = 10


def _rank(pct: float, count: int) -> int:
    """1-based nearest rank; rounding first keeps 99.9 % of 10000 at 9990."""
    return max(1, math.ceil(round(pct / 100.0 * count, 9)))


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``inf`` samples sort last)."""
    if not samples:
        raise ValueError("need at least one sample")
    ordered = sorted(samples)
    return ordered[_rank(pct, len(ordered)) - 1]


def tail_percentile(samples: Sequence[float]) -> tuple[float | None, int]:
    """The highest ladder percentile with at least ten samples beyond it.

    Returns ``(percentile, sample_count)``; the percentile is ``None``
    when even the median has fewer than ten samples above it.
    """
    count = len(samples)
    best = None
    for pct in TAIL_LADDER:
        if count - _rank(pct, count) >= 10:
            best = pct
    return best, count


def windowed_percentile(samples: Sequence[float], pct: float) -> float:
    """Median over :data:`WINDOWS` equal consecutive windows of each
    window's percentile.

    One burst of host stalls then moves one window, not the result.
    With fewer than ``WINDOWS * MIN_WINDOW`` samples it is the plain
    percentile.
    """
    count = len(samples)
    if count < WINDOWS * MIN_WINDOW:
        return percentile(samples, pct)
    size = count // WINDOWS
    return median(
        [percentile(samples[i * size : (i + 1) * size], pct) for i in range(WINDOWS)]
    )


def tail_record(samples: Sequence[float], scale: float = 1.0) -> dict:
    """Median, p99 and the qualified tail of a sample list, scaled."""
    pct, count = tail_percentile(samples)
    return {
        "count": count,
        "p50": percentile(samples, 50.0) * scale,
        "p99": percentile(samples, 99.0) * scale,
        "tail_pct": pct,
        "tail": None if pct is None else percentile(samples, pct) * scale,
    }


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    return statistics.median(values)
