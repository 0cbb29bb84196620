"""The benchmark's own order statistics.

Nothing here comes from the program under test: medians, percentiles
and quartiles are computed by this module so that a change to the
program cannot change the ruler it is measured with.

A tail percentile is reported only when at least ``MIN_BEYOND`` samples
lie beyond it; with fewer samples the tail is not known and is withheld.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: Samples that must lie strictly beyond a reported tail percentile.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation.

    Matches the "inclusive" definition (numpy's default): the
    0th percentile is the minimum and the 100th the maximum.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside 0..100")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    lo_value, hi_value = ordered[low], ordered[high]
    if math.isinf(lo_value) or math.isinf(hi_value):
        return hi_value
    return lo_value + (hi_value - lo_value) * (rank - low)


def median(samples: Sequence[float]) -> float:
    """The 50th percentile."""
    return percentile(samples, 50.0)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the ``q``-th percentile:
    the whole number of samples in its upper ``100 - q`` percent."""
    return math.floor(count * (100.0 - q) / 100.0 + 1e-9)


def tail_percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile, or None when fewer than ``MIN_BEYOND``
    samples lie beyond it (p95 therefore needs at least 200 samples)."""
    if samples_beyond(len(samples), q) < MIN_BEYOND:
        return None
    return percentile(samples, q)


def highest_tail(count: int, candidates: Sequence[float] = (99.0, 95.0, 90.0, 75.0)) -> Optional[float]:
    """The highest of ``candidates`` with at least ``MIN_BEYOND`` samples
    beyond it among ``count`` samples (None when even the lowest has not)."""
    for q in sorted(candidates, reverse=True):
        if samples_beyond(count, q) >= MIN_BEYOND:
            return q
    return None


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median.

    Quartiles follow :func:`statistics.quantiles` with ``n=4`` (the
    default "exclusive" method), which is how the spread of repeated
    benchmark runs is judged.
    """
    if len(values) < 2:
        raise ValueError("spread needs at least two values")
    ordered = sorted(values)
    n = len(ordered)

    def exclusive(p: float) -> float:
        position = p * (n + 1)
        j = int(position)
        delta = position - j
        if j < 1:
            return ordered[0]
        if j >= n:
            return ordered[-1]
        return ordered[j - 1] + delta * (ordered[j] - ordered[j - 1])

    mid = median(ordered)
    if mid == 0:
        raise ValueError("spread relative to a zero median")
    return (exclusive(0.75) - exclusive(0.25)) / abs(mid)
