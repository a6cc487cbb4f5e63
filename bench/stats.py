"""Order statistics the benchmark reports: medians, quartiles, percentiles.

Quartiles use :func:`statistics.quantiles` with its default (exclusive)
method, so the spread this module reports is the one a reader computes
from the same values with the standard library.
"""

from __future__ import annotations

import bisect
import math
import statistics
from typing import Sequence


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of ``values``."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def median(values: Sequence[float]) -> float:
    """The median; unlike the interpolated quartiles it stays defined
    when the sample holds misses (``inf``)."""
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / abs(mid) if mid else math.inf


def percentile(samples: Sequence[float], p: float) -> tuple[float, int]:
    """Nearest-rank ``p``-th percentile and how many samples exceed it.

    The count beyond says how far the percentile can be trusted: a p99
    with fewer than ten samples above it is the sample's tail, not a
    stable estimate.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    value = ordered[rank - 1]
    beyond = len(ordered) - bisect.bisect_right(ordered, value)
    return value, beyond


def due_anchored(due: float, sent: float, done: float) -> tuple[float, float]:
    """(latency, lag) of one open-loop request.

    Latency runs from when the request was *due*, not from when it was
    sent, so a stall that delays later sends is charged to every request
    it delayed; lag is how late the generator sent it.
    """
    return done - due, max(0.0, sent - due)
