"""Time-series binning for bandwidth-burden plots (Figure 11).

Flows are intervals ``(start, end, rate)``; binning integrates each
flow's rate over its overlap with every bin, yielding the time-average
committed bandwidth per bin -- the paper's 5-minute-interval upload
burden series.

The kernel is vectorised but sums exactly like a per-(flow, bin) loop:
every overlap term is computed elementwise with the loop's own float
operations, and ``np.add.at`` adds the terms into each bin in flow
order, so each bin's total is the same sequence of float additions and
the series is bit-identical to the loop's.  A cumulative sum or
difference array would regroup the additions and drift in the last
ulp.  Flows are expanded at most :data:`CHUNK_FLOWS` and
:data:`CHUNK_TERMS` (flow, bin) terms at a time -- a flow longer than
that alone is one step -- so the (flow, bin) arrays stay a few MB
however long the trace and its flows are.
"""

from __future__ import annotations

import numpy as np

#: Flows expanded into their (flow, bin) terms per step, and the terms
#: a step expands (about 140 bytes of temporaries each).
CHUNK_FLOWS = 4096
CHUNK_TERMS = 16384


def bin_rate_series(flows, bin_width: float,
                    horizon: float) -> np.ndarray:
    """Average aggregate rate per bin over ``[0, horizon)``.

    ``flows`` is an iterable of ``(start, end, rate)`` triples in
    seconds / B/s (an ``(n, 3)`` array works too).  Flows that are
    empty, inverted or have a non-positive rate contribute nothing;
    the rest are clipped to ``[0, horizon]``.  Returns an array of
    length ``ceil(horizon/bin_width)`` in B/s.
    """
    if bin_width <= 0 or horizon <= 0:
        raise ValueError("bin_width and horizon must be positive")
    n_bins = int(np.ceil(horizon / bin_width))
    totals = np.zeros(n_bins)
    if not isinstance(flows, np.ndarray):
        flows = list(flows)
    table = np.asarray(flows, dtype=float).reshape(-1, 3)
    # Clipping cannot make an empty or inverted flow non-empty, so one
    # test after it drops every flow the loop skipped.
    start = np.maximum(table[:, 0], 0.0)
    end = np.minimum(table[:, 1], horizon)
    keep = (end > start) & (table[:, 2] > 0)
    start, end, rate = start[keep], end[keep], table[keep, 2]
    # int() truncates toward zero, and so does astype: a flow ending
    # within 1e-12 s of zero still starts and ends in bin 0.
    first = (start / bin_width).astype(np.int64)
    last = np.minimum(((end - 1e-12) / bin_width).astype(np.int64),
                      n_bins - 1)
    spans = np.maximum(last - first + 1, 0)
    through = np.cumsum(spans)   # terms up to and including each flow
    lo = 0
    while lo < len(start):
        # The flows whose terms fit in CHUNK_TERMS: at least one, at
        # most CHUNK_FLOWS.
        before = through[lo - 1] if lo else 0
        hi = int(np.searchsorted(through, before + CHUNK_TERMS, "right"))
        hi = min(max(hi, lo + 1), lo + CHUNK_FLOWS)
        chunk = slice(lo, hi)
        lo = hi
        counts = spans[chunk]
        owner = np.repeat(np.arange(len(counts)), counts)
        offset = np.arange(len(owner)) \
            - np.repeat(np.cumsum(counts) - counts, counts)
        index = first[chunk][owner] + offset
        overlap = np.minimum(end[chunk][owner], (index + 1) * bin_width) \
            - np.maximum(start[chunk][owner], index * bin_width)
        np.add.at(totals, index, rate[chunk][owner]
                  * np.where(overlap > 0.0, overlap, 0.0))
    return totals / bin_width


def peak_of_series(series: np.ndarray) -> tuple[int, float]:
    """(bin index, value) of the series maximum."""
    series = np.asarray(series, dtype=float)
    if len(series) == 0:
        raise ValueError("empty series has no peak")
    index = int(np.argmax(series))
    return index, float(series[index])
