"""The requested-file size distribution (paper Figure 5).

Calibration targets: minimum 4 B, median 115 MB, mean 390 MB, maximum
4 GB, and "up to 25% of requested files are smaller than 8 MB".

Model: a two-component mixture.

* *Small class* (25%): log-uniform on [4 B, 8 MB] -- demo videos,
  pictures, documents, small packages span six orders of magnitude.
* *Large class* (75%): lognormal truncated to [8 MB, 4 GB].  Choosing
  median 234 MB and sigma 1.65 puts the overall median at 115 MB (the
  overall median falls at the large class's 33rd percentile) and the
  overall mean at ~386 MB after the 4 GB truncation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FileSizeModel:
    """Sampler for requested-file sizes in bytes."""

    min_size: float = 4.0
    small_threshold: float = 8e6
    max_size: float = 4e9
    small_share: float = 0.25
    large_median: float = 234e6
    large_sigma: float = 1.65

    def __post_init__(self):
        if not (0 < self.min_size < self.small_threshold < self.max_size):
            raise ValueError("size thresholds must be ordered")
        if not 0.0 <= self.small_share <= 1.0:
            raise ValueError("small_share must be a probability")
        # Frozen dataclass: stash the log bounds once instead of calling
        # np.log twice per small-class draw.
        log_min = float(np.log(self.min_size))
        object.__setattr__(self, "_log_min", log_min)
        object.__setattr__(self, "_log_span",
                           float(np.log(self.small_threshold)) - log_min)

    def sample(self, rng: np.random.Generator) -> tuple[float, bool]:
        """Draw one file size; returns ``(bytes, is_small_class)``
        (``lo + span * random()`` is ``uniform(lo, hi)``, bit for bit)."""
        if rng.random() < self.small_share:
            return float(np.exp(self._log_min
                                + self._log_span * rng.random())), True
        # Truncated lognormal via rejection; acceptance is ~97% so the
        # loop is effectively bounded.
        while True:
            size = self.large_median * float(
                np.exp(self.large_sigma * rng.standard_normal()))
            if self.small_threshold <= size <= self.max_size:
                return size, False

    def sample_many(self, count: int,
                    rng: np.random.Generator) -> np.ndarray:
        """Vector of ``count`` sizes (class flags discarded).

        Kept as a scalar loop on purpose: the mixture interleaves a
        variable number of draws per item (rejection sampling in the
        large class), so batching would change the stream and break the
        bit-identity contract pinned by the golden digests.
        """
        return np.array([self.sample(rng)[0] for _ in range(count)])
