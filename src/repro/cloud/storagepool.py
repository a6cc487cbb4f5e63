"""The geo-distributed cloud storage pool with collaborative caching.

Files are content-addressed (MD5), deduplicated at file level, and
replaced LRU (paper section 2.1).  The pool is what turns one user's
successful pre-download into every later requester's instant cache hit
-- the "collaborative caching" that halves the failure ratio.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.storage.dedup import ContentStore
from repro.storage.lru import LRUCache
from repro.workload.catalog import FileCatalog
from repro.workload.popularity import PopularityClass, class_codes


class CloudStoragePool:
    """LRU-managed, deduplicated file pool."""

    def __init__(self, capacity_bytes: float):
        self._cache: LRUCache[str, float] = LRUCache(capacity_bytes)
        self._store = ContentStore()

    def __contains__(self, file_id: str) -> bool:
        return file_id in self._cache

    def __len__(self) -> int:
        return len(self._cache)

    @property
    def used_bytes(self) -> float:
        return self._cache.used_bytes

    @property
    def hit_ratio(self) -> float:
        return self._cache.stats.hit_ratio

    @property
    def dedup_bytes_saved(self) -> float:
        """Logical minus physical bytes: what file-level dedup reclaims."""
        return max(0.0, self._store.logical_bytes -
                   self._store.physical_bytes)

    def lookup(self, file_id: str) -> bool:
        """Hit-test with recency refresh and hit/miss accounting."""
        return self._cache.get(file_id) is not None

    def insert(self, file_id: str, size: float) -> list[str]:
        """Cache a freshly pre-downloaded file; returns evicted IDs."""
        evicted = self._cache.put(file_id, size, size)
        self._store.add(file_id, size)
        for file_id in evicted:
            if file_id in self._store:
                self._store.drop(file_id)
        return evicted

    def preseed(self, catalog: FileCatalog,
                probabilities: dict[PopularityClass, float],
                rng: np.random.Generator) -> int:
        """Populate the pool with files cached before the week began.

        Files are inserted in random order so the initial LRU ordering
        carries no popularity bias.  Returns the number seeded.  Reads
        the catalog's columns; the shuffled list holds row indices, so
        it takes the draws a list of rows would.
        """
        rows = list(range(len(catalog)))
        rng.shuffle(rows)  # type: ignore[arg-type]
        file_ids = catalog.file_ids()
        sizes = catalog.column("size").tolist()
        classes = class_codes(catalog.demands()).tolist()
        chance = [probabilities.get(klass, 0.0) for klass in PopularityClass]
        seeded = 0
        for row in rows:
            if rng.random() < chance[classes[row]]:
                self.insert(file_ids[row], sizes[row])
                seeded += 1
        return seeded
