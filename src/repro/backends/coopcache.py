"""The cooperative, popularity-ranked cache of a smart-AP neighbourhood.

Wang & Kulkarni (arXiv:1409.7047) have neighbouring caches coordinate by
rank-ordering the catalogue on popularity and jointly storing the head
of the ranking up to their pooled capacity.  Mapped onto this repo: a
*neighbourhood* of smart APs (an apartment block on the same switch)
pools its USB storage, and the popularity machinery that already exists
in :mod:`repro.workload.popularity` supplies the ranking.

Two modes, both deterministic:

* **catalog mode** (:meth:`CooperativeApCache.from_catalog`): the
  resident set is computed greedily down the (weekly demand desc,
  file id asc) ranking until the pooled capacity is full -- the replay
  engines use this so every shard agrees on residency byte-for-byte;
* **threshold mode** (the default): without a catalog (the live web
  service), a file is presumed resident when its observed demand clears
  the paper's "popular" threshold -- the head of any Zipf-like ranking.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.strategies import FileSnapshot
from repro.workload.popularity import UNPOPULAR_BELOW

if TYPE_CHECKING:
    from repro.workload.catalog import FileCatalog

#: Pooled capacity of a default neighbourhood: 8 APs x 8 GB USB sticks.
DEFAULT_NEIGHBORHOOD_SIZE = 8
DEFAULT_AP_CAPACITY_BYTES = 8e9


class CooperativeApCache:
    """Popularity-ranked shared cache across neighbouring smart APs."""

    def __init__(self,
                 capacity_bytes: float = DEFAULT_NEIGHBORHOOD_SIZE *
                 DEFAULT_AP_CAPACITY_BYTES,
                 neighborhood_size: int = DEFAULT_NEIGHBORHOOD_SIZE,
                 demand_floor: float = float(UNPOPULAR_BELOW)):
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if neighborhood_size < 1:
            raise ValueError("neighborhood_size must be >= 1")
        self.capacity_bytes = capacity_bytes
        self.neighborhood_size = neighborhood_size
        self.demand_floor = demand_floor
        self._resident: Optional[frozenset[str]] = None
        self.resident_bytes = 0.0
        # Advisory hit accounting (policies may probe more than once).
        self.hits = 0
        self.misses = 0

    @classmethod
    def from_catalog(cls, catalog: FileCatalog,
                     capacity_bytes: float = DEFAULT_NEIGHBORHOOD_SIZE *
                     DEFAULT_AP_CAPACITY_BYTES,
                     neighborhood_size: int = DEFAULT_NEIGHBORHOOD_SIZE
                     ) -> "CooperativeApCache":
        """Materialise the resident set from a known catalogue.

        Greedy down the popularity ranking: a file that does not fit is
        skipped (not a stopping point), so small popular files behind
        one oversized archive still make the cache.  Ties break on file
        id, keeping the set identical across shards and runs; the
        catalog ranks its columns once (:meth:`FileCatalog.ranking`).
        """
        cache = cls(capacity_bytes=capacity_bytes,
                    neighborhood_size=neighborhood_size)
        ranking = catalog.ranking()
        resident = set()
        used = 0.0
        for file_id, size in zip(
                catalog.column("file_id")[ranking].tolist(),
                catalog.column("size")[ranking].tolist()):
            if used + size > capacity_bytes:
                continue
            resident.add(file_id.decode())
            used += size
        cache._resident = frozenset(resident)
        cache.resident_bytes = used
        return cache

    @property
    def resident_count(self) -> int:
        return len(self._resident) if self._resident is not None else 0

    def admits(self, snapshot: FileSnapshot) -> bool:
        """Is this file in (or presumed in) the neighbourhood cache?"""
        if self._resident is not None:
            hit = snapshot.file_id in self._resident
        else:
            hit = max(snapshot.weekly_demand,
                      float(snapshot.popularity)) >= self.demand_floor
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        return hit
