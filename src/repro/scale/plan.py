"""Shard plans: partitioning a measurement week into independent parts.

A :class:`ShardPlan` splits a week's requests into ``shards`` disjoint
parts **by content**: all requests of one file live in the file's
shard, chosen by a stable hash of the file id.  Two properties make the
partition safe to parallelise:

* *Stability*: shard membership depends only on the file id and the
  shard count (SHA-256, never Python's salted ``hash()``), so the same
  plan produces the same partition on every platform, process, and run.
* *Locality*: cache lookups, in-flight coalescing, and per-file
  randomness streams are per-file, so content sharding keeps every
  cache-coupled interaction inside a single shard and the merged result
  does not depend on the shard count (the backend matrix,
  ``repro.backends.replay``, is the consumer).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


def stable_hash(text: str) -> int:
    """Platform-stable 64-bit hash of a string (first 8 SHA-256 bytes)."""
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True)
class ShardSpec:
    """One shard's share of a plan -- the spawn-safe worker payload.

    Frozen and built only from primitives, so it pickles cheaply into a
    ``ProcessPoolExecutor`` worker and fully determines that worker's
    output.
    """

    shard: int
    shards: int
    scale: float
    seed: int

    def __post_init__(self):
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if not 0 <= self.shard < self.shards:
            raise ValueError(
                f"shard {self.shard} outside [0, {self.shards})")

    @property
    def plan(self) -> "ShardPlan":
        return ShardPlan(scale=self.scale, seed=self.seed,
                         shards=self.shards)


@dataclass(frozen=True)
class ShardPlan:
    """Partition of one measurement week into independent shards."""

    scale: float
    seed: int
    shards: int

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")

    def shard_of_file(self, file_id: str) -> int:
        """Owning shard of a file (hence of all its requests)."""
        return stable_hash(f"file:{file_id}") % self.shards

    def spec(self, shard: int) -> ShardSpec:
        return ShardSpec(shard=shard, shards=self.shards,
                         scale=self.scale, seed=self.seed)

    def specs(self) -> list[ShardSpec]:
        """All shard payloads, in shard order."""
        return [self.spec(shard) for shard in range(self.shards)]
