"""Reducers: folding per-shard outputs back into whole-week results.

Every reducer here is order-independent up to floating-point summation,
so the merged result is the same whatever order shards finish in.  The
shard invariance tests (``tests/test_scale.py``) assert the stronger
property: merged output at any shard count equals the 1-shard run.

:class:`MergeableStats` is the one base of the per-file replays'
shard outputs (``ShardRunStats``, the backend matrix's ``ComboStats``):
merge, tolerant equality and the exact canonical digest all follow
from the dataclass fields.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import fields
from enum import Enum
from typing import Any, ClassVar, Iterable, Sequence, TypeVar

import numpy as np

from repro.analysis.cdf import CDF, empirical_cdf
from repro.obs.histogram import QuantileSketch
from repro.obs.registry import merge_registries
from repro.scale.plan import ShardPlan
from repro.workload.catalog import FileCatalog
from repro.workload.generator import Workload
from repro.workload.records import User

__all__ = [
    "MergeableStats",
    "canonical_digest",
    "hex_floats",
    "merge_workloads",
    "merge_cdfs",
    "merge_registries",
]

S = TypeVar("S", bound="MergeableStats")


def canonical_digest(payload: Any) -> str:
    """SHA-256 over the canonical (sorted, compact) JSON of ``payload``."""
    encoded = json.dumps(payload, sort_keys=True,
                         separators=(",", ":")).encode()
    return hashlib.sha256(encoded).hexdigest()


def hex_floats(value: Any) -> Any:
    """Floats as exact ``float.hex`` strings, so a digest has no
    formatting slack; dicts and lists are walked."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: hex_floats(item) for key, item in value.items()}
    if isinstance(value, list):
        return [hex_floats(item) for item in value]
    return value


def _state(value: Any) -> Any:
    """JSON-ready state of one stats field (before :func:`hex_floats`)."""
    if isinstance(value, QuantileSketch):
        return [sorted(value._buckets.items()), value._zero_count,
                value.count, float(value.total), float(value.min_value),
                float(value.max_value)]
    if isinstance(value, np.ndarray):
        return [float(item) for item in value]
    if isinstance(value, dict):
        return {key.name if isinstance(key, Enum) else key: count
                for key, count in value.items()}
    return value


def _close(mine: Any, theirs: Any) -> bool:
    """Field equality: exact, except floats and arrays to round-off."""
    if isinstance(mine, np.ndarray):
        return mine.shape == theirs.shape and bool(np.allclose(
            mine, theirs, rtol=1e-9, atol=1e-6))
    if isinstance(mine, float):
        return math.isclose(mine, theirs, rel_tol=1e-9, abs_tol=1e-6)
    return mine == theirs


class MergeableStats:
    """Base of a shard's mergeable result; subclasses are
    ``@dataclass(eq=False)`` (so this ``__eq__`` stays).

    Every field is one of: an int or float (summed), a ``dict`` counter
    (summed key by key), a :class:`QuantileSketch` (merged exactly), an
    ndarray (added), or an identity field named in :attr:`IDENTITY`,
    which must match or the merge raises ``ValueError``.  Merging the
    parts of any partition therefore reproduces the 1-shard stats,
    floats up to summation order -- which ``__eq__`` tolerates and
    :meth:`digest`, being exact, does not: fold in a fixed order.
    """

    IDENTITY: ClassVar[tuple[str, ...]] = ()

    def merge(self: S, other: S) -> None:
        """Fold another part in, field by field."""
        for name in self.IDENTITY:
            if not _close(getattr(self, name), getattr(other, name)):
                raise ValueError(f"cannot merge {type(self).__name__} "
                                 f"of different {name}")
        for spec in fields(self):
            if spec.name in self.IDENTITY:
                continue
            mine, theirs = getattr(self, spec.name), \
                getattr(other, spec.name)
            if isinstance(mine, QuantileSketch):
                mine.merge(theirs)
            elif isinstance(mine, dict):
                for key, count in theirs.items():
                    mine[key] = mine.get(key, 0) + count
            else:
                setattr(self, spec.name, mine + theirs)

    @classmethod
    def fold(cls: type[S], parts: Sequence[S]) -> S:
        """Merge ``parts`` in order into a fresh instance."""
        if not parts:
            raise ValueError("nothing to merge")
        merged = cls(**{name: getattr(parts[0], name)
                        for name in cls.IDENTITY})
        for part in parts:
            merged.merge(part)
        return merged

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(_close(getattr(self, spec.name),
                          getattr(other, spec.name))
                   for spec in fields(self))

    __hash__ = None  # type: ignore[assignment]  # mutable container

    def digest(self) -> str:
        """Canonical SHA-256 of the full state, keyed by field name.

        Floats are serialised via ``float.hex`` so the digest is exact,
        not tolerance-based: two results digest equal iff every count,
        sketch bucket, and bit of every float agree.  The kill-resume
        CI job and the recovery tests compare these -- a resumed run
        must reproduce an uninterrupted run bit-for-bit, which the
        fixed shard fold order makes well-defined.
        """
        return canonical_digest(hex_floats(
            {spec.name: _state(getattr(self, spec.name))
             for spec in fields(self)}))


def merge_workloads(plan: ShardPlan,
                    parts: Sequence[Workload]) -> Workload:
    """Union of per-shard sub-workloads into one whole-week trace.

    Files and users are disjoint by construction (each entity lives in
    exactly one shard); requests are re-sorted into the global arrival
    order.  The result is byte-identical for any shard count because
    every record is derived from its entity's own fork.
    """
    if not parts:
        raise ValueError("nothing to merge")
    catalog = FileCatalog()
    users: list[User] = []
    requests = []
    for part in parts:
        for record in part.catalog:
            if record.file_id in catalog.files:
                raise ValueError(
                    f"file {record.file_id} appears in two shards")
        catalog.files.update(part.catalog.files)
        users.extend(part.users)
        requests.extend(part.requests)
    seen_users = {user.user_id for user in users}
    if len(seen_users) != len(users):
        raise ValueError("user owned by two shards")
    users.sort(key=lambda user: user.user_id)
    requests.sort(key=lambda request: (request.request_time,
                                       request.task_id))
    return Workload(config=plan.workload_config, catalog=catalog,
                    users=users, requests=requests)


def merge_cdfs(parts: Iterable[CDF]) -> CDF:
    """Pool per-shard empirical distributions into one CDF.

    An empirical CDF is fully determined by its sample multiset, so
    concatenating the shards' samples and re-sorting (inside
    :func:`empirical_cdf`) is the exact reduction.
    """
    values: list[np.ndarray] = [part.values for part in parts]
    if not values:
        raise ValueError("nothing to merge")
    return empirical_cdf(np.concatenate(values))
