"""The cloud's metadata database.

Tracks, per content ID, what Xuanfeng's DB tracks: popularity statistics
(request counts), cache residency, and pre-download failure history.
ODR queries this database for "the latest popularity statistics of the
requested file" (paper section 6.1), so the query surface here is the
one ODR programs against.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

from repro.workload.popularity import PopularityClass, classify


@dataclass
class FileMetadata:
    """Per-file bookkeeping row."""

    file_id: str
    size: float
    request_count: int = 0
    cached: bool = False
    predownload_attempts: int = 0
    predownload_failures: int = 0
    last_request_time: Optional[float] = None

    @property
    def popularity_class(self) -> PopularityClass:
        return classify(self.request_count)


class ContentDatabase:
    """Metadata for every file the service has ever seen."""

    def __init__(self):
        self._rows: dict[str, FileMetadata] = {}

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, file_id: str) -> bool:
        return file_id in self._rows

    def row(self, file_id: str, size: float = 0.0) -> FileMetadata:
        """Fetch (creating if absent) the metadata row for a file."""
        row = self._rows.get(file_id)
        if row is None:
            row = FileMetadata(file_id=file_id, size=size)
            self._rows[file_id] = row
        return row

    def get(self, file_id: str) -> Optional[FileMetadata]:
        return self._rows.get(file_id)

    # -- event hooks used by the cloud system --------------------------------

    def record_request(self, file_id: str, size: float,
                       when: float) -> FileMetadata:
        # row() inlined: this hook runs once per replayed request.
        row = self._rows.get(file_id)
        if row is None:
            row = FileMetadata(file_id=file_id, size=size)
            self._rows[file_id] = row
        row.size = size
        row.request_count += 1
        row.last_request_time = when
        return row

    def record_requests(self, file_ids: Sequence[str],
                        sizes: Sequence[float], counts: Sequence[int],
                        last_times: Sequence[float]) -> None:
        """Record a replay's requests at once: each file's request
        count and the time of its last request, as that many
        :meth:`record_request` calls in time order would."""
        rows = self._rows
        for file_id, size, count, when in zip(file_ids, sizes, counts,
                                              last_times):
            row = rows.get(file_id)
            if row is None:
                row = rows[file_id] = FileMetadata(file_id=file_id,
                                                   size=size)
            row.size = size
            row.request_count += count
            row.last_request_time = when

    def record_attempt(self, file_id: str, success: bool) -> None:
        row = self.row(file_id)
        row.predownload_attempts += 1
        if not success:
            row.predownload_failures += 1

    def set_cached(self, file_id: str, cached: bool) -> None:
        self.row(file_id).cached = cached

    # -- the query surface ODR uses -------------------------------------------

    def popularity_of(self, file_id: str) -> int:
        """Weekly request count the service has observed (0 if unseen)."""
        row = self._rows.get(file_id)
        return row.request_count if row is not None else 0

    def popularity_class_of(self, file_id: str) -> PopularityClass:
        return classify(self.popularity_of(file_id))

    def is_cached(self, file_id: str) -> bool:
        row = self._rows.get(file_id)
        return bool(row is not None and row.cached)
