"""Trace records: the schema of the three Xuanfeng log parts.

Paper section 3 describes the dataset as three traces keyed to the three
stages of offline downloading (request -> pre-download -> fetch); the
dataclasses here carry exactly the fields the paper enumerates, so the
synthetic workload round-trips through the same schema the real system
logged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.netsim.isp import ISP
from repro.transfer.protocols import Protocol
from repro.workload.filetypes import FileType
from repro.workload.popularity import PopularityClass, classify

#: Enum field types serialised by ``.value``; enums are final classes
#: here, so an exact type test replaces the old isinstance chain.
_ENUM_TYPES = {Protocol, FileType, ISP, PopularityClass}


@dataclass(slots=True)
class _TraceRecord:
    """Shared serialisation for trace rows (JSONL-friendly dicts).

    ``to_dict`` walks the declared fields directly instead of going
    through :func:`dataclasses.asdict` (which deep-copies every value)
    and produces exactly the dicts that did -- same keys, same order,
    same values -- so serialised traces are byte-identical.  Rows are
    parsed into columns, not one by one
    (:func:`repro.workload.traceio.read_jsonl`).
    """

    def to_dict(self) -> dict[str, Any]:
        out = {}
        enum_types = _ENUM_TYPES
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if value.__class__ in enum_types:
                value = value.value
            out[name] = value
        return out


@dataclass(slots=True)
class CatalogFile(_TraceRecord):
    """One unique file in the content universe (keyed by MD5 content ID)."""

    file_id: str
    size: float
    file_type: FileType
    protocol: Protocol
    weekly_demand: int
    source_url: str

    @property
    def popularity_class(self) -> PopularityClass:
        return classify(self.weekly_demand)

    @property
    def is_p2p(self) -> bool:
        return self.protocol.is_p2p


@dataclass(slots=True)
class User(_TraceRecord):
    """One subscriber of the offline-downloading service."""

    user_id: str
    ip_address: str
    isp: ISP
    access_bandwidth: float          # downstream B/s (ground truth)
    reports_bandwidth: bool          # whether the trace records it

    @property
    def reported_bandwidth(self) -> Optional[float]:
        """What the workload trace exposes ('if available', section 3)."""
        return self.access_bandwidth if self.reports_bandwidth else None


@dataclass(slots=True)
class RequestRecord(_TraceRecord):
    """One row of the workload trace (an offline-downloading request)."""

    task_id: str
    user_id: str
    ip_address: str
    access_bandwidth: Optional[float]   # None when the user did not report
    request_time: float                 # seconds from week start
    file_id: str
    file_type: FileType
    file_size: float
    source_url: str
    protocol: Protocol


@dataclass(slots=True)
class PreDownloadRecord(_TraceRecord):
    """One row of the pre-downloading trace."""

    task_id: str
    file_id: str
    start_time: float
    finish_time: float
    acquired_bytes: float
    traffic_bytes: float
    cache_hit: bool
    average_speed: float
    peak_speed: float
    success: bool
    failure_cause: Optional[str] = None

    @property
    def delay(self) -> float:
        return self.finish_time - self.start_time


@dataclass(slots=True)
class FetchRecord(_TraceRecord):
    """One row of the fetching trace."""

    task_id: str
    user_id: str
    ip_address: str
    access_bandwidth: Optional[float]
    start_time: float
    finish_time: float
    acquired_bytes: float
    traffic_bytes: float
    average_speed: float
    peak_speed: float
    rejected: bool = False

    @property
    def delay(self) -> float:
        return self.finish_time - self.start_time
