"""Auxiliary user information ODR collects.

When a user submits a link, ODR also asks for her IP address, access
bandwidth, smart-AP type, and storage device / filesystem type (paper
section 6.1).  A web cookie remembers the answers so repeat visitors skip
the form; the ``odr_aux`` cookie of :mod:`repro.core.webapp` carries
them itself, so the service keeps nothing per user.  Access bandwidth is
the one non-obvious field -- the real service walks users through
PC-assistant software to measure it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.ap.models import ApHardware
from repro.storage.device import StorageDevice
from repro.storage.filesystem import Filesystem
from repro.storage.writepath import WritePath


@dataclass(frozen=True)
class SmartApInfo:
    """The user's smart AP as reported to ODR."""

    hardware: ApHardware
    device: StorageDevice
    filesystem: Filesystem

    def write_path(self) -> WritePath:
        return WritePath(self.device, self.filesystem,
                         self.hardware.cpu_mhz)

    @classmethod
    def default_for(cls, hardware: ApHardware) -> "SmartApInfo":
        return cls(hardware=hardware, device=hardware.default_device,
                   filesystem=hardware.default_filesystem)


@dataclass(frozen=True)
class UserContext:
    """Everything ODR knows about the requesting user."""

    ip_address: str
    access_bandwidth: Optional[float]     # B/s; None if the user cannot say
    smart_ap: Optional[SmartApInfo] = None
    #: Remaining per-request completion budget in seconds, parsed from
    #: the serving tier's ``X-Deadline-Ms`` header.  Per request, never
    #: remembered in the cookie: delay-aware routing ranks against it when
    #: present and falls back to its static default when None, so
    #: replay paths (which never set it) stay bit-identical.
    deadline_seconds: Optional[float] = None

    @property
    def has_smart_ap(self) -> bool:
        return self.smart_ap is not None

