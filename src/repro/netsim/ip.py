"""IP address allocation and IP-to-ISP resolution.

The real ODR resolves a requesting user's ISP from her IP address via the
APNIC service.  We reproduce that interface with a deterministic CIDR
registry: :class:`IpAllocator` hands out addresses from each ISP's blocks
(for the synthetic user population) and :class:`IpResolver` maps any
address back to its owning ISP.

Resolution uses a sorted interval table with binary search, so lookups are
O(log n) in the number of CIDR blocks.
"""

from __future__ import annotations

import bisect
import ipaddress
from typing import Optional

from repro.netsim.isp import ISP, IspRegistry, default_registry


def dotted_quad(value: int) -> str:
    """An IPv4 address, given as its integer value, in dotted-quad form."""
    return f"{value >> 24}.{value >> 16 & 255}.{value >> 8 & 255}." \
        f"{value & 255}"


class IpAllocator:
    """Sequential, collision-free address allocation per ISP.

    Addresses are handed out deterministically (block by block, skipping
    network/broadcast-ish edges is unnecessary at this abstraction level),
    so a seeded workload always maps users to the same addresses.  Each
    ISP's cursor is the integer value of its next address and the end of
    its block, so an allocation is an addition and a dotted-quad format.
    """

    def __init__(self, registry: Optional[IspRegistry] = None):
        self._registry = registry or default_registry()
        # Per ISP: (first, last + 1) usable address of each block --
        # offsets 1 .. num_addresses - 2 -- and the cursor
        # (block index, next address).
        self._blocks: dict[ISP, list[tuple[int, int]]] = {}
        self._cursors: dict[ISP, tuple[int, int]] = {}
        for isp in self._registry.isps():
            blocks = [(int(network.network_address) + 1,
                       int(network.network_address) +
                       network.num_addresses - 1)
                      for network in self._registry.profile(isp).networks()]
            self._blocks[isp] = blocks
            self._cursors[isp] = (0, blocks[0][0] if blocks else 0)

    def allocate(self, isp: ISP) -> str:
        """Return the next unused address homed in ``isp``."""
        blocks = self._blocks[isp]
        block_index, value = self._cursors[isp]
        while block_index < len(blocks):
            if value < blocks[block_index][1]:
                self._cursors[isp] = (block_index, value + 1)
                return dotted_quad(value)
            block_index += 1
            if block_index < len(blocks):
                value = blocks[block_index][0]
        raise RuntimeError(f"address space of {isp} exhausted")

    def addresses(self, isp: ISP, first: int, count: int) -> list[int]:
        """The integer values of the ``count`` addresses of ``isp`` that
        follow its first ``first``, in :meth:`allocate` order (without
        moving its cursor)."""
        values: list[int] = []
        for start, stop in self._blocks[isp]:
            size = max(0, stop - start)
            taken = min(max(0, size - first), count - len(values))
            values += range(start + first, start + first + taken)
            first = max(0, first - size)
        if len(values) < count:
            raise RuntimeError(f"address space of {isp} exhausted")
        return values


class IpResolver:
    """Map an IPv4 address to its owning ISP (APNIC-style lookup)."""

    def __init__(self, registry: Optional[IspRegistry] = None):
        self._registry = registry or default_registry()
        intervals: list[tuple[int, int, ISP]] = []
        for isp in self._registry.isps():
            for network in self._registry.profile(isp).networks():
                start = int(network.network_address)
                end = start + network.num_addresses
                intervals.append((start, end, isp))
        intervals.sort()
        for (s1, e1, i1), (s2, _e2, i2) in zip(intervals, intervals[1:]):
            if s2 < e1:
                raise ValueError(
                    f"overlapping CIDR blocks between {i1} and {i2}")
        self._starts = [interval[0] for interval in intervals]
        self._intervals = intervals

    def resolve(self, address: str) -> Optional[ISP]:
        """The ISP owning ``address``, or ``None`` if unallocated space."""
        value = int(ipaddress.ip_address(address))
        index = bisect.bisect_right(self._starts, value) - 1
        if index < 0:
            return None
        start, end, isp = self._intervals[index]
        if start <= value < end:
            return isp
        return None

    def is_major(self, address: str) -> bool:
        """Whether the address is homed in one of the four major ISPs."""
        isp = self.resolve(address)
        return isp is not None and self._registry.is_major(isp)
