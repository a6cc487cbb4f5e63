"""Bandwidth resources shared by simulated transfers.

Two allocation disciplines are provided, matching the two behaviours the
paper describes:

* :class:`ReservationPool` -- admission-controlled, reservation-based.
  Xuanfeng "sets no limitation on the user's fetching speed" but, once the
  uploading servers exhaust their upload bandwidth, it "temporarily rejects
  new fetching requests rather than degrade the speeds of active
  downloads" (paper section 2.1).  A reservation pool models exactly that:
  each admitted flow holds a fixed-rate reservation until released, and a
  request that does not fit is refused.

* :class:`FairSharePool` -- max-min fair sharing for links where
  concurrent flows genuinely compete (e.g. several devices fetching from
  one smart AP over the LAN).

A reservation pool records its committed level as a step function
(``step_times``/``step_levels``), which the cloud's per-ISP upload
gauges sample; the Figure 11 burden series is binned from the replay's
flow columns (``CloudRunResult.bandwidth_series``), not from the pools.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterator, Optional


class ReservationPool:
    """Fixed-capacity pool handing out constant-rate reservations.

    ``capacity`` may be ``None`` for an unmetered pool (useful in ablations
    that remove admission control); reservations then always succeed but
    usage is still recorded.
    """

    def __init__(self, capacity: Optional[float], name: str = "pool"):
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.name = name
        self.committed = 0.0
        self.peak_committed = 0.0
        self.rejections = 0
        self.admissions = 0
        #: Commits not yet released.
        self.outstanding = 0
        # The step function as two parallel float arrays: admissions and
        # releases hit this on every flow, and appending a float is
        # several times cheaper than constructing a sample object per
        # step (and an array holds 8 bytes per step, not a float
        # object).
        self.step_times = array("d", [0.0])
        self.step_levels = array("d", [0.0])

    @property
    def available(self) -> float:
        if self.capacity is None:
            return float("inf")
        return self.capacity - self.committed

    def commit(self, rate: float, now: float) -> bool:
        """Commit ``rate`` B/s if it fits; False (a counted rejection)
        when it does not.  The caller hands the rate back with
        :meth:`release`."""
        if rate < 0:
            raise ValueError(f"rate must be non-negative, got {rate}")
        committed = self.committed + rate
        if self.capacity is not None and committed > self.capacity:
            self.rejections += 1
            return False
        self.committed = committed
        self.admissions += 1
        self.outstanding += 1
        if committed > self.peak_committed:
            self.peak_committed = committed
        self._record(now)
        return True

    def release(self, rate: float, now: float) -> None:
        """Return a committed rate to the pool.  Only a release with no
        commit outstanding is an over-release; when the last flow leaves,
        the level snaps to 0.0, dropping the float residue of the pairs."""
        outstanding = self.outstanding - 1
        if outstanding < 0:
            raise RuntimeError(f"pool {self.name!r} over-released")
        self.outstanding = outstanding
        committed = self.committed - rate
        if committed < 0.0 or not outstanding:
            committed = 0.0
        self.committed = committed
        self._record(now)

    def _record(self, now: float) -> None:
        times = self.step_times
        if times[-1] == now:
            self.step_levels[-1] = self.committed
        else:
            times.append(now)
            self.step_levels.append(self.committed)


@dataclass
class _Flow:
    demand: float
    label: str = ""
    share: float = 0.0


class FairSharePool:
    """Max-min fair bandwidth sharing among concurrent flows.

    Each flow declares a demand cap (e.g. the device's own access
    bandwidth); the pool computes the max-min fair allocation every time
    the flow set changes.  Flows that demand less than the equal share get
    their full demand; the remainder is redistributed (progressive
    filling).
    """

    def __init__(self, capacity: float, name: str = "link"):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.name = name
        self._flows: list[_Flow] = []

    def add_flow(self, demand: float, label: str = "") -> _Flow:
        if demand < 0:
            raise ValueError(f"demand must be non-negative, got {demand}")
        flow = _Flow(demand=demand, label=label)
        self._flows.append(flow)
        self._reallocate()
        return flow

    def remove_flow(self, flow: _Flow) -> None:
        self._flows.remove(flow)
        self._reallocate()

    def flows(self) -> Iterator[_Flow]:
        return iter(self._flows)

    def share_of(self, flow: _Flow) -> float:
        return flow.share

    def _reallocate(self) -> None:
        pending = sorted(self._flows, key=lambda f: f.demand)
        remaining = self.capacity
        count = len(pending)
        for index, flow in enumerate(pending):
            equal_share = remaining / (count - index)
            flow.share = min(flow.demand, equal_share)
            remaining -= flow.share
