"""Download sessions and the stagnation-timeout failure rule.

Xuanfeng "raises a pre-downloading failure for a requested file when the
corresponding pre-downloading progress stagnates for an hour" (section
4.1), and the observed maximum pre-downloading delay (10071 minutes) shows
sessions are bounded by roughly the measurement week.  Smart APs apply
the same client behaviour (wget/aria2 with give-up rules).

:class:`DownloadSession` turns a source probe (:class:`AttemptDraw`) plus
the downloader's own rate caps into a concrete outcome: how long it took,
the average and peak rates, bytes obtained, traffic burned (overhead
included), and the failure cause if it stalled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from repro.obs.registry import AnyRegistry, NOOP
from repro.sim.clock import DAY, HOUR
from repro.sim.engine import Timeout
from repro.transfer.protocols import Protocol, ProtocolModel, \
    default_protocol_model
from repro.transfer.source import AttemptDraw, ContentSource, \
    DownloadVantage

#: The cloud's give-up rule: progress stagnant for one hour => failure.
STAGNATION_TIMEOUT = 1.0 * HOUR
#: Hard bound on any single session (the trace's max delay is ~7 days).
MAX_SESSION_DURATION = 7.0 * DAY


@dataclass(frozen=True)
class SessionLimits:
    """Caps the downloader imposes on top of what the source offers."""

    rate_caps: tuple[float, ...] = ()
    stagnation_timeout: float = STAGNATION_TIMEOUT
    max_duration: float = MAX_SESSION_DURATION
    #: The tightest positive rate cap, computed once (inf when none).
    effective_cap: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        positive = [cap for cap in self.rate_caps if cap > 0]
        object.__setattr__(self, "effective_cap",
                           min(positive) if positive else float("inf"))


@dataclass
class DownloadOutcome:
    """What one download attempt produced (a pre-download trace row)."""

    success: bool
    duration: float
    bytes_obtained: float
    file_size: float
    average_rate: float
    peak_rate: float
    traffic: float
    failure_cause: Optional[str] = None

    @property
    def completed_fraction(self) -> float:
        if self.file_size <= 0:
            return 1.0
        return self.bytes_obtained / self.file_size


class DownloadSession:
    """One attempt to pull ``size`` bytes from ``source``.

    The session model has three regimes:

    * the source is unavailable at probe time -> the client stalls and
      gives up after the stagnation timeout, with ~zero bytes;
    * the source dies mid-transfer (seed churn, dropped server
      connection) -> partial bytes, then the stagnation timeout;
    * the transfer completes, at a rate capped by the downloader's own
      limits, unless the projected duration exceeds the session bound
      (treated as a stagnation give-up on extremely slow sources).
    """

    def __init__(self, source: ContentSource, size: float,
                 vantage: DownloadVantage,
                 limits: SessionLimits = SessionLimits(),
                 protocol_model: Optional[ProtocolModel] = None,
                 mid_failure_probability: Optional[float] = None,
                 metrics: AnyRegistry = NOOP):
        if size < 0:
            raise ValueError("size must be non-negative")
        self.source = source
        self.size = float(size)
        self.vantage = vantage
        self.limits = limits
        self.protocol_model = protocol_model or default_protocol_model()
        self._mid_failure_override = mid_failure_probability
        self.metrics = metrics

    # -- core model ---------------------------------------------------------

    def simulate(self, rng: np.random.Generator) -> DownloadOutcome:
        """Draw this session's complete outcome.

        ``lo + (hi - lo) * rng.random()`` is the exact computation (and
        stream consumption) of ``rng.uniform(lo, hi)`` without its
        per-call argument broadcasting.
        """
        metrics = self.metrics
        live = metrics.enabled
        if live:
            metrics.counter("repro_transfer_sessions_total").inc()
        draw = self.source.draw_attempt(rng, self.vantage)
        if live and draw.seed_count is not None:
            metrics.histogram("repro_transfer_swarm_seeds").observe(
                draw.seed_count)
        if not draw.available:
            return self._stalled_outcome(rng, draw)

        limits = self.limits
        rate = min(draw.rate, limits.effective_cap)
        if rate <= 0:
            return self._stalled_outcome(rng, draw)
        full_duration = self.size / rate if rate > 0 else float("inf")

        if full_duration > limits.max_duration:
            # Too slow to ever finish inside the service's patience.
            obtained = rate * limits.max_duration \
                * (0.6 + (1.0 - 0.6) * rng.random())
            return self._failure_outcome(
                rng, duration=limits.max_duration,
                bytes_obtained=min(obtained, self.size * 0.95),
                rate=rate, cause=self._slow_cause())

        if rng.random() < self._mid_failure_probability(draw):
            progress = 0.05 + (0.9 - 0.05) * rng.random()
            stall_at = full_duration * progress
            duration = stall_at + limits.stagnation_timeout
            return self._failure_outcome(
                rng, duration=duration,
                bytes_obtained=self.size * progress, rate=rate,
                cause=self._slow_cause())

        peak = min(rate * (1.15 + (2.2 - 1.15) * rng.random()),
                   limits.effective_cap)
        traffic = self.protocol_model.sample_traffic(
            self.source.protocol, self.size, rng)
        if live:
            metrics.counter("repro_transfer_bytes_obtained_total").inc(
                self.size)
        return DownloadOutcome(
            success=True, duration=full_duration,
            bytes_obtained=self.size, file_size=self.size,
            average_rate=rate, peak_rate=max(peak, rate), traffic=traffic)

    def run(self, rng: np.random.Generator):
        """Generator form for use as a simulation process.

        Yields a single :class:`Timeout` covering the session duration and
        returns the :class:`DownloadOutcome`.
        """
        outcome = self.simulate(rng)
        yield Timeout(outcome.duration)
        return outcome

    # -- helpers -------------------------------------------------------------

    def _mid_failure_probability(self, draw: AttemptDraw) -> float:
        if self._mid_failure_override is not None:
            return self._mid_failure_override
        return draw.mid_failure_probability

    def _slow_cause(self) -> str:
        from repro.transfer.source import CAUSE_INSUFFICIENT_SEEDS, \
            CAUSE_POOR_SERVER
        return CAUSE_INSUFFICIENT_SEEDS if self.source.protocol.is_p2p \
            else CAUSE_POOR_SERVER

    def _stalled_outcome(self, rng: np.random.Generator,
                         draw: AttemptDraw) -> DownloadOutcome:
        # A stalled client trickles a negligible number of bytes
        # (handshakes, metadata) before the give-up timer fires.
        duration = self.limits.stagnation_timeout \
            * (1.0 + (1.25 - 1.0) * rng.random())
        trickle = min(self.size, 256e3 * rng.random())
        return self._failure_outcome(rng, duration=duration,
                                     bytes_obtained=trickle,
                                     rate=trickle / duration,
                                     cause=draw.failure_cause)

    def _failure_outcome(self, rng: np.random.Generator, duration: float,
                         bytes_obtained: float, rate: float,
                         cause: Optional[str]) -> DownloadOutcome:
        # Every failure regime ends with the stagnation give-up timer
        # firing (stall at probe, mid-transfer death, too-slow-to-ever-
        # finish), so one counter covers the rule end to end.
        metrics = self.metrics
        if metrics.enabled:
            metrics.counter("repro_transfer_stagnation_timeouts_total").inc()
            if bytes_obtained > 0:
                metrics.counter(
                    "repro_transfer_bytes_obtained_total").inc(
                        bytes_obtained)
        fraction = bytes_obtained / self.size if self.size > 0 else 0.0
        traffic = self.protocol_model.sample_traffic(
            self.source.protocol, self.size, rng,
            completed_fraction=min(fraction, 1.0))
        average = bytes_obtained / duration if duration > 0 else 0.0
        return DownloadOutcome(
            success=False, duration=duration,
            bytes_obtained=bytes_obtained, file_size=self.size,
            average_rate=average, peak_rate=max(rate, average),
            traffic=traffic, failure_cause=cause)
