"""Bounded admission control for the serving tier.

A production decision endpoint must shed load *before* queueing
collapses its latency, not after.  :class:`AdmissionController` caps the
number of requests allowed past the front door at once; everything over
the cap is rejected immediately with ``503 + Retry-After`` instead of
joining an unbounded backlog.  The ``Retry-After`` hint is computed from
an EWMA of observed service time: roughly how long the current in-flight
population needs to drain.

The controller is the single place that accounts for *every* request
that reaches the server -- admitted or rejected -- through three obs
instruments:

* ``repro_serve_admitted_total{endpoint}``   counter
* ``repro_serve_rejected_total{endpoint, reason}`` counter
* ``repro_serve_inflight``                   gauge

plus a per-endpoint latency histogram
(``repro_serve_latency_seconds{endpoint}``) observed on release.  Tests
assert the invariant ``admitted + rejected == requests sent``.  The
hot-path instruments are resolved from the registry once per endpoint
(and status class) and reused; the server's endpoint labels bound both
sets.

Thread-safe: the asyncio tier calls it from its loop thread, and counts
the unbatched path's execute-stage deadline sheds from executor
threads.
"""

from __future__ import annotations

import math
import threading
from typing import Optional

from repro.obs.instruments import Counter, Histogram
from repro.obs.registry import NOOP, AnyRegistry

#: Default cap on concurrently admitted requests.  Sized for the
#: decision endpoint: decisions are sub-millisecond, so hundreds in
#: flight means the server is queueing, not working.
DEFAULT_MAX_INFLIGHT = 128

#: EWMA smoothing for the observed service time.
EWMA_ALPHA = 0.2

#: Clamp for the Retry-After hint (seconds).
RETRY_AFTER_MIN = 1
RETRY_AFTER_MAX = 30

#: Queueing-delay budget the adaptive cap defends: with ``n`` requests
#: in flight each taking ``ewma`` seconds, the newest waits roughly
#: ``n * ewma``, so admission tightens to ``target / ewma`` slots when
#: the backend slows down.  With the optimistic 1 ms prior this works
#: out to 1000 slots -- far above the default cap, so a fresh
#: controller behaves exactly like the fixed-cap one.
TARGET_QUEUE_DELAY_SECONDS = 1.0

#: The adaptive cap never drops below this many slots: a single slow
#: outlier must degrade concurrency, not strangle the server.
ADAPTIVE_MIN_INFLIGHT = 8

#: Status of a deadline shed.  504 Gateway Timeout is the closest HTTP
#: phrase for "this answer would arrive after it stopped mattering";
#: it is deliberately distinct from the 503 load shed so clients (and
#: the loadgen scorecard) can separate "server full" from "too late".
DEADLINE_STATUS = 504


def deadline_response(stage: str, remaining_ms: Optional[float] = None
                      ) -> tuple[int, str, str, None, dict[str, str]]:
    """The full Response tuple of a deadline shed at ``stage``.

    ``stage`` names where the budget ran out: ``admission`` (predicted
    queue wait already exceeds the remaining budget), ``batch`` (the
    entry expired waiting for its coalesced tick), or ``execute`` (an
    unbatched request's deadline passed while it sat on the executor
    queue).
    """
    import json
    payload: dict[str, object] = {
        "error": "deadline exceeded",
        "detail": f"request budget exhausted at the {stage} stage",
        "stage": stage,
    }
    if remaining_ms is not None:
        payload["remaining_ms"] = round(remaining_ms, 3)
    return (DEADLINE_STATUS, "application/json", json.dumps(payload),
            None, {})


class AdmissionController:
    """Queue-depth cap with an EWMA-derived Retry-After hint.

    The configured ``max_inflight`` is a hard ceiling; the *effective*
    cap additionally adapts downward when the EWMA service time grows
    (see :data:`TARGET_QUEUE_DELAY_SECONDS`), so a slow backend sheds
    load at the concurrency it can actually drain within the delay
    budget instead of queueing up to the static limit.
    """

    def __init__(self, max_inflight: int = DEFAULT_MAX_INFLIGHT,
                 metrics: AnyRegistry = NOOP):
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.max_inflight = max_inflight
        self._metrics = metrics
        self._lock = threading.Lock()
        self._inflight = 0
        self._ewma_seconds = 0.001   # optimistic prior: a fast backend
        self._inflight_gauge = metrics.gauge("repro_serve_inflight")
        self._effective_gauge = metrics.gauge(
            "repro_serve_effective_max_inflight")
        #: endpoint -> (admitted counter, latency histogram,
        #: status class -> responses counter)
        self._endpoints: dict[str, tuple[Counter, Histogram,
                                         dict[int, Counter]]] = {}
        # Plain cumulative counters mirrored off the obs instruments:
        # the supervisor reads these through the admin ``/statz``
        # endpoint to sense shed pressure for elastic scaling, without
        # parsing Prometheus text.
        self.admitted_count = 0
        self.shed_saturated = 0
        self.shed_deadline_count = 0
        self.shed_other = 0

    def _effective_cap_locked(self) -> int:
        adaptive = int(TARGET_QUEUE_DELAY_SECONDS / self._ewma_seconds) \
            if self._ewma_seconds > 0.0 else self.max_inflight
        return min(self.max_inflight,
                   max(ADAPTIVE_MIN_INFLIGHT, adaptive))

    @property
    def effective_max_inflight(self) -> int:
        """The adaptive admission cap currently in force."""
        with self._lock:
            return self._effective_cap_locked()

    def _instruments(self, endpoint: str
                     ) -> tuple[Counter, Histogram, dict[int, Counter]]:
        instruments = self._endpoints.get(endpoint)
        if instruments is None:
            instruments = self._endpoints[endpoint] = (
                self._metrics.counter("repro_serve_admitted_total",
                                      endpoint=endpoint),
                self._metrics.histogram("repro_serve_latency_seconds",
                                        endpoint=endpoint),
                {})
        return instruments

    # -- admission ---------------------------------------------------------------

    def try_admit(self, endpoint: str) -> bool:
        """Admit one request, or refuse because the server is full."""
        with self._lock:
            if self._inflight >= self._effective_cap_locked():
                self.shed_saturated += 1
                self._metrics.counter("repro_serve_rejected_total",
                                      endpoint=endpoint,
                                      reason="saturated").inc()
                return False
            self._inflight += 1
            self.admitted_count += 1
            self._inflight_gauge.set(float(self._inflight))
        self._instruments(endpoint)[0].inc()
        return True

    def reject(self, endpoint: str, reason: str) -> None:
        """Account for a shed request refused for a non-depth reason
        (e.g. an injected fault window or a malformed request line)."""
        with self._lock:
            self.shed_other += 1
        self._metrics.counter("repro_serve_rejected_total",
                              endpoint=endpoint, reason=reason).inc()

    # -- deadline budgets --------------------------------------------------------

    def predicted_wait_seconds(self) -> float:
        """The EWMA queue-wait estimate: with ``n`` requests in flight
        each taking ``ewma`` seconds, the newest waits roughly their
        sum before its own work starts."""
        with self._lock:
            return self._inflight * self._ewma_seconds

    def deadline_allows(self, remaining_seconds: float) -> bool:
        """Can a request with this much budget left still make it?

        Sheds pessimistically: if the predicted queue wait alone eats
        the remaining budget the decision would come back expired, so
        answering ``504`` *now* is strictly cheaper for both sides.
        """
        return remaining_seconds > self.predicted_wait_seconds()

    def shed_deadline(self, endpoint: str, stage: str) -> None:
        """Account for a request shed because its deadline is hopeless.

        Counted under ``rejected_total`` (so ``admitted + rejected ==
        sent`` still holds) *and* under the dedicated deadline-shed
        counter, with a stage label -- separate from 503 load sheds.
        """
        with self._lock:
            self.shed_deadline_count += 1
        self._metrics.counter("repro_serve_rejected_total",
                              endpoint=endpoint,
                              reason="deadline").inc()
        self.count_deadline_shed(stage)

    def count_deadline_shed(self, stage: str) -> None:
        """Bump the deadline-shed counter for a post-admission stage
        (the unbatched executor no-op) that already holds a slot."""
        self._metrics.counter("repro_serve_deadline_sheds_total",
                              stage=stage).inc()

    def release(self, endpoint: str, latency_seconds: float,
                status: int) -> None:
        """Finish one admitted request: free its slot, record latency."""
        with self._lock:
            self._inflight -= 1
            self._inflight_gauge.set(float(self._inflight))
            if latency_seconds >= 0.0:
                self._ewma_seconds += EWMA_ALPHA * (
                    latency_seconds - self._ewma_seconds)
            self._effective_gauge.set(
                float(self._effective_cap_locked()))
        _admitted, latency, responses = self._instruments(endpoint)
        status_class = status // 100
        counter = responses.get(status_class)
        if counter is None:
            counter = responses[status_class] = self._metrics.counter(
                "repro_serve_responses_total", endpoint=endpoint,
                status=f"{status_class}xx")
        counter.inc()
        latency.observe(latency_seconds)

    # -- views -------------------------------------------------------------------

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    @property
    def ewma_service_seconds(self) -> float:
        with self._lock:
            return self._ewma_seconds

    def stats(self) -> dict[str, int]:
        """Cumulative admission accounting, as the ``/statz`` payload.

        ``sheds`` is the pressure signal the elastic supervisor scales
        on: saturation (503) plus deadline (504-at-admission) sheds --
        both mean the worker is refusing work it was offered.
        """
        with self._lock:
            return {
                "admitted": self.admitted_count,
                "shed_saturated": self.shed_saturated,
                "shed_deadline": self.shed_deadline_count,
                "shed_other": self.shed_other,
                "sheds": self.shed_saturated + self.shed_deadline_count,
                "inflight": self._inflight,
                "effective_max_inflight": self._effective_cap_locked(),
            }

    def retry_after(self) -> int:
        """Seconds a shed client should wait: the time the admitted
        population needs to drain at the observed service rate."""
        with self._lock:
            drain = self._inflight * self._ewma_seconds
        return int(min(RETRY_AFTER_MAX,
                       max(RETRY_AFTER_MIN, math.ceil(drain))))

    def shed_body(self) -> tuple[int, str, dict[str, str]]:
        """(status, JSON body, headers) of the saturation response."""
        import json
        retry_after = self.retry_after()
        cap = self.effective_max_inflight
        body = json.dumps(
            {"error": "server saturated",
             "detail": f"admission queue full "
                       f"({cap} in flight); retry later",
             "retry_after_seconds": retry_after})
        return 503, body, {"Retry-After": str(retry_after)}
