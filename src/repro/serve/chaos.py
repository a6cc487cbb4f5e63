"""Fault-plan middleware for the serving tier.

Chaos campaigns (PR 4) cover the replay paths; this adapter extends
them to the live HTTP service so a loadgen scorecard can be taken
*under* a fault plan.  The serving tier runs on wall time, so the
adapter anchors the plan's clock at server start: a window with
``start: 5, duration: 10`` is active between 5 and 15 seconds of server
uptime -- which keeps campaign plans short, replayable, and independent
of when the campaign was launched.

Kind semantics at the front door (entity domain as in
:mod:`repro.faults.plan`):

* ``server_crash``  -- the decision backend is dark: requests fail with
  an injected 500 (the breaker and the load generator see real errors);
* ``isp_degrade``   -- the path to the backend is degraded: responses
  are delayed by ``BASE_DELAY * (1/severity - 1)``, capped;
* ``vm_stall``      -- a wedged backend VM: a fixed stall per request.

Everything else in the taxonomy shapes the batch-replay layers and is
ignored here -- except the serve-domain *wedge* kinds, which a
supervised worker applies to itself through :class:`WorkerChaos`:

* ``probe_blackhole`` -- the process is hung: every listener (admin and
  data) still accepts connections via the kernel backlog but nothing is
  ever read or answered;
* ``admin_slowloris`` -- the write path has degraded to a crawl:
  responses go out byte-at-a-time with seconds between bytes, on every
  listener (the admin port is merely where the supervisor notices);
* ``conn_reset``     -- corrupted socket state: accepted connections
  are reset mid-request, admin probes included.

Wedges are *process states*: a worker alive when the window opens
adopts the fault and keeps it until the process dies, and a replacement
started later is clean (see :mod:`repro.faults.plan`).  Their clock is
the supervisor's epoch (one ``time.monotonic()`` origin shared by the
whole pool), so a restarted worker agrees with its siblings about when
a window opened instead of re-anchoring it at its own birth.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Union

from repro.obs.registry import NOOP, AnyRegistry

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultSpec

#: The entity name the serving tier presents to target matching; plans
#: aimed at the front door use ``"*"`` or ``"isp:*"`` targets (or the
#: concrete ``isp:frontend``).
SERVE_ENTITY = "frontend"

#: Base delay (seconds) scaled by the degradation severity.
BASE_DELAY = 0.005

#: Cap on one injected delay so a harsh plan cannot wedge the loop.
MAX_DELAY = 0.5

#: Fixed per-request stall while a vm_stall window is active.
STALL_DELAY = 0.05

#: Seconds between bytes of a slow-lorised response (scaled by the
#: spec's severity).  Deliberately above any sane client timeout: the
#: point is that per-recv socket timeouts never fire because *some*
#: byte always eventually arrives -- only a total-time budget catches
#: it.
SLOWLORIS_BYTE_DELAY = 2.0

#: How long a blackholed connection is parked before being dropped; in
#: practice the process is SIGKILLed long before this.
BLACKHOLE_HANG = 3600.0


@dataclass(frozen=True)
class ChaosVerdict:
    """What the fault plan says about one request: fail and/or delay."""

    fail: bool = False
    delay: float = 0.0
    kind: str = ""

    @property
    def clean(self) -> bool:
        return not self.fail and self.delay <= 0.0


class ServeChaos:
    """Wall-clock fault gate evaluated per admitted request."""

    def __init__(self, injector: FaultInjector,
                 entity: str = SERVE_ENTITY,
                 clock: Callable[[], float] = time.monotonic,
                 metrics: AnyRegistry = NOOP):
        self.injector = injector
        self.entity = entity
        self._clock = clock
        self._origin = clock()
        self._metrics = metrics

    def now(self) -> float:
        """Seconds since the server (and therefore the plan) started."""
        return self._clock() - self._origin

    def unready(self) -> bool:
        """Is the front door inside an injected-failure window?

        Readiness probes (``/healthz``) answer 503 while this holds, so
        supervisors and load balancers steer traffic away *before* the
        chaos gate starts failing real requests.
        """
        return self.injector.active("server_crash", self.entity,
                                    self.now()) is not None

    def verdict(self) -> ChaosVerdict:
        now = self.now()
        crash = self.injector.active("server_crash", self.entity, now)
        if crash is not None:
            self.injector.impact(crash)
            return ChaosVerdict(fail=True, kind="server_crash")
        delay = 0.0
        kind = ""
        factor = self.injector.factor("isp_degrade", self.entity, now)
        if factor < 1.0:
            delay = min(MAX_DELAY, BASE_DELAY * (1.0 / factor - 1.0))
            kind = "isp_degrade"
        stall = self.injector.active("vm_stall", self.entity, now)
        if stall is not None:
            delay += STALL_DELAY * stall.severity
            kind = "vm_stall" if not kind else f"{kind}+vm_stall"
        if delay > 0.0:
            self._metrics.counter("repro_serve_chaos_delays_total",
                                  kind=kind).inc()
        return ChaosVerdict(delay=delay, kind=kind)

    def injected_500(self) -> tuple[int, str, dict[str, str]]:
        """(status, body, headers) of a fault-window failure."""
        import json
        self._metrics.counter("repro_serve_chaos_failures_total").inc()
        return 500, json.dumps(
            {"error": "internal error",
             "detail": "injected fault: decision backend dark "
                       "(server_crash window)"}), {}


class WorkerChaos:
    """Self-applied process-state faults of one supervised worker.

    ``epoch`` is the pool-wide ``time.monotonic()`` origin the plan's
    serve windows are measured from (Linux's CLOCK_MONOTONIC is
    system-wide, so parent and workers share it); when None the worker
    anchors at its own start, which is the right thing for a plain
    unsupervised ``--faults`` run.
    """

    def __init__(self, injector: FaultInjector, rank: int,
                 epoch: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic,
                 metrics: AnyRegistry = NOOP):
        self.injector = injector
        self.entity = f"worker-{rank}"
        self._clock = clock
        self._origin = clock() if epoch is None else epoch
        self._born = self._clock() - self._origin
        self._metrics = metrics
        self._reported: set[str] = set()

    def now(self) -> float:
        return self._clock() - self._origin

    def wedge(self) -> Optional[FaultSpec]:
        """The wedge this process carries right now, or None.

        Adoption follows :meth:`FaultInjector.wedged`: only windows
        that opened during this process's lifetime apply, and they
        never clear -- a wedge outlives its window until the process is
        restarted.
        """
        spec = self.injector.wedged(self.entity, self._born, self.now())
        if spec is not None and spec.key not in self._reported:
            self._reported.add(spec.key)
            self._metrics.counter("repro_serve_wedges_total",
                                  kind=spec.kind).inc()
        return spec


def load_serve_chaos(plan_path: Optional[Union[str, Path]],
                     metrics: AnyRegistry = NOOP
                     ) -> Optional[ServeChaos]:
    """Build the gate from ``--faults PLAN``; None when chaos is off."""
    if plan_path is None:
        return None
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    plan = FaultPlan.from_file(plan_path)
    return ServeChaos(FaultInjector(plan, metrics=metrics),
                      metrics=metrics)


def load_worker_chaos(plan_path: Optional[Union[str, Path]],
                      rank: Optional[int],
                      epoch: Optional[float] = None,
                      metrics: AnyRegistry = NOOP
                      ) -> Optional[WorkerChaos]:
    """The wedge gate of one worker, or None when the plan has no
    serve-domain wedge specs (the common case costs nothing)."""
    if plan_path is None or rank is None:
        return None
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import WEDGE_KINDS, FaultPlan
    plan = FaultPlan.from_file(plan_path)
    if not plan.specs_of(WEDGE_KINDS):
        return None
    return WorkerChaos(FaultInjector(plan, metrics=metrics), rank,
                       epoch=epoch, metrics=metrics)
