"""The fault injector: delivers a :class:`FaultPlan` into a run.

Two modes of use, both deterministic:

* **Engine mode** (`XuanfengCloud`): ``bind(sim)`` schedules one
  activation callback per fault window; registered waiters whose
  entity matches an opening window are interrupted through the engine's
  interrupt machinery (``Interrupt.cause`` is the :class:`FaultSpec`).
  A waiter is anything with ``Process.interrupt(cause)`` semantics: a
  :class:`~repro.sim.engine.Process`, or a cloud task of
  :class:`~repro.cloud.fastpath.TaskMachine`.  ``bind`` runs
  before the run schedules anything else, so a window opening at ``s``
  fires first among the events at ``s`` and reaches exactly the waits
  that started before ``s`` and end at or after it.
  :meth:`FaultInjector.exposed` answers that for a wait about to start;
  only a wait it exposes needs to register.

* **Query mode** (the cloud task machine's attempt boundaries, the AP
  benchrig, the serving tier's chaos hooks): callers ask "is fault X
  active on entity E at time T?" and steer their own clocks.  All
  answers depend only on the plan, so they do not depend on the order
  in which callers ask, nor on which process asks.

The injector also keeps the resilience scoreboard (faults injected,
impacts, retries, failovers, aborts, recoveries) as plain counters plus
``repro.obs`` metrics.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, Optional, Tuple

from repro.faults.plan import WEDGE_KINDS, FaultPlan, FaultSpec
from repro.netsim.isp import MAJOR_ISPS
from repro.obs import NOOP
from repro.sim.engine import Interrupt, Process, Simulator
from repro.sim.randomness import substream

#: Kinds whose window *opening* interrupts in-flight engine work.  The
#: others (degradations, pool pressure) only shape decisions made at
#: attempt boundaries and are consumed through the query API.
INTERRUPT_KINDS: tuple[str, ...] = ("server_crash", "vm_stall",
                                    "seed_death")

#: The ``isp`` entities with an upload-server group a crash can darken.
_UPLOAD_GROUPS: tuple[str, ...] = tuple(isp.value for isp in MAJOR_ISPS)


def _boundaries(specs: Iterable[FaultSpec]) -> list[float]:
    """Sorted window edges: between two consecutive ones (found with
    ``bisect_right``), every spec's ``active_at`` answer is fixed."""
    return sorted({edge for spec in specs
                   for edge in (spec.start, spec.end)})


class FaultInjector:
    """Deterministic dispatcher for one :class:`FaultPlan`."""

    def __init__(self, plan: FaultPlan, metrics=NOOP):
        self.plan = plan
        self.metrics = metrics
        # ((domain, entity), waiter identity) -> waiter, for every
        # waiter currently exposed to faults, in registration order
        # across all entities: removal must not scan, and an activation
        # interrupts its targets in that one order.
        self._registered: Dict[Tuple[Tuple[str, str], int], Process] = {}
        # domain -> (starts, windows): the bound interrupt-kind windows
        # by start, and their starts (see :meth:`exposed`).
        self._openings: Dict[str, Tuple[list[float], list[FaultSpec]]] = {}
        # Query memos.  Every answer depends only on the (frozen) plan,
        # so each is computed once: the gated specs per (kinds, entity)
        # -- a per-entity gate is a SHA-256 draw -- and the answers that
        # only change at a window boundary (the active kinds, the dark
        # ISP set, severity factors) per interval between consecutive
        # boundaries.
        self._gate_memo: Dict[tuple, Tuple[tuple, Dict[str, tuple]]] = {}
        self._bounds = _boundaries(plan.specs)
        self._kinds_memo: Dict[int, frozenset[str]] = {}
        self._crash_memo: Dict[int, frozenset[str]] = {}
        self._factor_memo: Dict[Tuple[str, str], tuple] = {}
        # Scoreboard (plain ints so analytic paths can read them back
        # without an obs registry).
        self.injected = 0
        self.impacts = 0
        self.retries = 0
        self.failovers = 0
        self.aborts = 0
        self.recoveries = 0

    # -- query mode -----------------------------------------------------------

    def _gated(self, kinds: Iterable[str],
               entity: str) -> tuple[FaultSpec, ...]:
        """The plan's ``kinds`` windows that ``entity`` is gated into."""
        key = kinds if isinstance(kinds, tuple) else tuple(kinds)
        memo = self._gate_memo.get(key)
        if memo is None:
            memo = self._gate_memo[key] = (self.plan.specs_of(key), {})
        specs_of, by_entity = memo
        gated = by_entity.get(entity)
        if gated is None:
            applies = self.plan.applies
            gated = by_entity[entity] = tuple(
                spec for spec in specs_of if applies(spec, entity))
        return gated

    def active_kinds(self, now: float) -> frozenset[str]:
        """The kinds with a window open at ``now``, on any entity.

        A kind outside the answer has no active window, so
        :meth:`active` of that kind is None and its :meth:`factor` 1.0
        on every entity: a caller can skip the query.
        """
        interval = bisect_right(self._bounds, now)
        kinds = self._kinds_memo.get(interval)
        if kinds is None:
            kinds = self._kinds_memo[interval] = frozenset(
                spec.kind for spec in self.plan.specs
                if spec.active_at(now))
        return kinds

    def active(self, kind: str, entity: str,
               now: float) -> Optional[FaultSpec]:
        """The first active, gated window of ``kind`` on ``entity``."""
        for spec in self._gated((kind,), entity):
            if spec.active_at(now):
                return spec
        return None

    def first_active(self, kinds: Iterable[str], entity: str,
                     now: float) -> Optional[FaultSpec]:
        """The first active, gated window among ``kinds`` on ``entity``."""
        for spec in self._gated(kinds, entity):
            if spec.active_at(now):
                return spec
        return None

    def clear_time(self, kinds: Iterable[str], entity: str,
                   now: float) -> float:
        """Earliest time every active window among ``kinds`` has ended."""
        clear = now
        for spec in self._gated(kinds, entity):
            if spec.active_at(now):
                clear = max(clear, spec.end)
        return clear

    def next_break(self, kinds: Iterable[str], entity: str, after: float,
                   before: float) -> Optional[FaultSpec]:
        """Earliest gated window opening strictly inside (after, before)."""
        best: Optional[FaultSpec] = None
        for spec in self._gated(kinds, entity):
            if after < spec.start < before:
                if best is None or spec.start < best.start:
                    best = spec
        return best

    def factor(self, kind: str, entity: str, now: float) -> float:
        """Combined severity multiplier of active ``kind`` windows (1.0
        when none are active).

        Constant between the gated windows' boundaries, so it is
        computed once per (kind, entity, interval between boundaries).
        """
        key = (kind, entity)
        memo = self._factor_memo.get(key)
        if memo is None:
            specs = self._gated((kind,), entity)
            memo = self._factor_memo[key] = (
                specs, _boundaries(specs), {})
        specs, bounds, by_interval = memo
        interval = bisect_right(bounds, now)
        factor = by_interval.get(interval)
        if factor is None:
            factor = 1.0
            for spec in specs:
                if spec.active_at(now):
                    factor *= spec.severity
            by_interval[interval] = factor
        return factor

    def wedged(self, entity: str, born: float,
               now: float) -> Optional[FaultSpec]:
        """The wedge a process born at ``born`` (plan clock) carries.

        Wedge kinds (:data:`~repro.faults.plan.WEDGE_KINDS`) are
        process states, not windows: a process alive when the window
        opens adopts the fault and keeps it until death, while a
        replacement spawned after the open starts clean.  Hence the
        adoption rule ``born <= spec.start <= now`` -- the window end is
        deliberately ignored.
        """
        for spec in self._gated(WEDGE_KINDS, entity):
            if born <= spec.start <= now:
                return spec
        return None

    def crashed_isps(self, now: float) -> frozenset[str]:
        """ISP names whose upload-server groups are dark at ``now``.

        Each active ``server_crash`` darkens every group it applies to,
        so an ``isp:*`` or ``*`` target darkens all four, as its opening
        interrupts all four.  The answer only changes at a window
        boundary, so it is computed once per interval between
        consecutive boundaries.
        """
        interval = bisect_right(self._bounds, now)
        down = self._crash_memo.get(interval)
        if down is None:
            applies = self.plan.applies
            down = self._crash_memo[interval] = frozenset(
                name for spec in self.plan.specs_of(("server_crash",))
                if spec.active_at(now)
                for name in _UPLOAD_GROUPS if applies(spec, name))
        return down

    def rng(self, label: str):
        """A jitter substream tied to the plan seed (backoff jitter)."""
        return substream(self.plan.seed, f"jitter:{label}")

    # -- engine mode ----------------------------------------------------------

    def register(self, entity: Tuple[str, str], process: Process) -> None:
        """Expose ``process`` to faults targeting ``(domain, name)``.

        ``process`` is duck-typed: it needs only ``interrupt(cause)``,
        called once per matching window that opens while registered.
        Waiters are interrupted in registration order, across entities;
        registering a waiter again after :meth:`unregister` moves it to
        the end.
        """
        self._registered[entity, id(process)] = process

    def unregister(self, entity: Tuple[str, str],
                   process: Process) -> None:
        self._registered.pop((entity, id(process)), None)

    def bind(self, sim: Simulator,
             kinds: Optional[Iterable[str]] = None) -> None:
        """Schedule one activation callback per fault window.

        ``kinds`` restricts binding to the given fault kinds (the cloud
        engine binds only cloud-domain kinds; AP windows run on the
        benchrig's own replay clocks and are consumed via queries).
        The bound interrupt-kind windows are what :meth:`exposed`
        answers from.
        """
        specs = self.plan.specs if kinds is None \
            else self.plan.specs_of(kinds)
        for spec in specs:
            sim.call_at(spec.start, self._activate, spec)
            if spec.kind in INTERRUPT_KINDS:
                starts, windows = self._openings.setdefault(spec.domain,
                                                            ([], []))
                at = bisect_right(starts, spec.start)
                starts.insert(at, spec.start)
                windows.insert(at, spec)

    def exposed(self, entity: Tuple[str, str], now: float,
                until: float) -> bool:
        """Can a bound window interrupt a wait on ``entity`` over
        ``(now, until]``?

        True iff a bound interrupt-kind window that applies to the
        entity opens after ``now`` and at or before ``until``.  The
        activations were scheduled at bind, ahead of every other event:
        a window opening at ``now`` has already fired, and one opening
        at ``until`` fires before the wait's own deadline event.  Only
        the windows opening inside the wait evaluate the entity's
        probability gate.
        """
        opening = self._openings.get(entity[0])
        if opening is None:
            return False
        starts, windows = opening
        for j in range(bisect_right(starts, now), len(starts)):
            if starts[j] > until:
                return False
            if self.plan.applies(windows[j], entity[1]):
                return True
        return False

    def _activate(self, spec: FaultSpec) -> None:
        """A window just opened: interrupt matching registered work, in
        registration order."""
        self.injected += 1
        self.metrics.counter("repro_faults_injected_total",
                             kind=spec.kind).inc()
        if spec.kind not in INTERRUPT_KINDS:
            return
        domain = spec.domain
        applies = self.plan.applies
        targets = [proc for (entity, _), proc in self._registered.items()
                   if entity[0] == domain and applies(spec, entity[1])]
        for proc in targets:
            proc.interrupt(cause=spec)

    # -- scoreboard -----------------------------------------------------------

    def impact(self, spec: FaultSpec) -> None:
        self.impacts += 1
        self.metrics.counter("repro_faults_impacts_total",
                             kind=spec.kind).inc()

    def retry(self, layer: str) -> None:
        self.retries += 1
        self.metrics.counter("repro_faults_retries_total",
                             layer=layer).inc()

    def failover(self, layer: str) -> None:
        self.failovers += 1
        self.metrics.counter("repro_faults_failovers_total",
                             layer=layer).inc()

    def abort(self, layer: str) -> None:
        self.aborts += 1
        self.metrics.counter("repro_faults_aborts_total",
                             layer=layer).inc()

    def recover(self, layer: str, seconds: float) -> None:
        """A task finished successfully after being impacted: MTTR."""
        self.recoveries += 1
        self.metrics.counter("repro_faults_recoveries_total",
                             layer=layer).inc()
        self.metrics.histogram("repro_faults_recovery_seconds").observe(
            seconds)

    def scoreboard(self) -> dict:
        return {"injected": self.injected, "impacts": self.impacts,
                "retries": self.retries, "failovers": self.failovers,
                "aborts": self.aborts, "recoveries": self.recoveries}
