"""The cloud task machine: every task of a replay, as table-driven state.

:class:`TaskMachine` is the one implementation of a cloud task, with and
without fault injection: a replay with no fault plan runs it over an
empty plan, with no resilience policies.  Per-task state lives in
typed columns only: what a task reads of its file and user (file row,
size, access bandwidth, ISP code), gathered once from the catalog's and
the users' columns -- a replay builds no catalog or user row -- and its
phase code.  Every other per-task slot (waiter, in-flight event, VM
slot, retry count) is a ``dict`` entry that lives only while its phase
does, and an attempt's session outcome or fetch pool rides in the
arguments of its timeout.  Every hop is a plain scheduled callback that
indexes into those columns -- no generators, no Process objects, no
``yield`` plumbing.  The arrival order is batch-computed with numpy up
front; single-element reads of an ``array``/``bytearray`` are several
times cheaper than numpy scalar indexing.  Each task's
outcome is written straight into the columns of the replay's
:class:`~repro.cloud.system.RunTable`; the machine builds no per-task
result, record, flow or admission object, and writes only what a later
decision reads.  A flow row is (task, server group, start, end, rate):
its popularity, rejection and barrier-crossing flags are derived from
those after the run, as are the pools' upload gauges and the content
database's request counts.

The machine replaced per-task generator coroutines, and its output is
pinned by the golden digests (fault-free and faulted alike).  That
rests on two invariants:

* **Hop structure.**  Every hop is one scheduled callback at a fixed
  ``seq`` position.  The per-request ``call_at`` storm is replaced by
  one engine feed (:meth:`~repro.sim.engine.Simulator.feed`) of a
  stable argsort of the request times -- order-preserving because the
  old start events did no observable work before deferring to an
  immediate ``call_in(0, ...)``, which is the ``_begin`` hop the feed
  fires.  The feed takes one sequence number per distinct arrival time,
  as the arrival cursor it replaced did with one heap entry each.
* **Draw order.**  All randomness comes from the one shared per-run
  ``rng`` stream, so event order *is* draw order.  The machine performs
  each draw inside the same hop, in the same argument order.

Hop map.  A task is ``_begin`` (cache lookup, coalescing, the VM-slot
request), then its own pre-download attempts, the fetch lag, and its
fetch attempts:

* A pre-download attempt costs **one** hop.  ``_start_predownload``
  runs ``session.simulate`` inline in the hop that starts the attempt
  (``_begin``'s, the slot grant's or a backoff's), then waits one
  timeout for the transfer.
* A fetch attempt is one timeout from ``_fetch_attempt`` to its end;
  the lag schedules the first attempt directly.
* Under a plan with a cloud window, a wait runs to a stored deadline:
  no timeout if the deadline is not after now, and a second if the
  first fires short of it by rounding.
* vm_stall backoff, retry backoff, the stalled-VM stagnation timeout
  and the wait for a dark ISP group are one timeout hop each.  Under an
  empty plan none of them occurs.

Interrupt contract.  A session or fetch wait asks
:meth:`FaultInjector.exposed` at its start whether a bound
interrupt-kind window that applies to its entity opens in ``(start,
deadline]``.  Only such an *exposed* wait registers its waiter
(:class:`_Task`) with :meth:`FaultInjector.register` for its span and
token-guards its deadline timeout (``_exposed_due``); any other wait
is one untokened timeout straight to the attempt's end
(``_pre_attempt_end``, ``_fetch_end``).  A plan
with no cloud window exposes nothing, so the machine does not ask.  The rule is
exact: the injector schedules its activations at bind, before any
machine event, so a window opening at ``s`` fires first among the
events at ``s`` and interrupts exactly the waits with ``start < s <=
deadline``.  Both kinds of wait take the same hops, hence the same
seqs.  ``_Task.interrupt`` behaves exactly as
:meth:`Process.interrupt`: a done task ignores it; otherwise it counts
``sim.interrupts`` and schedules an immediate throw carrying the
waiter's current resume token.  Every wake-up of an exposed wait bumps
the token, so a throw that lands after the deadline timeout at the same
instant -- or a deadline timeout after a throw -- is dropped as stale.
A ``seed_death`` on a non-P2P file (no swarm to kill) is received and
ignored: the wait resumes to the same deadline.  Only ``server_crash``
targets the ISP domain, so it is the one interrupt a fetch receives.
"""

from __future__ import annotations

from array import array
from functools import partial
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from repro.cloud.fetch import FetchSpeedModel
from repro.cloud.system import (
    FETCH_DONE,
    FETCH_REJECTED,
    GROUP_CODES,
    REJECTED_GROUP,
    RunTable,
    _array,
    _floats,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import CLOUD_KINDS
from repro.faults.policies import ResiliencePolicies
from repro.paper import FETCH_SPEED_MEAN
from repro.sim.engine import Interrupt, SimulationError, Simulator
from repro.transfer.session import DownloadOutcome
from repro.workload.generator import Workload

if TYPE_CHECKING:
    from repro.cloud.system import XuanfengCloud

#: ``admit``'s default ``exclude``: no server group is dark.
_NO_GROUPS: frozenset[str] = frozenset()

# Phase codes stored in the machine's phase table.
PHASE_NEW = 0          # not started yet
PHASE_COALESCE = 1     # waiting on another task's in-flight pre-download
PHASE_SLOT_WAIT = 2    # waiting FIFO for a pre-downloader VM slot
PHASE_SESSION = 3      # own pre-download attempt in flight
PHASE_LAG = 4          # user think-time before the fetch
PHASE_FETCH = 5        # fetch flow in progress
PHASE_DONE = 6         # terminal
PHASE_STALL = 7        # a stalled VM burns the stagnation timeout
PHASE_PRE_BACKOFF = 8  # waiting to retry a pre-download attempt
PHASE_FETCH_BACKOFF = 9  # waiting to retry a fetch


class _Task:
    """Event-waiter and interrupt target for one machine task.

    Quacks like a :class:`~repro.sim.engine.Process` just enough to sit
    in ``Event._waiters`` and in the fault injector's registry: the
    engine resumes waiters via ``call_in(0, waiter._step, value, None,
    waiter._resume_token)``, so all the machine needs is a token slot,
    a ``_step`` that routes the wake-up to the right phase handler, and
    ``interrupt``/``done`` for fault delivery.
    """

    __slots__ = ("machine", "idx", "_resume_token")

    def __init__(self, machine: "TaskMachine", idx: int):
        self.machine = machine
        self.idx = idx
        self._resume_token = 0

    @property
    def done(self) -> bool:
        return self.machine.phase[self.idx] == PHASE_DONE

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the task's current wait."""
        if self.done:
            return
        sim = self.machine.sim
        sim.interrupts += 1
        sim._schedule_throw(self, Interrupt(cause))

    def _step(self, value: Any = None, error: Optional[BaseException] = None,
              token: Optional[int] = None) -> None:
        if token is not None and token != self._resume_token:
            return   # stale wake-up from a wait this task already left
        self._resume_token += 1
        machine = self.machine
        idx = self.idx
        phase = machine.phase[idx]
        if error is not None:
            if not isinstance(error, Interrupt):
                raise error
            if phase == PHASE_SESSION:
                machine._session_interrupted(idx, error.cause)
                return
            if phase == PHASE_FETCH:
                machine._fetch_end(idx, machine.exposure[idx][1],
                                   error.cause)
                return
        elif phase == PHASE_COALESCE:
            machine._coalesce_done(idx, value)
            return
        elif phase == PHASE_SLOT_WAIT:
            machine._slot_granted(idx, value)
            return
        raise SimulationError(
            f"task {idx} resumed in phase {phase}")


class TaskMachine:
    """Runs every task of one cloud replay without generator coroutines.

    Each task's outcome goes straight into the columns of
    :attr:`table` (a :class:`~repro.cloud.system.RunTable`); the
    machine allocates no per-task result, record, flow or admission
    object.  ``faults`` is the bound injector (an empty plan when the
    cloud has none); ``policies`` None means no retry and no
    checkpoint-resume.
    """

    def __init__(self, cloud: "XuanfengCloud", sim: Simulator,
                 workload: Workload, rng: np.random.Generator,
                 faults: FaultInjector,
                 policies: Optional[ResiliencePolicies]):
        self.cloud = cloud
        self.sim = sim
        self.rng = rng
        self.faults = faults
        self._retry = policies.retry if policies is not None else None
        self._resume = policies is not None and policies.checkpoint_resume
        # A plan with no cloud window activates nothing, so the
        # per-attempt window queries are skipped: every answer would be
        # "nothing active" and "not exposed".
        self._windows = bool(faults.plan.specs_of(CLOUD_KINDS))
        # A record's ``average_speed`` under an injector is bytes over
        # the elapsed time; without one it is the rate the session or
        # the admission gave (the two differ in the last bits).
        self._measured = cloud.faults is not None

        columns = workload.request_columns()
        n = self.n = len(workload.requests)
        table = self.table = RunTable(columns)
        files = columns.files
        file_rows = columns.file_rows

        # What a task reads of its file and user, gathered once from
        # the catalog's and the users' columns into typed per-task
        # columns: its file's row and size, its user's access bandwidth
        # and the admission row of its user's ISP (one per distinct
        # ISP, so the per-fetch path never hashes an ISP member).  The
        # rest is per file, by row: the content id (the key of every
        # per-file structure), protocol, weekly demand and P2P flag.
        # Scalar reads of an ``array``/``bytearray``/list cell are
        # several times cheaper than numpy scalar indexing.
        self.file_row = _array("q", file_rows)
        self.size = _array("d", files.column("size")[file_rows])
        self.bandwidth = _array("d", columns.users.column(
            "access_bandwidth")[columns.user_rows])
        uploads = cloud.uploads
        isps, codes = table.user_isps()
        self.rows = [uploads.admission_row(isp) for isp in isps]
        self.isp = bytearray(codes.astype(np.uint8))
        self.file_ids = files.file_ids()
        self.protocols = files.values("protocol")
        self.demands = files.demands().tolist()
        self.p2p = bytearray(protocol.is_p2p for protocol in self.protocols)

        # Per-task phase codes (``PHASE_*``).  Every other per-task
        # slot is kept by task only while the task's phase needs it: a
        # ``dict`` entry popped when the phase ends.  ``waiters`` holds
        # the task's ``_Task`` from its first wait on an event or a
        # window until it is done, ``events`` an owner's in-flight
        # pre-download event and ``slots`` its VM slot until its
        # pre-download ends.  The value an attempt's end needs (the
        # session's outcome, the fetch's pool) rides in its timeout's
        # arguments, or in ``exposure`` for a registered wait.
        self.phase = bytearray(n)
        self.waiters: dict[int, _Task] = {}
        self.events: dict[int, Any] = {}
        self.slots: dict[int, Any] = {}

        # Attempt state.  Under a plan with a window, the current
        # attempt's start and deadline are float columns (see
        # ``_wait``); without one an attempt is never cut short, and a
        # fetch has one attempt, from ``fetch_start``.  Across attempts
        # the run table's byte, traffic and peak cells accumulate the
        # committed checkpoint and the totals.  What only a fault sets
        # is kept by task, for the tasks it touched: the attempts a
        # retry has ended (see ``_backoff``; reset for the fetch by
        # ``_pre_finish``), the impacted tasks, each backoff jitter
        # stream (created on first draw, as a stream depends only on its
        # label) and, per registered wait, its entity and its attempt's
        # value.
        self.attempt_start = _floats(n) if self._windows else None
        self.deadline = _floats(n) if self._windows else None
        self.attempts: dict[int, int] = {}
        self.impacted: set[int] = set()
        self.jitter: dict[int, np.random.Generator] = {}
        self.exposure: dict[int, tuple] = {}

        # Hot-loop bindings: every callback below runs tens of
        # thousands of times per replay, so attribute chains that are
        # constant for the run (bound methods, config scalars, table
        # columns) are resolved once here.
        config = cloud.config
        self._call_in = sim.call_in
        self._sim_event = sim.event
        self._rng_random = rng.random
        self._rng_std_normal = rng.standard_normal
        self._collaborative = config.collaborative_cache
        self._lag_median = config.fetch_lag_median
        self._lag_sigma = config.fetch_lag_sigma
        self._max_fetch_rate = config.max_fetch_rate
        self._admit = uploads.admit
        # A flow row's server group, by the admitting pool.
        self._group_of = {pool: GROUP_CODES[isp]
                          for isp, pool in uploads.pools.items()}
        # The LRU's own ``get`` (recency refresh + hit/miss counters);
        # binding it directly skips the storage pool's one-line
        # ``lookup`` wrapper frame on every request.  Returns the
        # stored value (the file size) or ``None``.
        self._cache_get = cloud.pool._cache.get
        self._in_flight = cloud._in_flight
        self._session_for = cloud.fleet.session_for
        self._account = cloud.fleet.account
        self._record_attempt = cloud.database.record_attempt
        self._exposed = faults.exposed
        self._stagnation_timeout = config.stagnation_timeout
        # A fetch's fault entity, by the admitting pool (hashing an
        # ``ISP`` member is a Python-level call).
        self._entity_of = {pool: ("isp", isp.value)
                           for isp, pool in uploads.pools.items()}
        self.pre_finish = table.pre_finish
        self.pre_bytes = table.pre_bytes
        self.cache_hit = table.cache_hit
        self.fetch_start = table.fetch_start
        self.fetch_finish = table.fetch_finish
        self.fetch_bytes = table.fetch_bytes
        self.fetch_rate = table.fetch_rate
        self.fetch_state = table.fetch_state
        self.fetch_path = table.fetch_path
        self._order_append = table.order.append
        self._flow_task = table.flow_task.append
        self._flow_group = table.flow_group.append
        self._flow_start = table.flow_start.append
        self._flow_end = table.flow_end.append
        self._flow_rate = table.flow_rate.append

        # Specialised speed sampler, ``speed(bandwidth, quality)``.
        # With the stock model (always, outside subclassing tests) the
        # whole per-fetch draw chain -- server-rate lognormal, path-cap
        # lognormal, degradation coin -- is inlined into one closure
        # over the model's constants: the same draws from the same
        # stream in the same order as ``FetchSpeedModel.sample_speed`` +
        # ``PathQuality.sample_cap``, without their method dispatch and
        # self-attribute traffic.
        model = cloud.fetch_model
        if type(model) is FetchSpeedModel:
            np_exp = np.exp
            std_normal = rng.standard_normal
            rng_random = rng.random
            rate_median = model.server_rate_median
            rate_sigma = model.server_rate_sigma
            rate_cap = model.server_rate_cap
            degrade_p = model.unknown_degradation_probability
            degrade_low = model.unknown_degradation_low
            degrade_span = model.unknown_degradation_high - degrade_low

            def _speed(bandwidth: float, quality) -> float:
                # ``sigma * z`` is ``rng.normal(0.0, sigma)`` exactly:
                # numpy computes ``0.0 + sigma * z`` from the same draw,
                # which differs only in the sign of a zero (exp -> 1.0).
                speed = min(
                    rate_median * float(np_exp(rate_sigma * std_normal())),
                    rate_cap,
                    float(quality.cap_median *
                          np_exp(quality.cap_sigma * std_normal())),
                    bandwidth)
                if rng_random() < degrade_p:
                    speed *= degrade_low + degrade_span * rng_random()
                return speed

            self._speed = _speed
        else:
            self._speed = partial(_model_speed, model.sample_speed, rng)

        self._times = columns.times

    def start(self) -> None:
        """Feed every arrival to the engine; a stable sort keeps
        equal-time requests in submission order, matching the seq order
        of a per-request ``call_at`` loop.  The task indices go as an
        ``array('q')``, copied from the sort without a Python int each."""
        times = self._times
        order = np.argsort(times, kind="stable")
        items = array("q")
        items.frombytes(order.astype(np.int64, copy=False).data.cast("B"))
        self.sim.feed(times[order], self._begin, items)

    # -- pre-download ------------------------------------------------------------
    #
    # Session attempts run until one succeeds, the retry budget is
    # spent, or (no policies) the first attempt resolves.  Faults land
    # as interrupts while an attempt is in flight (vm_stall,
    # seed_death) or shape an attempt at its boundary (a stalled VM at
    # attempt start, pool_pressure at insert).  With checkpoint-resume
    # on, a restarted attempt fetches only the uncommitted remainder.

    def _begin(self, idx: int) -> None:
        cloud = self.cloud
        sim = self.sim
        file_id = self.file_ids[self.file_row[idx]]
        start = sim._now
        collaborative = self._collaborative
        if collaborative and self._cache_get(file_id) is not None:
            self.pre_finish[idx] = start
            self.pre_bytes[idx] = self.size[idx]
            self.cache_hit[idx] = True
            self._after_predownload(idx, True)
            return

        in_flight = self._in_flight.get(file_id) \
            if collaborative else None
        if in_flight is not None:
            self.table.coalesced[idx] = True
            self.phase[idx] = PHASE_COALESCE
            in_flight._add_waiter(self._waiter(idx))
            return

        event = self._sim_event()
        self._in_flight[file_id] = event
        self.events[idx] = event
        vm_slots = cloud._vm_slots
        if vm_slots is not None:
            acquire = vm_slots.acquire(sim)
            self.phase[idx] = PHASE_SLOT_WAIT
            acquire._add_waiter(self._waiter(idx))
            return
        self._start_predownload(idx)

    def _done(self, idx: int) -> None:
        """Mark the task terminal and drop what it kept by task."""
        self.phase[idx] = PHASE_DONE
        self.waiters.pop(idx, None)
        if self._retry is not None:
            self.attempts.pop(idx, None)
            self.jitter.pop(idx, None)

    def _waiter(self, idx: int) -> _Task:
        waiter = self.waiters.get(idx)
        if waiter is None:
            waiter = self.waiters[idx] = _Task(self, idx)
        return waiter

    def _slot_granted(self, idx: int, slot: Any) -> None:
        self.slots[idx] = slot
        self._start_predownload(idx)

    def _backoff(self, idx: int, layer: str) -> Optional[float]:
        """Count a retry of the attempt that just failed at ``layer``
        and return its backoff, or None when no policy allows one."""
        retry = self._retry
        attempt = self.attempts.get(idx, 0) + 1
        if retry is None or not retry.allows(attempt + 1):
            return None
        self.attempts[idx] = attempt
        self.faults.retry(layer)
        jitter = self.jitter.get(idx)
        if jitter is None:
            jitter = self.jitter[idx] = self.faults.rng(
                f"{layer}:{self.table.task_id(idx)}")
        return retry.backoff(attempt, jitter)

    def _wait(self, idx: int, now: float, duration: float, entity: tuple,
              end, value) -> None:
        """Run ``end(idx, value)`` after ``duration``, a wait on
        ``entity``; ``value`` is what the attempt's end needs.

        With no window in the plan that is one timeout.  Otherwise the
        wait ends at its deadline -- at once if that is not after now --
        and it registers with the injector, and its timeout is
        token-guarded, iff a window can open inside it.  A registered
        wait keeps its entity and ``value`` in ``exposure``.
        """
        if not self._windows:
            self._call_in(duration, end, idx, value)
            return
        self.attempt_start[idx] = now
        deadline = self.deadline[idx] = now + duration
        if not now < deadline:
            end(idx, value)
            return
        # The wait ends when its timeout fires, at ``now + (deadline -
        # now)`` -- which rounding can put one ulp past the deadline --
        # or, re-sleeping, at the deadline.
        if self._exposed(entity, now,
                         max(deadline, now + (deadline - now))):
            waiter = self._waiter(idx)
            self.faults.register(entity, waiter)
            self.exposure[idx] = (entity, value)
            self._call_in(deadline - now, self._exposed_due, idx,
                          waiter._resume_token, end)
        else:
            self._call_in(deadline - now, end, idx, value)

    def _exposed_due(self, idx: int, token: int, end) -> None:
        """An exposed wait's deadline timeout.  Token-guarded as
        ``Process._step``: a timeout whose wait an interrupt already
        ended is stale."""
        waiter = self.waiters.get(idx)
        if waiter is None or token != waiter._resume_token:
            return   # the wait (or the task) has since ended
        waiter._resume_token = token + 1
        self._continue(idx, end)

    def _continue(self, idx: int, end) -> None:
        """Continue an exposed wait: ``end(idx, value)`` if its deadline
        has come, else a token-guarded timeout to it."""
        now = self.sim._now
        deadline = self.deadline[idx]
        if now < deadline:
            self._call_in(deadline - now, self._exposed_due, idx,
                          self.waiters[idx]._resume_token, end)
        else:
            end(idx, self.exposure[idx][1])

    def _wait_over(self, idx: int, now: float, fault, end, value) -> bool:
        """Under a windowed plan, at an attempt's end: re-arm a timeout
        that fired short of the deadline by rounding and return False,
        else end the wait's registration, if any, and return True."""
        if fault is None:
            deadline = self.deadline[idx]
            if now < deadline:
                self._call_in(deadline - now, end, idx, value)
                return False
        exposure = self.exposure.pop(idx, None)
        if exposure is not None:
            self.faults.unregister(exposure[0], self.waiters[idx])
        return True

    def _start_predownload(self, idx: int) -> None:
        row = self.file_row[idx]
        file_id = self.file_ids[row]
        now = self.sim._now
        dead = False
        if self._windows:
            inj = self.faults
            kinds = inj.active_kinds(now)
            stall = inj.active("vm_stall", file_id, now) \
                if "vm_stall" in kinds else None
            if stall is not None:
                self.impacted.add(idx)
                inj.impact(stall)
                backoff = self._backoff(idx, "cloud-pre")
                if backoff is not None:
                    clear = inj.clear_time(("vm_stall",), file_id, now)
                    self.phase[idx] = PHASE_PRE_BACKOFF
                    self._call_in(clear - now + backoff,
                                  self._start_predownload, idx)
                    return
                # No recovery: the stalled VM burns the session
                # stagnation timeout and the task dies.
                self.phase[idx] = PHASE_STALL
                self._call_in(self._stagnation_timeout, self._pre_stalled,
                              idx)
                return
            dead = self.p2p[row] and "seed_death" in kinds and inj.active(
                "seed_death", file_id, now) is not None
        # With checkpoint-resume on, ``pre_bytes`` holds the committed
        # bytes and the attempt fetches the remainder.
        size = self.size[idx]
        outcome = self._session_for(
            file_id, max(size - self.pre_bytes[idx], 0.0)
            if self._resume else size, self.protocols[row],
            self.demands[row], 1.0 if dead else None).simulate(self.rng)
        self.phase[idx] = PHASE_SESSION
        self._wait(idx, now, outcome.duration, ("file", file_id),
                   self._pre_attempt_end, outcome)

    def _session_interrupted(self, idx: int, spec) -> None:
        if spec.kind != "seed_death" or self.p2p[self.file_row[idx]]:
            self._pre_attempt_end(idx, self.exposure[idx][1], spec)
        else:
            # seed_death on a non-P2P file: no swarm to kill.
            self._continue(idx, self._pre_attempt_end)

    def _pre_attempt_end(self, idx: int, outcome: DownloadOutcome,
                         fault=None) -> None:
        """End the pre-download attempt that gave ``outcome``: at its
        deadline (``fault`` None; an unexposed wait's timeout lands here
        directly) or interrupted by the window ``fault``."""
        now = self.sim._now
        if self._windows and not self._wait_over(
                idx, now, fault, self._pre_attempt_end, outcome):
            return
        file_id = self.file_ids[self.file_row[idx]]
        if fault is not None:
            self.impacted.add(idx)
            self.faults.impact(fault)
            remaining = max(self.size[idx] - self.pre_bytes[idx], 0.0)
            elapsed = now - self.attempt_start[idx]
            frac = min(elapsed / outcome.duration, 1.0) \
                if outcome.duration > 0 else 1.0
            outcome = DownloadOutcome(
                success=False, duration=elapsed,
                bytes_obtained=min(outcome.average_rate * elapsed,
                                   remaining),
                file_size=remaining, average_rate=outcome.average_rate,
                peak_rate=outcome.peak_rate,
                traffic=outcome.traffic * frac,
                failure_cause=f"fault:{fault.kind}")
        self._account(outcome)
        self._record_attempt(file_id, outcome.success)
        table = self.table
        table.pre_traffic[idx] += outcome.traffic
        table.pre_peak[idx] = max(table.pre_peak[idx], outcome.peak_rate)
        obtained = outcome.bytes_obtained
        if self._resume and obtained > 0:
            self.pre_bytes[idx] += obtained
        if outcome.success:
            size = self.size[idx]
            duration = now - self._times.item(idx)
            self._pre_finish(idx, True, size,
                             size / duration
                             if self._measured and duration > 0
                             else outcome.average_rate, None)
            return
        wait = self._backoff(idx, "cloud-pre")
        if wait is not None:
            if fault is not None:
                clear = self.faults.clear_time((fault.kind,), file_id, now)
                wait += max(clear - now, 0.0)
            self.phase[idx] = PHASE_PRE_BACKOFF
            self._call_in(wait, self._start_predownload, idx)
            return
        self._pre_finish(idx, False,
                         self.pre_bytes[idx] if self._resume else obtained,
                         outcome.average_rate, outcome.failure_cause)

    def _pre_stalled(self, idx: int) -> None:
        self._pre_finish(idx, False, self.pre_bytes[idx], 0.0,
                         "fault:vm_stall")

    def _pre_finish(self, idx: int, success: bool, obtained: float,
                    rate: float, cause: Optional[str]) -> None:
        """End the task's own pre-download: free its VM slot, admit the
        file to the pool, finish the task's row (its traffic and peak
        are written) and wake the tasks coalesced on it (the event's
        value is this task's index)."""
        cloud = self.cloud
        sim = self.sim
        now = sim._now
        file_id = self.file_ids[self.file_row[idx]]
        slot = self.slots.pop(idx, None)
        if slot is not None:
            cloud._vm_slots.release(slot, sim)
        self._in_flight.pop(file_id, None)
        if idx in self.impacted:
            self.impacted.discard(idx)
            inj = self.faults
            if success:
                inj.recover("cloud-pre", now - self._times.item(idx))
            else:
                inj.abort("cloud-pre")
        if success and self._collaborative:
            inj = self.faults
            pressure = inj.active("pool_pressure", "pool", now) \
                if self._windows and "pool_pressure" in inj.active_kinds(
                    now) else None
            if pressure is not None:
                # Disk-full pressure: the finished file cannot be
                # admitted to the pool (later requests miss).
                inj.impact(pressure)
            else:
                cloud.pool.insert(file_id, self.size[idx])
                cloud.database.set_cached(file_id, True)
        table = self.table
        self.pre_finish[idx] = now
        self.pre_bytes[idx] = obtained
        table.pre_rate[idx] = rate
        if cause is not None:
            table.cause[idx] = cause
        # The fetch counts its attempts, and draws its jitter, afresh.
        self.attempts.pop(idx, None)
        self.jitter.pop(idx, None)
        self.events.pop(idx).trigger(idx)
        self._after_predownload(idx, success)

    def _coalesce_done(self, idx: int, owner: int) -> None:
        """Wake from task ``owner``'s pre-download of the same file;
        its row was written in the hop that woke this one."""
        self.pre_finish[idx] = self.sim._now
        success = self.table.success[owner]
        if success:
            # Count the warm hit.
            self._cache_get(self.file_ids[self.file_row[idx]])
            self.pre_bytes[idx] = self.size[idx]
            self.cache_hit[idx] = True
        else:
            self.pre_bytes[idx] = self.pre_bytes[owner]
            self.table.cause[idx] = self.table.cause[owner]
        self._after_predownload(idx, success)

    def _after_predownload(self, idx: int, success: bool) -> None:
        self._order_append(idx)
        if not success:
            self._done(idx)
            return
        self.table.success[idx] = True
        # ``sigma * z`` is ``rng.normal(0.0, sigma)`` exactly (see
        # ``_speed``).
        lag = self._lag_median * float(
            np.exp(self._lag_sigma * self._rng_std_normal()))
        self.phase[idx] = PHASE_LAG
        # The engine fires the first attempt at exactly ``now + lag``.
        self.fetch_start[idx] = self.sim._now + lag
        self._call_in(lag, self._fetch_attempt, idx)

    # -- fetch -------------------------------------------------------------------
    #
    # Crashed server groups are excluded from admission (the home group
    # being dark forces a barrier-crossing failover); a flow interrupted
    # by server_crash commits its transferred bytes (checkpoint-resume)
    # and retries after the window clears plus backoff.  isp_degrade
    # scales candidate flow rates at admission time.  The attempt's
    # path and rate sit in the task's ``fetch_path``/``fetch_rate``
    # cells until the fetch ends; its pool rides to ``_fetch_end``.

    def _rejected_flow(self, idx: int, now: float) -> None:
        """Append the flow a rejected fetch would have been, at the
        mean fetch speed."""
        self._flow_task(idx)
        self._flow_group(REJECTED_GROUP)
        self._flow_start(now)
        self._flow_end(now + self.size[idx] / FETCH_SPEED_MEAN)
        self._flow_rate(FETCH_SPEED_MEAN)

    def _fetch_attempt(self, idx: int) -> None:
        row = self.rows[self.isp[idx]]
        now = self.sim._now
        bandwidth = self.bandwidth[idx]
        down = _NO_GROUPS
        if self._windows:
            inj = self.faults
            kinds = inj.active_kinds(now)
            if "server_crash" in kinds:
                down = inj.crashed_isps(now)
            admitted = self._admit(
                row, self._speed, bandwidth, down,
                partial(inj.factor, "isp_degrade", now=now)
                if "isp_degrade" in kinds else None)
        else:
            admitted = self._admit(row, self._speed, bandwidth)
        if admitted is None:
            backoff = self._backoff(idx, "cloud-fetch") if down else None
            if backoff is not None:
                # Candidate groups are dark: wait out the longest
                # active crash window and try admission again.
                self.table.retried_rejects.append(now)
                clear = max(self.faults.clear_time(("server_crash",), name,
                                                   now) for name in down)
                self.phase[idx] = PHASE_FETCH_BACKOFF
                self._call_in(max(clear - now, 0.0) + backoff,
                              self._fetch_attempt, idx)
                return
            if idx in self.impacted or row.label in down:
                self.faults.abort("cloud-fetch")
            self._rejected_flow(idx, now)
            self._fetch_failed(idx)
            return
        path, pool, rate = admitted
        if down and row.label in down and not path.privileged:
            self.faults.failover("cloud-fetch")
        self.fetch_path[idx] = path
        self.fetch_rate[idx] = rate
        remaining = self.size[idx]
        if self._resume:
            remaining = max(remaining - self.fetch_bytes[idx], 0.0)
        duration = remaining / rate if rate > 0 else 0.0
        self.phase[idx] = PHASE_FETCH
        if self._windows:
            self._wait(idx, now, duration, self._entity_of[pool],
                       self._fetch_end, pool)
        else:   # ``_wait`` with no window, inlined on the hottest hop
            self._call_in(duration, self._fetch_end, idx, pool)

    def _fetch_end(self, idx: int, pool, fault=None) -> None:
        """End a fetch attempt on ``pool``: at its deadline (``fault``
        None; an unexposed wait's timeout lands here directly) or
        interrupted by the ``server_crash`` window ``fault`` -- the only
        interrupt kind of the ISP domain."""
        now = self.sim._now
        if self._windows:
            if not self._wait_over(idx, now, fault, self._fetch_end, pool):
                return
            start = self.attempt_start[idx]
        else:
            start = self.fetch_start[idx]
        rate = self.fetch_rate[idx]
        pool.release(rate)
        # The flow row, open-coded on the hottest hop.
        self._flow_task(idx)
        self._flow_group(self._group_of[pool])
        self._flow_start(start)
        self._flow_end(now)
        self._flow_rate(rate)
        if fault is None:
            table = self.table
            random = self._rng_random
            size = self.size[idx]
            self.fetch_finish[idx] = now
            self.fetch_bytes[idx] = size
            # ``lo + (hi - lo) * rng.random()`` is the exact computation
            # (and stream consumption) of ``rng.uniform(lo, hi)``
            # without its per-call argument broadcasting.
            table.fetch_traffic[idx] = \
                size * (1.07 + (1.10 - 1.07) * random())
            if self._measured:   # only an injector can impact a task
                duration = now - self.fetch_start[idx]
                if duration > 0:
                    self.fetch_rate[idx] = size / duration
                if idx in self.impacted:
                    self.impacted.discard(idx)
                    self.faults.recover("cloud-fetch", duration)
            table.fetch_peak[idx] = min(
                rate * (1.0 + (1.4 - 1.0) * random()), self._max_fetch_rate)
            self.fetch_state[idx] = FETCH_DONE
            self._done(idx)
            return
        # Commit the checkpoint: the bytes a retry skips, and those a
        # failed fetch reports.
        if self._resume:
            moved = min(rate * (now - start), max(
                self.size[idx] - self.fetch_bytes[idx], 0.0))
            if moved > 0:
                self.fetch_bytes[idx] += moved
        inj = self.faults
        self.impacted.add(idx)
        inj.impact(fault)
        backoff = self._backoff(idx, "cloud-fetch")
        if backoff is not None:
            clear = inj.clear_time(("server_crash",),
                                   self._entity_of[pool][1], now)
            self.phase[idx] = PHASE_FETCH_BACKOFF
            self._call_in(max(clear - now, 0.0) + backoff,
                          self._fetch_attempt, idx)
            return
        inj.abort("cloud-fetch")
        self._fetch_failed(idx)

    def _fetch_failed(self, idx: int) -> None:
        """Record the fetch as rejected; its bytes are the committed
        checkpoint."""
        self.impacted.discard(idx)
        self.fetch_finish[idx] = self.sim._now
        self.fetch_rate[idx] = 0.0
        self.fetch_path[idx] = None
        self.fetch_state[idx] = FETCH_REJECTED
        self._done(idx)


def _model_speed(sample_speed, rng: np.random.Generator,
                 bandwidth: float, quality) -> float:
    """``speed(bandwidth, quality)`` over a custom fetch-speed model."""
    return sample_speed(bandwidth, quality, rng)
