"""The cloud task machine: every task of a replay, as table-driven state.

:class:`FastTaskMachine` is the one implementation of a cloud task, with
and without fault injection.  Per-task state lives in preallocated
parallel tables (phase codes, phase start times, wait deadlines,
reserved flow rates) plus parallel object slots, and every hop is a
plain scheduled callback that indexes into those tables -- no
generators, no Process objects, no ``yield`` plumbing.  The arrival
order is batch-computed with numpy up front; the mutable per-event
scalars live in plain Python lists, whose single-element reads/writes
are several times cheaper than numpy fancy indexing.  Each task's
outcome is written straight into the columns of the replay's
:class:`~repro.cloud.system.RunTable`; the machine builds no per-task
result, record, flow or admission object, and writes only what a later
decision reads.  A flow row is (task, server group, start, end, rate):
its popularity, rejection and barrier-crossing flags are derived from
those after the run, as are the pools' upload gauges and the content
database's request counts.

The machine replaced per-task generator coroutines, and its output is
pinned bit for bit to theirs by the golden digests (fault-free and
faulted alike).  That rests on two invariants:

* **Hop structure.**  Every ``yield`` of the coroutine a task used to
  be cost exactly one scheduled callback at a fixed ``seq`` position;
  the machine schedules exactly one callback in the same position.
  The per-request ``call_at`` storm is replaced by one engine feed
  (:meth:`~repro.sim.engine.Simulator.feed`) of a stable argsort of
  the request times -- order-preserving because the old start events
  did no observable work before deferring to an immediate
  ``call_in(0, ...)``, which is the ``_begin`` hop the feed fires.  The
  feed takes one sequence number per distinct arrival time, as the
  arrival cursor it replaced did with one heap entry each.
* **Draw order.**  All randomness comes from the one shared per-run
  ``rng`` stream, so event order *is* draw order.  The machine performs
  each draw inside the same hop, in the same argument order.

Hop map.  A pre-download session has one of two shapes.  The shape is
chosen once, at construction, by the machine's class, so the fault-free
hot path carries no per-event fault branch:

* fault-free (:class:`FastTaskMachine`): ``_start_predownload``
  schedules the session start (hop 1, all session draws),
  ``_session_timeout`` is the transfer timeout (hop 2) and
  ``_session_done`` the waiting task's resume (hop 3); the fetch is one
  timeout from ``_enter_fetch`` to ``_finish_fetch``.
* faulted (:class:`FaultedTaskMachine`): an attempt costs **one** hop.
  ``_start_predownload`` runs ``session.simulate`` inline in the hop
  that starts the attempt, then waits one token-guarded timeout to the
  deadline (none if the deadline is not after now).  vm_stall backoff,
  retry backoff, the stalled-VM stagnation timeout and (in the fetch)
  the wait for a dark ISP group are one timeout hop each.  A fetch
  attempt is one token-guarded timeout from ``_fetch_attempt`` to
  ``_fetch_end``.

Interrupt contract.  Under faults a task registers its waiter
(:class:`_FastTask`) with :meth:`FaultInjector.register` for the span of
each session or fetch wait.  ``_FastTask.interrupt`` behaves exactly as
:meth:`Process.interrupt`: a done task ignores it; otherwise it counts
``sim.interrupts`` and schedules an immediate throw carrying the
waiter's current resume token.  Every wake-up bumps the token, so a
throw that lands after the deadline timeout at the same instant -- or a
deadline timeout after a throw -- is dropped as stale.  A ``seed_death``
on a non-P2P file (no swarm to kill) and any non-``server_crash``
interrupt of a fetch are ignored: the wait resumes to the same deadline.
"""

from __future__ import annotations

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
    _take,
)
from repro.netsim.isp import ISP
from repro.paper import FETCH_SPEED_MEAN
from repro.sim.engine import Interrupt, SimulationError, Simulator
from repro.transfer.session import DownloadOutcome
from repro.workload.generator import Workload

if TYPE_CHECKING:
    from repro.cloud.system import XuanfengCloud

# Phase codes stored in the machine's phase table.
PHASE_NEW = 0          # not started yet
PHASE_COALESCE = 1     # waiting on another task's in-flight pre-download
PHASE_SLOT_WAIT = 2    # waiting FIFO for a pre-downloader VM slot
PHASE_SESSION = 3      # own pre-download session in flight
PHASE_LAG = 4          # user think-time before the fetch
PHASE_FETCH = 5        # fetch flow in progress
PHASE_DONE = 6         # terminal
PHASE_STALL = 7        # faulted: a stalled VM burns the stagnation timeout
PHASE_PRE_BACKOFF = 8  # faulted: waiting to retry a pre-download attempt
PHASE_FETCH_BACKOFF = 9  # faulted: waiting to retry a fetch


class _FastTask:
    """Event-waiter and interrupt target for one machine task.

    Quacks like a :class:`~repro.sim.engine.Process` just enough to sit
    in ``Event._waiters`` and in the fault injector's registry: the
    engine resumes waiters via ``call_in(0, waiter._step, value, None,
    waiter._resume_token)``, so all the machine needs is a token slot,
    a ``_step`` that routes the wake-up to the right phase handler, and
    ``interrupt``/``done`` for fault delivery.
    """

    __slots__ = ("machine", "idx", "_resume_token")

    def __init__(self, machine: "FastTaskMachine", idx: int):
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
                machine._fetch_interrupted(idx, error.cause)
                return
        elif phase == PHASE_COALESCE:
            machine._coalesce_done(idx, value)
            return
        elif phase == PHASE_SLOT_WAIT:
            machine._slot_granted(idx, value)
            return
        raise SimulationError(
            f"fast task {idx} resumed in phase {phase}")


class FastTaskMachine:
    """Runs every task of one cloud replay without generator coroutines.

    Each task's outcome goes straight into the columns of
    :attr:`table` (a :class:`~repro.cloud.system.RunTable`); the
    machine allocates no per-task result, record, flow or admission
    object.
    """

    def __init__(self, cloud: "XuanfengCloud", sim: Simulator,
                 workload: Workload, rng: np.random.Generator):
        self.cloud = cloud
        self.sim = sim
        self.rng = rng

        columns = workload.request_columns()
        n = self.n = len(workload.requests)
        table = self.table = RunTable(workload.requests, columns)
        self.records = table.records
        self.users = table.users
        # Fetch admission rows, resolved once per user (the per-fetch
        # path then never hashes an ISP member).
        uploads = cloud.uploads
        self.rows = _take([uploads.admission_row(user.isp)
                           for user in columns.users], columns.user_rows)

        # Columnar per-task state: one row per task, written/read by the
        # phase callbacks.  The mutable scalars are plain lists
        # (single-element list indexing beats numpy scalar indexing by
        # ~5x).
        self.phase = [PHASE_NEW] * n

        # Object slots, live only while the owning phase is (``pools``
        # keeps the admitting group's pool, a shared object).
        self.waiters: list[Optional[_FastTask]] = [None] * n
        self.events: list = [None] * n
        self.outcomes: list = [None] * n
        self.slots: list = [None] * n
        self.pools: list = [None] * n

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
        self.pre_start = table.pre_start
        self.pre_finish = table.pre_finish
        self.pre_bytes = table.pre_bytes
        self.cache_hit = table.cache_hit
        self.fetch_start = table.fetch_start
        self.fetch_finish = table.fetch_finish
        self.fetch_rate = table.fetch_rate
        self.fetch_state = table.fetch_state
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
        of a per-request ``call_at`` loop."""
        times = self._times
        order = np.argsort(times, kind="stable")
        self.sim.feed(times[order], self._begin, order.tolist())

    # -- pre-download ------------------------------------------------------------

    def _begin(self, idx: int) -> None:
        cloud = self.cloud
        sim = self.sim
        record = self.records[idx]
        file_id = record.file_id
        start = sim._now
        self.pre_start[idx] = start
        collaborative = self._collaborative
        if collaborative and self._cache_get(file_id) is not None:
            self.pre_finish[idx] = start
            self.pre_bytes[idx] = record.size
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
        """Mark the task terminal and drop its waiter."""
        self.phase[idx] = PHASE_DONE
        self.waiters[idx] = None

    def _waiter(self, idx: int) -> _FastTask:
        waiter = self.waiters[idx]
        if waiter is None:
            waiter = self.waiters[idx] = _FastTask(self, idx)
        return waiter

    def _slot_granted(self, idx: int, slot: Any) -> None:
        self.slots[idx] = slot
        self._start_predownload(idx)

    def _start_predownload(self, idx: int) -> None:
        # The fault-free session shape: a session process of its own.
        self.phase[idx] = PHASE_SESSION
        self._call_in(0.0, self._run_session, idx)

    def _run_session(self, idx: int) -> None:
        # Mirrors the session Process's first step: all of the
        # session's draws happen here, then one timeout spans the
        # transfer.
        outcome = self._session_for(self.records[idx]).simulate(self.rng)
        self.outcomes[idx] = outcome
        self._call_in(outcome.duration, self._session_timeout, idx)

    def _session_timeout(self, idx: int) -> None:
        # Mirrors the third session hop: the session process finishes
        # and schedules the waiting task's resume.
        self._call_in(0.0, self._session_done, idx)

    def _session_done(self, idx: int) -> None:
        cloud = self.cloud
        sim = self.sim
        record = self.records[idx]
        outcome = self.outcomes[idx]
        slot = self.slots[idx]
        if slot is not None:
            cloud._vm_slots.release(slot, sim)
            self.slots[idx] = None
        self._in_flight.pop(record.file_id, None)
        cloud.fleet.account(outcome)
        cloud.database.record_attempt(record.file_id, outcome.success)
        if outcome.success and cloud.config.collaborative_cache:
            cloud.pool.insert(record)
            cloud.database.set_cached(record.file_id, True)
        self.events[idx].trigger(outcome)
        self.events[idx] = None
        self.outcomes[idx] = None
        self._predownloaded(idx, outcome)

    def _predownloaded(self, idx: int, outcome: DownloadOutcome) -> None:
        """Record the task's own pre-download session(s) as ``outcome``."""
        table = self.table
        self.pre_finish[idx] = self.sim._now
        self.pre_bytes[idx] = outcome.bytes_obtained
        table.pre_traffic[idx] = outcome.traffic
        table.pre_rate[idx] = outcome.average_rate
        table.pre_peak[idx] = outcome.peak_rate
        cause = outcome.failure_cause
        if cause is not None:
            table.cause[idx] = cause
        self._after_predownload(idx, outcome.success)

    def _coalesce_done(self, idx: int, outcome: Any) -> None:
        self.pre_finish[idx] = self.sim._now
        if outcome.success:
            self._cache_get(self.records[idx].file_id)  # count the warm hit
            self.pre_bytes[idx] = self.records[idx].size
            self.cache_hit[idx] = True
        else:
            self.pre_bytes[idx] = outcome.bytes_obtained
            self.table.cause[idx] = outcome.failure_cause
        self._after_predownload(idx, outcome.success)

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
        self._call_in(lag, self._enter_fetch, idx)

    # -- fetch -------------------------------------------------------------------

    def _flow(self, idx: int, group: int, start: float, end: float,
              rate: float) -> None:
        """Append one flow row."""
        self._flow_task(idx)
        self._flow_group(group)
        self._flow_start(start)
        self._flow_end(end)
        self._flow_rate(rate)

    def _rejected_flow(self, idx: int, now: float) -> None:
        """Append the flow a rejected fetch would have been, at the
        mean fetch speed."""
        self._flow(idx, REJECTED_GROUP, now,
                   now + self.records[idx].size / FETCH_SPEED_MEAN,
                   FETCH_SPEED_MEAN)

    def _enter_fetch(self, idx: int) -> None:
        start = self.sim._now
        self.fetch_start[idx] = start
        admitted = self._admit(self.rows[idx], start, self._speed,
                               self.users[idx].access_bandwidth)
        if admitted is None:
            self._rejected_flow(idx, start)
            self.fetch_finish[idx] = start
            self.fetch_state[idx] = FETCH_REJECTED
            self._done(idx)
            return

        path, pool, rate = admitted
        self.table.fetch_path[idx] = path
        self.pools[idx] = pool
        self.fetch_rate[idx] = rate
        self.phase[idx] = PHASE_FETCH
        self._call_in(self.records[idx].size / rate if rate > 0 else 0.0,
                      self._finish_fetch, idx)

    def _finish_fetch(self, idx: int) -> None:
        now = self.sim._now
        table = self.table
        random = self._rng_random
        rate = self.fetch_rate[idx]
        pool = self.pools[idx]
        pool.release(rate)
        # ``_flow``, open-coded on the hottest fetch hop.
        self._flow_task(idx)
        self._flow_group(self._group_of[pool])
        self._flow_start(self.fetch_start[idx])
        self._flow_end(now)
        self._flow_rate(rate)
        # ``lo + (hi - lo) * rng.random()`` is the exact computation
        # (and stream consumption) of ``rng.uniform(lo, hi)`` without
        # its per-call argument broadcasting -- bit-identical, ~2x
        # cheaper per draw.
        size = self.records[idx].size
        self.fetch_finish[idx] = now
        table.fetch_bytes[idx] = size
        table.fetch_traffic[idx] = size * (1.07 + (1.10 - 1.07) * random())
        table.fetch_peak[idx] = min(rate * (1.0 + (1.4 - 1.0) * random()),
                                    self._max_fetch_rate)
        self.fetch_state[idx] = FETCH_DONE
        self._done(idx)


def _model_speed(sample_speed, rng: np.random.Generator,
                 bandwidth: float, quality) -> float:
    """``speed(bandwidth, quality)`` over a custom fetch-speed model."""
    return sample_speed(bandwidth, quality, rng)


class FaultedTaskMachine(FastTaskMachine):
    """The task machine under fault injection (``cloud.faults`` set).

    Overrides the two phase handlers where the session shapes differ
    (see the module docstring): ``_start_predownload`` runs attempts
    inline, ``_enter_fetch`` runs resilient fetch attempts.
    """

    def __init__(self, cloud: "XuanfengCloud", sim: Simulator,
                 workload: Workload, rng: np.random.Generator):
        super().__init__(cloud, sim, workload, rng)
        n = self.n
        self.faults = cloud.faults
        policies = cloud.policies
        self._retry = policies.retry if policies is not None else None
        self._resume = policies is not None and policies.checkpoint_resume
        self._stagnation_timeout = cloud.config.stagnation_timeout
        # The isp_degrade multiplier of a candidate group, as
        # ``admit``'s ``rate_scale(label, now)``.
        self._degrade = partial(self.faults.factor, "isp_degrade")
        # Fault-only columns, reset between the pre-download and the
        # fetch.  Backoff jitter streams are created on first draw: most
        # tasks never back off, and a stream depends only on its label.
        self.deadline = [0.0] * n
        self.rate = [0.0] * n
        self.paths: list = [None] * n
        self.attempts = [0] * n
        self.attempt_start = [0.0] * n
        self.committed = [0.0] * n
        self.traffic = [0.0] * n
        self.peak = [0.0] * n
        self.impacted = [False] * n
        self.jitter: list = [None] * n
        # ISP fault-target names (``ISP.value`` is a slow enum property
        # on the per-fetch path).
        self._isp_names = {isp: isp.value for isp in ISP}
        self._isp_entities = {isp: ("isp", isp.value) for isp in ISP}

    # -- faulted pre-download ----------------------------------------------------
    #
    # Session attempts run until one succeeds, the retry budget is
    # spent, or (no policies) the first attempt resolves.  Faults land
    # as interrupts while an attempt is in flight (vm_stall,
    # seed_death) or shape an attempt at its boundary (a stalled VM at
    # attempt start, pool_pressure at insert).  With checkpoint-resume
    # on, a restarted attempt fetches only the uncommitted remainder.

    def _remaining(self, idx: int) -> float:
        size = self.records[idx].size
        return max(size - self.committed[idx], 0.0) if self._resume \
            else size

    def _backoff(self, idx: int, attempt: int, layer: str) -> float:
        jitter = self.jitter[idx]
        if jitter is None:
            jitter = self.jitter[idx] = self.faults.rng(
                f"{layer}:{self.table.task_id(idx)}")
        return self._retry.backoff(attempt, jitter)

    def _sleep(self, idx: int, wake) -> bool:
        """Schedule ``wake(idx, token)`` at the wait's deadline; False
        (nothing scheduled) when the deadline is not after now."""
        now = self.sim._now
        deadline = self.deadline[idx]
        if not now < deadline:
            return False
        self._call_in(deadline - now, wake, idx,
                      self.waiters[idx]._resume_token)
        return True

    def _awake(self, idx: int, token: int) -> bool:
        """Token guard of a deadline timeout, as ``Process._step``: a
        timeout whose wait an interrupt already ended is stale."""
        waiter = self.waiters[idx]
        if waiter is None or token != waiter._resume_token:
            return False   # the task has since finished
        waiter._resume_token = token + 1
        return True

    def _start_predownload(self, idx: int) -> None:
        inj = self.faults
        record = self.records[idx]
        file_id = record.file_id
        attempt = self.attempts[idx] = self.attempts[idx] + 1
        now = self.sim._now
        stall = inj.active("vm_stall", file_id, now)
        if stall is not None:
            self.impacted[idx] = True
            inj.impact(stall)
            retry = self._retry
            if retry is not None and retry.allows(attempt + 1):
                inj.retry("cloud-pre")
                clear = inj.clear_time(("vm_stall",), file_id, now)
                self.phase[idx] = PHASE_PRE_BACKOFF
                self._call_in(
                    clear - now + self._backoff(idx, attempt, "cloud-pre"),
                    self._start_predownload, idx)
                return
            # No recovery: the stalled VM burns the session stagnation
            # timeout and the task dies.
            self.phase[idx] = PHASE_STALL
            self._call_in(self._stagnation_timeout, self._pre_stalled, idx)
            return
        dead = record.is_p2p and inj.active(
            "seed_death", file_id, now) is not None
        session = self._session_for(
            record, size=self._remaining(idx),
            mid_failure_probability=1.0 if dead else None)
        outcome = session.simulate(self.rng)
        self.outcomes[idx] = outcome
        self.attempt_start[idx] = now
        self.deadline[idx] = now + outcome.duration
        inj.register(("file", file_id), self._waiter(idx))
        self.phase[idx] = PHASE_SESSION
        if not self._sleep(idx, self._session_deadline):
            self._pre_attempt_end(idx, None)

    def _session_deadline(self, idx: int, token: int) -> None:
        if self._awake(idx, token) and \
                not self._sleep(idx, self._session_deadline):
            self._pre_attempt_end(idx, None)

    def _session_interrupted(self, idx: int, spec) -> None:
        if spec.kind != "seed_death" or self.records[idx].is_p2p:
            self._pre_attempt_end(idx, spec)
        elif not self._sleep(idx, self._session_deadline):
            # seed_death on a non-P2P file: no swarm to kill.
            self._pre_attempt_end(idx, None)

    def _pre_attempt_end(self, idx: int, fault) -> None:
        inj = self.faults
        cloud = self.cloud
        record = self.records[idx]
        file_id = record.file_id
        now = self.sim._now
        inj.unregister(("file", file_id), self.waiters[idx])
        outcome = self.outcomes[idx]
        self.outcomes[idx] = None
        if fault is None:
            attempt_outcome = outcome
        else:
            self.impacted[idx] = True
            inj.impact(fault)
            remaining = self._remaining(idx)
            elapsed = now - self.attempt_start[idx]
            frac = min(elapsed / outcome.duration, 1.0) \
                if outcome.duration > 0 else 1.0
            attempt_outcome = DownloadOutcome(
                success=False, duration=elapsed,
                bytes_obtained=min(outcome.average_rate * elapsed,
                                   remaining),
                file_size=remaining, average_rate=outcome.average_rate,
                peak_rate=outcome.peak_rate,
                traffic=outcome.traffic * frac,
                failure_cause=f"fault:{fault.kind}")
        cloud.fleet.account(attempt_outcome)
        cloud.database.record_attempt(file_id, attempt_outcome.success)
        self.traffic[idx] += attempt_outcome.traffic
        peak = self.peak[idx] = max(self.peak[idx],
                                    attempt_outcome.peak_rate)
        if self._resume and attempt_outcome.bytes_obtained > 0:
            self.committed[idx] += attempt_outcome.bytes_obtained
        size = record.size
        if attempt_outcome.success:
            duration = now - self.pre_start[idx]
            self._pre_finish(idx, DownloadOutcome(
                success=True, duration=duration, bytes_obtained=size,
                file_size=size,
                average_rate=size / duration if duration > 0
                else outcome.average_rate,
                peak_rate=peak, traffic=self.traffic[idx]))
            return
        retry = self._retry
        attempt = self.attempts[idx]
        if retry is not None and retry.allows(attempt + 1):
            inj.retry("cloud-pre")
            wait = self._backoff(idx, attempt, "cloud-pre")
            if fault is not None:
                clear = inj.clear_time((fault.kind,), file_id, now)
                wait += max(clear - now, 0.0)
            self.phase[idx] = PHASE_PRE_BACKOFF
            self._call_in(wait, self._start_predownload, idx)
            return
        self._pre_finish(idx, DownloadOutcome(
            success=False, duration=now - self.pre_start[idx],
            bytes_obtained=self.committed[idx] if self._resume
            else attempt_outcome.bytes_obtained,
            file_size=size, average_rate=attempt_outcome.average_rate,
            peak_rate=peak, traffic=self.traffic[idx],
            failure_cause=attempt_outcome.failure_cause))

    def _pre_stalled(self, idx: int) -> None:
        self._pre_finish(idx, DownloadOutcome(
            success=False, duration=self.sim._now - self.pre_start[idx],
            bytes_obtained=self.committed[idx],
            file_size=self.records[idx].size, average_rate=0.0,
            peak_rate=self.peak[idx], traffic=self.traffic[idx],
            failure_cause="fault:vm_stall"))

    def _pre_finish(self, idx: int, final: DownloadOutcome) -> None:
        inj = self.faults
        cloud = self.cloud
        sim = self.sim
        now = sim._now
        record = self.records[idx]
        file_id = record.file_id
        slot = self.slots[idx]
        if slot is not None:
            cloud._vm_slots.release(slot, sim)
            self.slots[idx] = None
        self._in_flight.pop(file_id, None)
        start = self.pre_start[idx]
        if self.impacted[idx]:
            if final.success:
                inj.recover("cloud-pre", now - start)
            else:
                inj.abort("cloud-pre")
        if final.success and self._collaborative:
            pressure = inj.active("pool_pressure", "pool", now)
            if pressure is not None:
                # Disk-full pressure: the finished file cannot be
                # admitted to the pool (later requests miss).
                inj.impact(pressure)
            else:
                cloud.pool.insert(record)
                cloud.database.set_cached(file_id, True)
        self.events[idx].trigger(final)
        self.events[idx] = None
        self._predownloaded(idx, final)

    # -- faulted fetch -----------------------------------------------------------
    #
    # Crashed server groups are excluded from admission (the home group
    # being dark forces a barrier-crossing failover); a flow interrupted
    # by server_crash commits its transferred bytes (checkpoint-resume)
    # and retries after the window clears plus backoff.  isp_degrade
    # scales candidate flow rates at admission time.

    def _enter_fetch(self, idx: int) -> None:
        self.fetch_start[idx] = self.sim._now
        self.attempts[idx] = 0
        self.committed[idx] = 0.0
        self.impacted[idx] = False
        self.jitter[idx] = None
        self._fetch_attempt(idx)

    def _fetch_attempt(self, idx: int) -> None:
        inj = self.faults
        row = self.rows[idx]
        attempt = self.attempts[idx] = self.attempts[idx] + 1
        now = self.sim._now
        down = inj.crashed_isps(now)
        admitted = self._admit(row, now, self._speed,
                               self.users[idx].access_bandwidth,
                               exclude=down, rate_scale=self._degrade)
        if admitted is None:
            retry = self._retry
            if down and retry is not None and retry.allows(attempt + 1):
                # Candidate groups are dark: wait out the longest
                # active crash window and try admission again.
                self.table.retried_rejects.append(now)
                inj.retry("cloud-fetch")
                clear = max(inj.clear_time(("server_crash",), name, now)
                            for name in down)
                self.phase[idx] = PHASE_FETCH_BACKOFF
                self._call_in(
                    max(clear - now, 0.0)
                    + self._backoff(idx, attempt, "cloud-fetch"),
                    self._fetch_attempt, idx)
                return
            if self.impacted[idx] or row.label in down:
                inj.abort("cloud-fetch")
            self._rejected_flow(idx, now)
            self._fetch_failed(idx)
            return
        path, pool, rate = admitted
        if down and row.label in down and not path.privileged:
            inj.failover("cloud-fetch")
        remaining = self._remaining(idx)
        self.paths[idx] = path
        self.pools[idx] = pool
        self.rate[idx] = rate
        self.attempt_start[idx] = now
        self.deadline[idx] = now + (remaining / rate if rate > 0 else 0.0)
        inj.register(self._isp_entities[path.server_isp], self._waiter(idx))
        self.phase[idx] = PHASE_FETCH
        if not self._sleep(idx, self._fetch_deadline):
            self._fetch_end(idx, None)

    def _fetch_deadline(self, idx: int, token: int) -> None:
        if self._awake(idx, token) and \
                not self._sleep(idx, self._fetch_deadline):
            self._fetch_end(idx, None)

    def _fetch_interrupted(self, idx: int, spec) -> None:
        if spec.kind == "server_crash":
            self._fetch_end(idx, spec)
        elif not self._sleep(idx, self._fetch_deadline):
            self._fetch_end(idx, None)

    def _fetch_end(self, idx: int, fault) -> None:
        inj = self.faults
        now = self.sim._now
        path = self.paths[idx]
        self.paths[idx] = None
        inj.unregister(self._isp_entities[path.server_isp],
                       self.waiters[idx])
        start = self.attempt_start[idx]
        rate = self.rate[idx]
        pool = self.pools[idx]
        pool.release(rate)
        self._flow(idx, self._group_of[pool], start, now, rate)
        if self._resume:
            moved = min(rate * (now - start), self._remaining(idx))
            if moved > 0:
                self.committed[idx] += moved
        if fault is None:
            table = self.table
            random = self._rng_random
            size = self.records[idx].size
            duration = now - self.fetch_start[idx]
            table.fetch_path[idx] = path
            self.fetch_finish[idx] = now
            table.fetch_bytes[idx] = size
            table.fetch_traffic[idx] = \
                size * (1.07 + (1.10 - 1.07) * random())
            self.fetch_rate[idx] = size / duration if duration > 0 \
                else rate
            table.fetch_peak[idx] = min(
                rate * (1.0 + (1.4 - 1.0) * random()), self._max_fetch_rate)
            self.fetch_state[idx] = FETCH_DONE
            if self.impacted[idx]:
                inj.recover("cloud-fetch", duration)
            self._done(idx)
            return
        self.impacted[idx] = True
        inj.impact(fault)
        retry = self._retry
        attempt = self.attempts[idx]
        if retry is not None and retry.allows(attempt + 1):
            inj.retry("cloud-fetch")
            clear = inj.clear_time(("server_crash",),
                                   self._isp_names[path.server_isp], now)
            self.phase[idx] = PHASE_FETCH_BACKOFF
            self._call_in(max(clear - now, 0.0)
                          + self._backoff(idx, attempt, "cloud-fetch"),
                          self._fetch_attempt, idx)
            return
        inj.abort("cloud-fetch")
        self._fetch_failed(idx)

    def _fetch_failed(self, idx: int) -> None:
        """Record the fetch as rejected with its committed bytes."""
        self.fetch_finish[idx] = self.sim._now
        self.table.fetch_bytes[idx] = self.committed[idx]
        self.fetch_state[idx] = FETCH_REJECTED
        self._done(idx)
