"""Frozen PR 3-era reference implementations (the pre-batching baseline).

Verbatim copies of the hot-path code as it stood *after* the PR 3
profile-guided pass but *before* the PR 8 replay-core rebuild: the
tuple-heap engine that re-enters the heap for every same-instant event,
the uploading-server admission that re-sorts its candidate groups
(allocating preference closures) on every fetch, and the cloud task as
one generator coroutine per task (before the table-driven task machine
of :mod:`repro.cloud.fastpath`).

Like :mod:`repro.perf.legacy`, these serve two purposes:

* the ``repro.perf`` harness times them as the mid-tier baseline of the
  ``engine_dispatch`` and ``cloud_fast_tasks`` stages (and, with the
  pre-PR 3 engine, of ``cloud_replay``), isolating what the PR 8 layers
  bought *on top of* PR 3;
* the golden tests can replay the same scripted scenarios through them,
  proving the batched dispatch is bit-identical.

Do not "fix" or modernise this module; its value is that it does not
change.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

import numpy as np

from repro.cloud.config import CloudConfig
from repro.cloud.fetch import FetchSpeedModel
from repro.cloud.system import FetchFlow, TaskResult, XuanfengCloud
from repro.netsim.isp import ISP, MAJOR_ISPS
from repro.netsim.topology import ChinaTopology, PathQuality
from repro.obs.registry import AnyRegistry, NOOP
from repro.paper import FETCH_SPEED_MEAN
from repro.sim.clock import kbps, to_gbps
from repro.sim.engine import (
    Interrupt,
    SimulationError,
    Simulator,
    Timeout,
    _SimObs,
)
from repro.sim.resources import (
    CapacityExceeded,
    Reservation,
    ReservationPool,
    UsageSample,
)
from repro.workload.popularity import PopularityClass
from repro.workload.records import FetchRecord, PreDownloadRecord

# ---------------------------------------------------------------------------
# Engine (PR 3: tuple heap, but every same-instant event re-enters it)
# ---------------------------------------------------------------------------


class Pr3Event:
    """Verbatim PR 3 :class:`repro.sim.engine.Event`."""

    __slots__ = ("_sim", "_triggered", "_value", "_waiters", "name")

    def __init__(self, sim: "Pr3Simulator", name: str = ""):
        self._sim = sim
        self._triggered = False
        self._value: Any = None
        self._waiters: dict[int, Pr3Process] = {}
        self.name = name

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError(
                f"value of event {self.name!r} read before trigger "
                f"at t={self._sim.now:g}")
        return self._value

    def trigger(self, value: Any = None) -> None:
        if self._triggered:
            raise SimulationError(
                f"event {self.name!r} triggered twice "
                f"at t={self._sim.now:g}")
        self._triggered = True
        self._value = value
        waiters, self._waiters = self._waiters, {}
        schedule_resume = self._sim._schedule_resume
        for process in waiters.values():
            schedule_resume(process, value)

    def _add_waiter(self, process: "Pr3Process") -> None:
        if self._triggered:
            self._sim._schedule_resume(process, self._value)
        else:
            self._waiters[id(process)] = process

    def _remove_waiter(self, process: "Pr3Process") -> None:
        self._waiters.pop(id(process), None)


class Pr3Process:
    """Verbatim PR 3 :class:`repro.sim.engine.Process`."""

    __slots__ = ("_sim", "_generator", "_done", "_result", "_error",
                 "_waiters", "_waiting_on", "_resume_token", "name")

    def __init__(self, sim: "Pr3Simulator",
                 generator: Generator[Any, Any, Any], name: str = ""):
        if not hasattr(generator, "send"):
            raise SimulationError(
                "Process requires a generator; did you forget to call the "
                "process function?")
        self._sim = sim
        self._generator = generator
        self._done = False
        self._result: Any = None
        self._error: Optional[BaseException] = None
        self._waiters: dict[int, Pr3Process] = {}
        self._waiting_on: Any = None
        self._resume_token = 0
        self.name = name or getattr(generator, "__name__", "process")

    @property
    def done(self) -> bool:
        return self._done

    @property
    def result(self) -> Any:
        if not self._done:
            raise SimulationError(
                f"result of process {self.name!r} read while still "
                f"running at t={self._sim.now:g}")
        if self._error is not None:
            raise self._error
        return self._result

    def interrupt(self, cause: Any = None) -> None:
        if self._done:
            return
        obs = self._sim._obs
        if obs is not None:
            obs.interrupts.inc()
        self._sim._schedule_throw(self, Interrupt(cause))

    def _step(self, value: Any = None,
              error: Optional[BaseException] = None,
              token: Optional[int] = None) -> None:
        if self._done:
            return
        if token is not None and token != self._resume_token:
            return
        self._resume_token += 1
        self._detach_wait()
        try:
            if error is not None:
                target = self._generator.throw(error)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            self._finish(result=stop.value)
            return
        except BaseException as exc:
            self._finish(error=exc)
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        if isinstance(target, Timeout):
            self._waiting_on = None
            self._sim.call_in(target.delay, self._step, target.value,
                              None, self._resume_token)
        elif isinstance(target, Pr3Process):
            if target._done:
                if target._error is not None:
                    self._sim._schedule_throw(self, target._error)
                else:
                    self._sim._schedule_resume(self, target._result)
            else:
                target._waiters[id(self)] = self
                self._waiting_on = target
        elif isinstance(target, Pr3Event):
            target._add_waiter(self)
            self._waiting_on = target
        else:
            self._finish(error=SimulationError(
                f"process {self.name!r} yielded non-waitable {target!r} "
                f"at t={self._sim.now:g}"))

    def _detach_wait(self) -> None:
        waiting = self._waiting_on
        if waiting is None:
            return
        self._waiting_on = None
        if isinstance(waiting, Pr3Event):
            waiting._waiters.pop(id(self), None)
        elif isinstance(waiting, Pr3Process):
            waiting._waiters.pop(id(self), None)

    def _finish(self, result: Any = None,
                error: Optional[BaseException] = None) -> None:
        self._done = True
        self._result = result
        self._error = error
        waiters, self._waiters = self._waiters, {}
        for waiter in waiters.values():
            if error is not None:
                self._sim._schedule_throw(waiter, error)
            else:
                self._sim._schedule_resume(waiter, result)
        if error is not None and not waiters:
            self._sim._record_orphan_error(self, error)


class Pr3Simulator:
    """Verbatim PR 3 :class:`repro.sim.engine.Simulator`.

    Every event -- including the ~50% of a cloud replay scheduled for
    the *current* instant (process starts, resumes, throws) -- pays a
    full ``heappush``/``heappop`` against the whole pending-event heap.
    """

    def __init__(self, metrics: Optional["AnyRegistry"] = None):
        self._now = 0.0
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._sequence = 0
        self._orphan_errors: list[tuple[str, BaseException]] = []
        self._obs: Optional[_SimObs] = None
        if metrics is not None and metrics.enabled:
            metrics.set_clock(lambda: self._now)
            self._obs = _SimObs(metrics)

    @property
    def now(self) -> float:
        return self._now

    def call_at(self, when: float, func: Callable[..., None],
                *args: Any) -> None:
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when} before now={self._now}")
        if self._obs is not None:
            self._obs.scheduled.inc()
        seq = self._sequence
        self._sequence = seq + 1
        heappush(self._heap, (when, seq, func, args))

    def call_in(self, delay: float, func: Callable[..., None],
                *args: Any) -> None:
        self.call_at(self._now + delay, func, *args)

    def process(self, generator, name: str = "") -> Pr3Process:
        process = Pr3Process(self, generator, name=name)
        if self._obs is not None:
            self._obs.processes.inc()
        self.call_in(0.0, process._step, None)
        return process

    def event(self, name: str = "") -> Pr3Event:
        return Pr3Event(self, name=name)

    def _schedule_resume(self, process: Pr3Process, value: Any) -> None:
        if self._obs is not None:
            self._obs.resumes.inc()
        self.call_in(0.0, process._step, value, None,
                     process._resume_token)

    def _schedule_throw(self, process: Pr3Process,
                        error: BaseException) -> None:
        self.call_in(0.0, process._step, None, error,
                     process._resume_token)

    def _record_orphan_error(self, process: Pr3Process,
                             error: BaseException) -> None:
        self._orphan_errors.append((process.name, error))

    def run(self, until: Optional[float] = None) -> float:
        obs = self._obs
        heap = self._heap
        orphans = self._orphan_errors
        pop = heappop
        while heap:
            if until is not None and heap[0][0] > until:
                break
            when, _seq, func, args = pop(heap)
            self._now = when
            if obs is not None:
                obs.fired.inc()
                obs.heap_depth.set(len(heap) + 1)
            func(*args)
            if orphans:
                name, error = orphans[0]
                raise SimulationError(
                    f"unhandled error in process {name!r} "
                    f"at t={self._now:g}") from error
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def run_all(self, batch: Iterable[Generator[Any, Any, Any]]) -> list[Any]:
        processes = [self.process(gen) for gen in batch]
        self.run()
        return [p.result for p in processes]


# ---------------------------------------------------------------------------
# Bandwidth reservations (PR 3: sample-object history, reserve-or-raise)
# ---------------------------------------------------------------------------


class Pr3ReservationPool(ReservationPool):
    """Verbatim PR 3 :class:`repro.sim.resources.ReservationPool`.

    The step-function history is a list of :class:`UsageSample` objects
    (one allocation per admission/release) and ``try_reserve`` funnels
    through the raising ``reserve`` -- the exception round-trip PR 8
    open-coded away.
    """

    def __init__(self, capacity: Optional[float], name: str = "pool"):
        super().__init__(capacity, name)
        self._history: list[UsageSample] = [UsageSample(0.0, 0.0)]

    def reserve(self, rate: float, now: float,
                label: str = "") -> Reservation:
        if rate < 0:
            raise ValueError(f"rate must be non-negative, got {rate}")
        if not self.can_admit(rate):
            self.rejections += 1
            raise CapacityExceeded(self, rate)
        self.committed += rate
        self.admissions += 1
        self.peak_committed = max(self.peak_committed, self.committed)
        self._record(now)
        return Reservation(self, rate, label=label)

    def try_reserve(self, rate: float, now: float,
                    label: str = "") -> Optional[Reservation]:
        try:
            return self.reserve(rate, now, label=label)
        except CapacityExceeded:
            return None

    def _release(self, reservation: Reservation, now: float) -> None:
        self.committed -= reservation.rate
        if self.committed < -1e-6:
            raise RuntimeError(f"pool {self.name!r} over-released")
        self.committed = max(self.committed, 0.0)
        self._record(now)

    def _record(self, now: float) -> None:
        last = self._history[-1]
        if last.time == now:
            last.committed = self.committed
        else:
            self._history.append(UsageSample(now, self.committed))

    def usage_history(self) -> list[UsageSample]:
        return list(self._history)

    def binned_usage(self, bin_width: float, horizon: float) -> list[float]:
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        n_bins = max(1, int(round(horizon / bin_width)))
        totals = [0.0] * n_bins
        samples = self._history
        for index, sample in enumerate(samples):
            start = sample.time
            end = samples[index + 1].time if index + 1 < len(samples) \
                else horizon
            start, end = max(start, 0.0), min(end, horizon)
            if end <= start or sample.committed == 0.0:
                continue
            first_bin = int(start / bin_width)
            last_bin = min(int((end - 1e-12) / bin_width), n_bins - 1)
            for b in range(first_bin, last_bin + 1):
                lo = max(start, b * bin_width)
                hi = min(end, (b + 1) * bin_width)
                totals[b] += sample.committed * max(0.0, hi - lo)
        return [total / bin_width for total in totals]


# ---------------------------------------------------------------------------
# Fetch-speed model (PR 3: nested sampling methods, rng.uniform)
# ---------------------------------------------------------------------------


class Pr3FetchSpeedModel(FetchSpeedModel):
    """Verbatim PR 3 :class:`repro.cloud.fetch.FetchSpeedModel`.

    ``sample_speed`` goes through the ``sample_server_rate`` method call
    and a broadcasting ``rng.uniform`` -- draw-for-draw (and therefore
    bit-for-bit) identical to the live inlined version.
    """

    def sample_server_rate(self, rng) -> float:
        rate = self.server_rate_median * float(
            np.exp(rng.normal(0.0, self.server_rate_sigma)))
        return min(rate, self.server_rate_cap)

    def sample_speed(self, user_bandwidth: float, quality: PathQuality,
                     rng) -> float:
        if user_bandwidth <= 0:
            raise ValueError("user_bandwidth must be positive")
        speed = min(self.sample_server_rate(rng),
                    quality.sample_cap(rng),
                    user_bandwidth)
        if rng.random() < self.unknown_degradation_probability:
            speed *= rng.uniform(self.unknown_degradation_low,
                                 self.unknown_degradation_high)
        return speed


# ---------------------------------------------------------------------------
# Upload admission (PR 3: per-fetch candidate sort + preference closures)
# ---------------------------------------------------------------------------

MIN_USEFUL_RATE = kbps(16.0)


@dataclass(frozen=True)
class Pr3PathChoice:
    """Verbatim PR 3 :class:`repro.cloud.upload.PathChoice`."""

    server_isp: ISP
    privileged: bool
    quality: PathQuality


class Pr3UploadingServers:
    """Verbatim PR 3 :class:`repro.cloud.upload.UploadingServers`.

    ``candidate_groups`` rebuilds and sorts the alternative list (with a
    fresh ``preference`` closure querying the topology per candidate)
    on every admission.
    """

    def __init__(self, config: CloudConfig,
                 topology: Optional[ChinaTopology] = None,
                 metrics: AnyRegistry = NOOP):
        self.config = config
        self.topology = topology or ChinaTopology()
        self.pools: dict[ISP, ReservationPool] = {
            isp: Pr3ReservationPool(config.upload_capacity_of(isp),
                                    name=f"upload-{isp.value}")
            for isp in MAJOR_ISPS
        }
        self.rejected_fetches = 0
        self.total_fetches = 0
        self._m_fetches = metrics.counter("repro_cloud_fetches_total")
        self._m_rejects = metrics.counter(
            "repro_cloud_admission_rejects_total")
        self._m_crossings = metrics.counter(
            "repro_cloud_isp_barrier_crossings_total")
        self._m_upload = {
            isp: metrics.gauge("repro_cloud_upload_gbps", isp=isp.value)
            for isp in MAJOR_ISPS}

    def candidate_groups(self, user_isp: ISP) -> list[ISP]:
        if not self.config.privileged_paths:
            by_headroom = sorted(
                MAJOR_ISPS,
                key=lambda isp: -self.pools[isp].available)
            return by_headroom[:2]

        def preference(server_isp: ISP) -> tuple[float, float]:
            quality = self.topology.path_quality(server_isp, user_isp)
            return quality.latency_ms, -self.pools[server_isp].available
        alternatives = sorted((isp for isp in MAJOR_ISPS
                               if isp is not user_isp), key=preference)
        if user_isp in self.pools:
            return [user_isp, alternatives[0]]
        return alternatives[:2]

    def select_and_reserve(
            self, user_isp: ISP, now: float,
            rate_for_path: Callable[[PathQuality], float],
            exclude: frozenset[str] = frozenset(),
            rate_scale: Optional[Callable[[ISP], float]] = None,
    ) -> Optional[tuple[Pr3PathChoice, Reservation, float]]:
        self.total_fetches += 1
        self._m_fetches.inc()
        for server_isp in self.candidate_groups(user_isp):
            if server_isp.value in exclude:
                continue
            pool = self.pools[server_isp]
            assert pool.capacity is not None
            limit = self.config.admission_utilization_limit \
                if server_isp == user_isp \
                else self.config.overflow_utilization_limit
            if pool.committed >= pool.capacity * limit or \
                    pool.available < MIN_USEFUL_RATE:
                continue
            quality = self.topology.path_quality(server_isp, user_isp)
            rate = min(rate_for_path(quality), self.config.max_fetch_rate)
            if rate_scale is not None:
                rate *= rate_scale(server_isp)
            if rate <= 0:
                continue
            reservation = pool.try_reserve(rate, now, label=user_isp.value)
            if reservation is not None:
                choice = Pr3PathChoice(server_isp=server_isp,
                                       privileged=(server_isp == user_isp),
                                       quality=quality)
                if not choice.privileged:
                    self._m_crossings.inc()
                self._m_upload[server_isp].set(to_gbps(pool.committed))
                return choice, reservation, rate
        self.rejected_fetches += 1
        self._m_rejects.inc()
        return None

    @property
    def rejection_ratio(self) -> float:
        if self.total_fetches == 0:
            return 0.0
        return self.rejected_fetches / self.total_fetches

    def total_committed(self) -> float:
        return sum(pool.committed for pool in self.pools.values())

    def binned_total_usage(self, bin_width: float,
                           horizon: float) -> list[float]:
        per_pool = [pool.binned_usage(bin_width, horizon)
                    for pool in self.pools.values()]
        return [sum(values) for values in zip(*per_pool)]


# ---------------------------------------------------------------------------
# Cloud tasks (pre-PR 8: one generator-coroutine Process per task)
# ---------------------------------------------------------------------------


class Pr3Cloud(XuanfengCloud):
    """:class:`repro.cloud.system.XuanfengCloud` running each task as
    the fault-free generator coroutines it was before the task machine.

    Bit-identical to the live cloud on fault-free weeks (the hop
    structure and draw order the machine mirrors are these
    coroutines').  Fault injection is not supported.
    """

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        if self.faults is not None:
            raise ValueError("Pr3Cloud replays fault-free weeks only")

    def _schedule_tasks(self, sim: Simulator, workload, rng, tasks,
                        flows) -> None:
        users = workload.user_by_id()
        for request in workload.requests:
            sim.call_at(request.request_time, self._start_task,
                        sim, request,
                        workload.catalog[request.file_id],
                        users[request.user_id], rng, tasks, flows)

    def _start_task(self, sim, request, record, user, rng, tasks,
                    flows) -> None:
        sim.process(self._task(sim, request, record, user, rng, tasks,
                               flows),
                    name=f"task-{request.task_id}")

    def _task(self, sim, request, record, user, rng, tasks, flows):
        self._m_tasks.inc()
        self.database.record_request(record.file_id, record.size, sim.now)
        pre_record = yield from self._predownload_phase(sim, request,
                                                        record, rng)
        result = TaskResult(request=request, file=record,
                            pre_record=pre_record)
        tasks.append(result)
        if not pre_record.success:
            return result

        # The user comes back to fetch after a think-time lag.
        lag = self.config.fetch_lag_median * float(
            np.exp(rng.normal(0.0, self.config.fetch_lag_sigma)))
        yield Timeout(lag)
        yield from self._fetch_phase(sim, request, record, user, rng,
                                     result, flows)
        return result

    def _predownload_phase(self, sim, request, record, rng):
        start = sim.now
        if self.config.collaborative_cache and \
                self.pool.lookup(record.file_id):
            self._m_cache_hits.inc()
            return self._hit_record(request, record, start, start)
        self._m_cache_misses.inc()

        in_flight = self._in_flight.get(record.file_id) \
            if self.config.collaborative_cache else None
        if in_flight is not None:
            # Coalesce with the running pre-download of the same file.
            outcome = yield in_flight
            finish = sim.now
            if outcome.success:
                self.pool.lookup(record.file_id)   # count the warm hit
                return self._hit_record(request, record, start, finish)
            return PreDownloadRecord(
                task_id=request.task_id, file_id=record.file_id,
                start_time=start, finish_time=finish,
                acquired_bytes=outcome.bytes_obtained,
                traffic_bytes=0.0, cache_hit=False,
                average_speed=0.0, peak_speed=0.0, success=False,
                failure_cause=outcome.failure_cause)

        event = sim.event(name=f"pre-{record.file_id}")
        self._in_flight[record.file_id] = event
        session = self.fleet.session_for(record)
        try:
            slot = None
            if self._vm_slots is not None:
                # A finite fleet: wait FIFO for a free pre-downloader VM.
                acquire = self._vm_slots.acquire(sim)
                self._m_queue_depth.set(self._vm_slots.queue_length)
                slot = yield acquire
                self._m_queue_depth.set(self._vm_slots.queue_length)
            try:
                outcome = yield sim.process(
                    session.run(rng), name=f"pre-{request.task_id}")
            finally:
                if slot is not None:
                    self._vm_slots.release(slot, sim)
        finally:
            self._in_flight.pop(record.file_id, None)
        self.fleet.account(outcome)
        self.database.record_attempt(record.file_id, outcome.success)
        if outcome.success and self.config.collaborative_cache:
            self.pool.insert(record)
            self.database.set_cached(record.file_id, True)
        event.trigger(outcome)
        return PreDownloadRecord(
            task_id=request.task_id, file_id=record.file_id,
            start_time=start, finish_time=sim.now,
            acquired_bytes=outcome.bytes_obtained,
            traffic_bytes=outcome.traffic, cache_hit=False,
            average_speed=outcome.average_rate,
            peak_speed=outcome.peak_rate, success=outcome.success,
            failure_cause=outcome.failure_cause)

    @staticmethod
    def _hit_record(request, record, start: float,
                    finish: float) -> PreDownloadRecord:
        return PreDownloadRecord(
            task_id=request.task_id, file_id=record.file_id,
            start_time=start, finish_time=finish,
            acquired_bytes=record.size, traffic_bytes=0.0, cache_hit=True,
            average_speed=0.0, peak_speed=0.0, success=True)

    def _fetch_phase(self, sim, request, record, user, rng, result,
                     flows):
        start = sim.now
        highly_popular = record.popularity_class is \
            PopularityClass.HIGHLY_POPULAR

        admitted = self.uploads.select_and_reserve(
            user.isp, start,
            lambda quality: self.fetch_model.sample_speed(
                user.access_bandwidth, quality, rng))
        if admitted is None:
            # Rejected: record the fetch at 0 B/s and the burden the flow
            # *would* have imposed (Fig. 11 counts rejected demand at the
            # fleet-average fetch speed, per the paper's estimate).
            estimated_rate = FETCH_SPEED_MEAN
            flows.append(FetchFlow(
                start=start, end=start + record.size / estimated_rate,
                rate=estimated_rate, highly_popular=highly_popular,
                rejected=True))
            result.fetch_record = FetchRecord(
                task_id=request.task_id, user_id=user.user_id,
                ip_address=user.ip_address,
                access_bandwidth=user.reported_bandwidth,
                start_time=start, finish_time=start, acquired_bytes=0.0,
                traffic_bytes=0.0, average_speed=0.0, peak_speed=0.0,
                rejected=True)
            return

        path, reservation, rate = admitted
        duration = record.size / rate if rate > 0 else 0.0
        yield Timeout(duration)
        reservation.release(sim.now)
        flows.append(FetchFlow(start=start, end=sim.now, rate=rate,
                               highly_popular=highly_popular))
        result.fetch_path = path
        result.fetch_record = FetchRecord(
            task_id=request.task_id, user_id=user.user_id,
            ip_address=user.ip_address,
            access_bandwidth=user.reported_bandwidth,
            start_time=start, finish_time=sim.now,
            acquired_bytes=record.size,
            traffic_bytes=record.size * rng.uniform(1.07, 1.10),
            average_speed=rate,
            peak_speed=min(rate * rng.uniform(1.0, 1.4),
                           self.config.max_fetch_rate))
