"""A compact generator-based discrete-event simulation core.

The design follows the classic process-interaction style (as popularised by
SimPy) but is implemented from scratch so the reproduction has no external
simulation dependency:

* :class:`Simulator` owns the event heap and the clock.
* :class:`Process` wraps a generator; the generator *yields* waitables
  (:class:`Timeout`, another :class:`Process`, or an :class:`Event`) and is
  resumed when the waitable fires.
* ``simulator.call_at`` / ``call_in`` schedule plain callbacks for code that
  does not need a coroutine.
* ``simulator.feed`` hands the loop a sorted column of arrivals, which it
  merges into dispatch without a heap entry per arrival.

Determinism: events scheduled for the same instant fire in scheduling order
(a monotonically increasing sequence number breaks ties), so simulations are
reproducible bit-for-bit given a seeded workload.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.registry import AnyRegistry


class SimulationError(RuntimeError):
    """Raised for structural misuse of the engine (not for model failures).

    Messages carry the current simulation time (and the event/process
    name where one exists) so a failure deep inside a 100k-event run is
    diagnosable from the traceback alone.
    """


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    ``cause`` carries an arbitrary payload describing why the interrupt
    happened (e.g. a stagnation-timeout sentinel in the download session
    model).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot waitable that processes may yield on.

    An event is *triggered* at most once, with an optional value.  Processes
    waiting on it resume with that value.  Triggering is immediate from the
    scheduler's point of view: waiters are scheduled at the current time.
    """

    __slots__ = ("_sim", "_triggered", "_value", "_waiters", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self._sim = sim
        self._triggered = False
        self._value: Any = None
        # Waiters keyed by process identity: insertion-ordered (so the
        # resume order on trigger matches the old append-ordered list)
        # with O(1) removal -- a mass cancellation of n waiters used to
        # be quadratic through list.remove.
        self._waiters: dict[int, Process] = {}
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

    def _add_waiter(self, process: "Process") -> None:
        if self._triggered:
            self._sim._schedule_resume(process, self._value)
        else:
            self._waiters[id(process)] = process

    def _remove_waiter(self, process: "Process") -> None:
        self._waiters.pop(id(process), None)


class Timeout:
    """Yieldable delay: ``yield Timeout(5.0)`` resumes 5 sim-seconds later."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout {delay!r}")
        self.delay = float(delay)
        self.value = value


ProcessGenerator = Generator[Any, Any, Any]


class Process:
    """A running simulation process wrapping a generator.

    A process is itself waitable: yielding a process suspends the caller
    until the target finishes, resuming with the target's return value.  If
    the target raised, the exception propagates into the waiter.
    """

    __slots__ = ("_sim", "_generator", "_done", "_result", "_error",
                 "_waiters", "_waiting_on", "_resume_token", "name")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator,
                 name: str = ""):
        if not hasattr(generator, "send"):
            raise SimulationError(
                "Process requires a generator; did you forget to call the "
                "process function?")
        self._sim = sim
        self._generator = generator
        self._done = False
        self._result: Any = None
        self._error: Optional[BaseException] = None
        # Same insertion-ordered O(1)-removal bookkeeping as Event.
        self._waiters: dict[int, Process] = {}
        self._waiting_on: Any = None
        #: Incremented on every resume; scheduled wake-ups carry the token
        #: they were created under, so a stale wake-up (e.g. the original
        #: timeout of an interrupted sleep) is ignored.
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
        """Throw :class:`Interrupt` into this process at the current time.

        The interrupt targets the process's *current* wait.  If the
        process resumes at the same instant before the throw lands (its
        timeout fired, its event triggered), the stale interrupt is
        discarded instead of being thrown into whatever the process
        waits on next -- the same staleness rule scheduled wake-ups
        follow.
        """
        if self._done:
            return
        self._sim.interrupts += 1
        self._sim._schedule_throw(self, Interrupt(cause))

    # -- internal stepping -------------------------------------------------

    def _step(self, value: Any = None,
              error: Optional[BaseException] = None,
              token: Optional[int] = None) -> None:
        if self._done:
            return
        if token is not None and token != self._resume_token:
            return   # a stale wake-up from an abandoned wait
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
        except BaseException as exc:  # model-level failure propagates
            self._finish(error=exc)
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        if isinstance(target, Timeout):
            self._waiting_on = None
            self._sim.call_in(target.delay, self._step, target.value,
                              None, self._resume_token)
        elif isinstance(target, Process):
            if target._done:
                if target._error is not None:
                    self._sim._schedule_throw(self, target._error)
                else:
                    self._sim._schedule_resume(self, target._result)
            else:
                target._waiters[id(self)] = self
                self._waiting_on = target
        elif isinstance(target, Event):
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
        if isinstance(waiting, Event):
            waiting._waiters.pop(id(self), None)
        elif isinstance(waiting, Process):
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


class Simulator:
    """The event loop: a clock plus a time-ordered callback heap.

    ``metrics`` wires the engine into the observability subsystem: the
    simulator binds its clock as the registry's sim-time source and
    reports events scheduled/fired, process starts/resumes, interrupts,
    and the pending-event depth per sim-time bin.  Nothing is counted
    per event: scheduled is the sequence number, fired the sequence
    minus the pending events (both queues and the feed's reserved
    group), the rest plain integers.  They are
    published as the clock crosses a bin edge and as :meth:`run`
    starts and returns, each time with a sample of the pending depth.
    """

    def __init__(self, metrics: Optional["AnyRegistry"] = None):
        self._now = 0.0
        # Heap entries are plain (when, seq, func, args) tuples: the seq
        # tie-breaker keeps comparisons off func/args, and storing the
        # callable with its argument tuple avoids allocating a closure
        # per scheduled event (the old hot-path lambda).
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        # Events scheduled for the *current* instant (process starts,
        # resumes, throws, zero-delay timeouts -- about half of a cloud
        # replay) never touch the heap: they are drained through this
        # FIFO in one pass per timestamp.  Entries are (seq, func, args);
        # seq is monotonic on both structures, so interleaving by seq
        # reproduces the exact global (when, seq) firing order the
        # heap-only engine had.
        self._immediate: deque[tuple[int, Callable[..., None], tuple]] = \
            deque()
        self._sequence = 0
        # The arrival feed (see :meth:`feed`): sorted times, one item
        # per time, the callback, the cursor, and the (when, seq) of the
        # pending group -- ``when`` is infinity once the feed drains.
        self._feed_times: list[float] = []
        self._feed_items: list = []
        self._feed_func: Optional[Callable[..., None]] = None
        self._feed_next = 0
        self._feed_when = math.inf
        self._feed_seq = 0
        self._running = False
        self._orphan_errors: list[tuple[str, BaseException]] = []
        self.processes_started = 0
        self.process_resumes = 0
        self.interrupts = 0
        self._metrics = metrics if metrics is not None \
            and metrics.enabled else None
        if self._metrics is not None:
            metrics.set_clock(lambda: self._now)
            self._counters = [metrics.counter(f"repro_sim_{name}_total")
                              for name in ("events_scheduled", "events_fired",
                                           "processes_started",
                                           "process_resumes", "interrupts")]
            self._depth = metrics.gauge("repro_sim_heap_depth")
            self._published = [0] * 5

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # -- scheduling --------------------------------------------------------

    def call_at(self, when: float, func: Callable[..., None],
                *args: Any) -> None:
        """Schedule ``func(*args)`` at absolute time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when} before now={self._now}")
        seq = self._sequence
        self._sequence = seq + 1
        if when == self._now:
            self._immediate.append((seq, func, args))
        else:
            heappush(self._heap, (when, seq, func, args))

    def call_in(self, delay: float, func: Callable[..., None],
                *args: Any) -> None:
        """Schedule ``func(*args)`` after ``delay`` seconds.

        Open-coded rather than delegating to :meth:`call_at`: this is
        the single hottest scheduling entry point (every resume, throw,
        and zero-delay hop lands here), and the extra call frame plus
        ``*args`` re-pack measurably shows up in replay profiles.
        """
        now = self._now
        when = now + delay
        if when < now:
            raise SimulationError(
                f"cannot schedule at {when} before now={now}")
        seq = self._sequence
        self._sequence = seq + 1
        if when == now:
            self._immediate.append((seq, func, args))
        else:
            heappush(self._heap, (when, seq, func, args))

    def feed(self, times: Iterable[float], func: Callable[..., None],
             items: Iterable[Any]) -> None:
        """Fire ``func(item)`` for each of ``items`` at its time in ``times``.

        ``times`` is sorted and none is before now; items due at the
        same time fire in their order.  The feed is exactly a cursor
        callback that ``call_at``-s itself once per distinct time and
        there queues ``call_in(0.0, func, item)`` for each item due --
        the same firing order, the same sequence numbers, the same
        pending count (the cursor's one reserved event) -- but its head
        is merged into :meth:`run`'s dispatch instead of taking a heap
        push and pop per time.  One feed at a time; set it up before
        :meth:`run` or between runs.  A drained feed drops ``func``.
        """
        times = np.asarray(times, dtype=np.float64)
        items = list(items)
        if self._running:
            raise SimulationError(
                f"feed set up inside run() at t={self._now:g}")
        if self._feed_when != math.inf:
            raise SimulationError(
                f"feed set up while another is pending at t={self._now:g}")
        if len(times) != len(items):
            raise SimulationError(
                f"feed of {len(times)} times and {len(items)} items")
        if not len(times):
            return
        if times[0] < self._now or bool(np.any(times[1:] < times[:-1])):
            raise SimulationError(
                f"feed times are not sorted from now={self._now}")
        self._feed_times = times.tolist()
        self._feed_items = items
        self._feed_func = func
        self._feed_next = 0
        self._feed_when = self._feed_times[0]
        self._feed_seq = self._sequence
        self._sequence += 1

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a new process immediately (first step at the current time)."""
        process = Process(self, generator, name=name)
        self.processes_started += 1
        self.call_in(0.0, process._step, None)
        return process

    def event(self, name: str = "") -> Event:
        """Create a fresh one-shot event bound to this simulator."""
        return Event(self, name=name)

    def _schedule_resume(self, process: Process, value: Any) -> None:
        # The resume token is captured at scheduling time: if the
        # process is resumed or interrupted at the same instant before
        # this wake-up is delivered, the delivery is stale (it belongs
        # to a wait the process has already left) and must be dropped,
        # not delivered to whatever the process waits on next.
        self.process_resumes += 1
        self.call_in(0.0, process._step, value, None,
                     process._resume_token)

    def _schedule_throw(self, process: Process, error: BaseException) -> None:
        # Same staleness contract as _schedule_resume: a throw is only
        # delivered if the target still sits in the wait it was aimed at.
        self.call_in(0.0, process._step, None, error,
                     process._resume_token)

    def _record_orphan_error(self, process: Process,
                             error: BaseException) -> None:
        self._orphan_errors.append((process.name, error))

    # -- metrics ------------------------------------------------------------

    def _publish(self, upcoming: float) -> float:
        """Publish the counts since the last call, and a sample of the
        pending depth, into the clock's sim-time bin; return where the
        bin holding ``upcoming`` ends (infinity without a registry)."""
        metrics = self._metrics
        if metrics is None:
            return math.inf
        pending = len(self._heap) + len(self._immediate) \
            + (self._feed_when != math.inf)
        counts = [self._sequence, self._sequence - pending,
                  self.processes_started, self.process_resumes,
                  self.interrupts]
        width = metrics.bin_width
        index = (int(self._now // width),)
        for counter, count, published in zip(
                self._counters, counts, self._published):
            if count != published:
                metrics.record_bins(counter, index,
                                    (float(count - published),))
        self._published = counts
        metrics.record_bins(self._depth, index, (pending,))
        return (upcoming // width + 1.0) * width

    # -- running -----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Drain the event queues, optionally stopping the clock at ``until``.

        Returns the final simulation time.  Unhandled exceptions raised by
        processes that nobody was waiting on are re-raised here so model
        bugs never pass silently.

        Batched dispatch: all events sharing the current timestamp drain
        through the immediate FIFO in one pass -- one clock update per
        distinct tick, no per-event heap re-entry.  A heap entry that
        shares the current timestamp (scheduled before the clock reached
        it) is merged in by comparing sequence numbers, so the global
        firing order is identical to a single time-ordered heap.  The
        feed's head (:meth:`feed`) is one more such entry, held in two
        locals instead of the heap.  The clock only moves when the heap
        head or the feed head is taken; metering costs one compare
        there.
        """
        self._running = True
        edge = self._publish(self._now)
        heap = self._heap
        immediate = self._immediate
        orphans = self._orphan_errors
        pop = heappop
        popleft = immediate.popleft
        inf = math.inf
        feed_times = self._feed_times
        feed_items = self._feed_items
        feed_func = self._feed_func
        feed_count = len(feed_times)
        feed_next = self._feed_next
        feed_when = self._feed_when
        feed_seq = self._feed_seq
        try:
            while True:
                if immediate:
                    now = self._now
                    if until is not None and now > until:
                        break
                    seq = immediate[0][0]
                    timer = heap and heap[0][0] <= now and heap[0][1] < seq
                    if timer:
                        seq = heap[0][1]
                    if feed_when <= now and feed_seq < seq:
                        func = None
                    elif timer:
                        _when, _seq, func, args = pop(heap)
                    else:
                        _seq, func, args = popleft()
                elif heap and (heap[0][0] < feed_when or (
                        heap[0][0] == feed_when and heap[0][1] < feed_seq)):
                    head = heap[0]
                    when = head[0]
                    if until is not None and when > until:
                        break
                    if when >= edge:
                        edge = self._publish(when)
                    pop(heap)
                    self._now = when
                    func, args = head[2], head[3]
                elif feed_when == inf or (until is not None
                                          and feed_when > until):
                    break
                else:
                    if feed_when >= edge:
                        edge = self._publish(feed_when)
                    self._now = feed_when
                    func = None
                if func is None:
                    # The feed's head is next in (when, seq) order: give
                    # each item due its zero-delay hop, then reserve the
                    # next group's sequence number.  A lone item whose
                    # hop would be the very next event skips the queue.
                    now = feed_when
                    seq = self._sequence
                    k = feed_next + 1
                    if not immediate and (k == feed_count
                                          or feed_times[k] != now) \
                            and not (heap and heap[0][0] <= now):
                        func, args = feed_func, (feed_items[feed_next],)
                        seq += 1
                    else:
                        k = feed_next
                        while k < feed_count and feed_times[k] == now:
                            immediate.append(
                                (seq, feed_func, (feed_items[k],)))
                            seq += 1
                            k += 1
                    feed_next = k
                    if k < feed_count:
                        feed_when = feed_times[k]
                        feed_seq = seq
                        seq += 1
                    else:
                        feed_when = inf
                        self._feed_times = self._feed_items = []
                        self._feed_func = None
                    self._feed_when = feed_when
                    self._sequence = seq
                    if func is None:
                        continue
                func(*args)
                if orphans:
                    name, error = orphans[0]
                    raise SimulationError(
                        f"unhandled error in process {name!r} "
                        f"at t={self._now:g}") from error
        finally:
            self._running = False
            self._feed_next = feed_next
            self._feed_seq = feed_seq
            self._publish(self._now)
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def run_all(self, batch: Iterable[ProcessGenerator]) -> list[Any]:
        """Convenience: start every generator as a process, run to quiescence,
        and return their results in order."""
        processes = [self.process(gen) for gen in batch]
        self.run()
        return [p.result for p in processes]
