"""Tests for the discrete-event engine."""

import json
from pathlib import Path

import pytest

from repro.obs import MetricsRegistry
from repro.perf import golden
from repro.sim import (
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.engine import Event

PINNED = json.loads(
    (Path(__file__).parent / "data" / "golden_digests.json").read_text())


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_call_in_fires_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.call_in(3.0, fired.append, "c")
        sim.call_in(1.0, fired.append, "a")
        sim.call_in(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_fires_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for tag in range(5):
            sim.call_at(1.0, fired.append, tag)
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_call_at_in_the_past_is_rejected(self):
        sim = Simulator()
        sim.call_in(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(1.0, lambda: None)

    def test_run_until_stops_clock_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.call_at(10.0, fired.append, "late")
        end = sim.run(until=4.0)
        assert end == 4.0
        assert fired == []
        sim.run()
        assert fired == ["late"]

    def test_run_until_advances_clock_when_queue_is_empty(self):
        sim = Simulator()
        assert sim.run(until=42.0) == 42.0
        assert sim.now == 42.0

    def test_callbacks_can_schedule_more_callbacks(self):
        sim = Simulator()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 3:
                sim.call_in(1.0, chain, depth + 1)

        sim.call_in(1.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 4.0


class TestProcesses:
    def test_timeout_advances_clock(self):
        sim = Simulator()

        def proc():
            yield Timeout(5.0)
            return sim.now

        process = sim.process(proc())
        sim.run()
        assert process.result == 5.0

    def test_timeout_carries_value(self):
        sim = Simulator()

        def proc():
            value = yield Timeout(1.0, value="ping")
            return value

        process = sim.process(proc())
        sim.run()
        assert process.result == "ping"

    def test_negative_timeout_is_rejected(self):
        with pytest.raises(SimulationError):
            Timeout(-1.0)

    def test_process_waits_on_another_process(self):
        sim = Simulator()

        def child():
            yield Timeout(3.0)
            return "payload"

        def parent():
            value = yield sim.process(child())
            return value, sim.now

        process = sim.process(parent())
        sim.run()
        assert process.result == ("payload", 3.0)

    def test_waiting_on_finished_process_resumes_immediately(self):
        sim = Simulator()

        def child():
            yield Timeout(1.0)
            return 99

        child_process = sim.process(child())

        def parent():
            yield Timeout(5.0)
            value = yield child_process
            return value

        parent_process = sim.process(parent())
        sim.run()
        assert parent_process.result == 99
        assert sim.now == 5.0

    def test_child_exception_propagates_to_waiter(self):
        sim = Simulator()

        def child():
            yield Timeout(1.0)
            raise ValueError("boom")

        def parent():
            try:
                yield sim.process(child())
            except ValueError as exc:
                return f"caught {exc}"

        process = sim.process(parent())
        sim.run()
        assert process.result == "caught boom"

    def test_unhandled_process_error_surfaces_in_run(self):
        sim = Simulator()

        def bad():
            yield Timeout(1.0)
            raise RuntimeError("unobserved")

        sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run()

    def test_result_before_completion_raises(self):
        sim = Simulator()

        def proc():
            yield Timeout(10.0)

        process = sim.process(proc())
        with pytest.raises(SimulationError):
            _ = process.result

    def test_yielding_garbage_fails_the_process(self):
        sim = Simulator()

        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run()

    def test_process_requires_generator(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Process(sim, lambda: None)  # type: ignore[arg-type]

    def test_interrupt_raises_inside_process(self):
        sim = Simulator()

        def sleeper():
            try:
                yield Timeout(100.0)
            except Interrupt as interrupt:
                return ("interrupted", interrupt.cause, sim.now)
            return "slept"

        process = sim.process(sleeper())
        sim.call_at(2.0, process.interrupt, "wake")
        sim.run()
        assert process.result == ("interrupted", "wake", 2.0)

    def test_interrupt_after_completion_is_noop(self):
        sim = Simulator()

        def quick():
            yield Timeout(1.0)
            return "done"

        process = sim.process(quick())
        sim.run()
        process.interrupt("late")
        sim.run()
        assert process.result == "done"

    def test_run_all_returns_results_in_order(self):
        sim = Simulator()

        def proc(delay, tag):
            yield Timeout(delay)
            return tag

        results = sim.run_all([proc(3, "a"), proc(1, "b"), proc(2, "c")])
        assert results == ["a", "b", "c"]


class TestEvents:
    def test_event_resumes_waiters_with_value(self):
        sim = Simulator()
        event = sim.event()

        def waiter():
            value = yield event
            return value, sim.now

        process = sim.process(waiter())
        sim.call_at(7.0, event.trigger, "signal")
        sim.run()
        assert process.result == ("signal", 7.0)

    def test_event_triggers_multiple_waiters(self):
        sim = Simulator()
        event = sim.event()

        def waiter():
            return (yield event)

        processes = [sim.process(waiter()) for _ in range(3)]
        sim.call_at(1.0, event.trigger, 5)
        sim.run()
        assert [p.result for p in processes] == [5, 5, 5]

    def test_waiting_on_already_triggered_event(self):
        sim = Simulator()
        event = sim.event()
        event.trigger("early")

        def waiter():
            return (yield event)

        process = sim.process(waiter())
        sim.run()
        assert process.result == "early"

    def test_double_trigger_is_an_error(self):
        sim = Simulator()
        event = sim.event(name="once")
        event.trigger()
        with pytest.raises(SimulationError):
            event.trigger()

    def test_value_before_trigger_is_an_error(self):
        sim = Simulator()
        event = sim.event()
        with pytest.raises(SimulationError):
            _ = event.value
        event.trigger(3)
        assert event.value == 3
        assert event.triggered


class TestWaiterCancellation:
    """The O(1) waiter-cancellation bookkeeping (PR 3 fast path)."""

    def test_interrupted_waiter_detaches_from_event(self):
        sim = Simulator()
        gate = sim.event("gate")

        def waiter():
            try:
                yield gate
            except Interrupt:
                return "interrupted"
            return "leaked"

        process = sim.process(waiter())
        sim.call_at(1.0, process.interrupt)
        sim.run(until=1.5)
        assert not gate._waiters, "cancelled waiter left behind"
        sim.call_at(2.0, gate.trigger, "go")
        sim.run()
        assert process.result == "interrupted"

    def test_mass_cancellation_leaves_no_waiters(self):
        # The pre-optimisation list bookkeeping made this quadratic
        # (one list.remove per interrupt); the dict keeps it O(1) and,
        # more importantly here, must leave the event genuinely empty.
        sim = Simulator()
        gate = sim.event("gate")
        outcomes = []

        def member(tag):
            try:
                yield gate
                outcomes.append((tag, "resumed"))
            except Interrupt:
                outcomes.append((tag, "cancelled"))

        processes = [sim.process(member(i)) for i in range(100)]

        def cancel_all():
            yield Timeout(1.0)
            for process in processes:
                process.interrupt()

        sim.process(cancel_all())
        sim.call_at(2.0, gate.trigger, None)
        sim.run()
        assert not gate._waiters
        assert sorted(outcomes) == [(i, "cancelled") for i in range(100)]

    def test_partial_cancellation_preserves_resume_order(self):
        # Cancelling some waiters must not disturb the registration
        # order in which the survivors resume on trigger.
        sim = Simulator()
        gate = sim.event("gate")
        resumed = []

        def waiter(tag):
            try:
                yield gate
                resumed.append(tag)
            except Interrupt:
                pass

        processes = [sim.process(waiter(i)) for i in range(6)]
        sim.call_at(1.0, processes[1].interrupt)
        sim.call_at(1.0, processes[4].interrupt)
        sim.call_at(2.0, gate.trigger, None)
        sim.run()
        assert resumed == [0, 2, 3, 5]

    def test_interrupted_waiter_detaches_from_process(self):
        # Waiting on a *process* uses the same dict bookkeeping; the
        # target finishing later must not resume the cancelled waiter.
        sim = Simulator()

        def sleeper():
            yield Timeout(5.0)
            return "slept"

        target = sim.process(sleeper())

        def waiter():
            try:
                yield target
            except Interrupt:
                return "interrupted"
            return "leaked"

        process = sim.process(waiter())
        sim.call_at(1.0, process.interrupt)
        final = sim.run()
        assert process.result == "interrupted"
        assert not target._waiters
        assert target.result == "slept"
        assert final == 5.0

    def test_remove_waiter_of_stranger_is_noop(self):
        sim = Simulator()
        gate = sim.event("gate")

        def waiter():
            yield gate

        process = sim.process(waiter())
        sim.run(until=0.5)
        stranger = Process(sim, waiter())
        gate._remove_waiter(stranger)      # not registered: must not raise
        assert list(gate._waiters.values()) == [process]


class TestInterruptStaleness:
    """The token-capture contract: an interrupt (or resume) only lands
    in the wait it was aimed at -- never in a later one."""

    def test_interrupt_scheduled_with_resume_is_dropped_when_stale(self):
        # A waiter's event fires and an interrupt is scheduled at the
        # SAME timestamp, after the resume.  By the time the interrupt
        # callback runs, the process has moved into its next wait; the
        # stale interrupt must not leak into it.
        sim = Simulator()
        gate = sim.event("gate")

        def waiter():
            value = yield gate
            try:
                yield Timeout(10.0)
            except Interrupt:
                return "stale interrupt leaked"
            return ("clean", value)

        process = sim.process(waiter())

        def fire_then_interrupt():
            gate.trigger("payload")        # schedules the resume first
            process.interrupt()            # aimed at the gate wait only
        sim.call_at(1.0, fire_then_interrupt)
        sim.run()
        assert process.result == ("clean", "payload")

    def test_interrupt_during_resume_of_process_wait(self):
        # Same staleness rule for a process-on-process wait.  The
        # saboteur's timeout is scheduled *after* the child's, so at
        # t=1 the heap order is: child completes (queueing parent's
        # resume), saboteur interrupts, resume fires, stale throw is
        # dropped.
        sim = Simulator()

        def child():
            yield Timeout(1.0)
            return "done"

        def parent(target):
            value = yield target
            try:
                yield Timeout(5.0)
            except Interrupt:
                return "stale"
            return value

        def saboteur(victim):
            yield Timeout(1.0)
            victim.interrupt()

        target = sim.process(child())
        process = sim.process(parent(target))
        sim.process(saboteur(process))
        sim.run()
        assert process.result == "done"

    def test_mass_interrupt_cancels_only_live_waiters(self):
        # Of many processes parked on one event, half are interrupted
        # before the trigger; the interrupt must detach exactly those,
        # and the survivors resume normally.
        sim = Simulator()
        gate = sim.event("gate")
        outcomes = {}

        def waiter(name):
            try:
                value = yield gate
            except Interrupt:
                outcomes[name] = "interrupted"
                return None
            outcomes[name] = value
            return value

        processes = [sim.process(waiter(i), name=f"w{i}")
                     for i in range(10)]

        def cull():
            for process in processes[::2]:
                process.interrupt()
        sim.call_at(1.0, cull)
        sim.call_at(2.0, gate.trigger, "open")
        sim.run()
        assert [outcomes[i] for i in range(0, 10, 2)] == \
            ["interrupted"] * 5
        assert [outcomes[i] for i in range(1, 10, 2)] == ["open"] * 5
        assert not gate._waiters

    def test_seeded_interrupt_storm_is_bit_identical(self):
        # A chaos-style storm: processes sleep staggered amounts, a
        # culler interrupts a seeded subset at seeded times; retries
        # re-enter sleep.  Two runs with one seed must match exactly.
        from repro.sim.randomness import substream

        def storm(seed):
            sim = Simulator()
            rng = substream(seed, "storm")
            trace = []

            def worker(name, duration):
                attempts = 0
                while True:
                    attempts += 1
                    try:
                        yield Timeout(duration)
                    except Interrupt:
                        trace.append((name, attempts, "hit", sim.now))
                        continue
                    trace.append((name, attempts, "ok", sim.now))
                    return attempts

            processes = [
                sim.process(worker(i, 1.0 + float(rng.random())),
                            name=f"s{i}")
                for i in range(20)]
            for process in rng.choice(processes, size=30):
                sim.call_at(float(rng.random()) * 2.0,
                            process.interrupt)
            sim.run()
            return trace

        assert storm(7) == storm(7)
        assert storm(7) != storm(8)


class TestSameInstantDispatchOrder:
    """The batched immediate queue vs the plain time-ordered heap.

    The live engine drains same-timestamp events through a FIFO and
    merges in heap entries that share the current timestamp by sequence
    number; the pre-batching engine ordered everything through one
    heap.  The storm (``repro.perf.golden.engine_storm_log``) must fire
    in the global order pinned from that engine as ``engine_storm``.
    """

    def test_storm_order_matches_pre_batching_engine(self):
        log = golden.engine_storm_log()
        assert golden.digest(log) == PINNED["engine_storm"]
        # The storm actually exercised same-instant contention: several
        # distinct tags fired at the same timestamps.
        times = [when for when, _tag in log]
        assert len(times) > len(set(times))

    def test_storm_interleaves_heap_entries_by_sequence(self):
        log = golden.engine_storm_log()
        by_time: dict = {}
        for when, tag in log:
            by_time.setdefault(when, []).append(tag)
        # At t=1.0: pre-seeded heap entries (lowest seqs) fire before
        # the burst, which fires before the immediates it enqueued.
        first = by_time[1.0]
        assert first[:3] == ["pre-seeded-a", "burst-3", "pre-seeded-b"]
        assert first.index("burst-3") < first.index("r3-imm0")
        # At t=2.0: the next burst (scheduled first) precedes the
        # same-instant heap timer, which precedes the later call_in.
        second = by_time[2.0]
        assert second.index("burst-2") < second.index("r3-timer")
        assert second.index("r3-timer") < second.index("r3-late-timer")


class TestFeed:
    """``Simulator.feed`` against the cursor it replaces.

    The reference is a cursor callback built from ``call_at``: at each
    distinct arrival time it queues ``call_in(0.0, func, item)`` per
    item due, then ``call_at``-s itself at the next time.  The feed must
    fire the same log in the same order, with the same event counts and
    pending depths.
    """

    #: Ties with heap entries and immediates, and lone arrivals (4.5,
    #: 8.5) whose hop is the next event.
    TIMES = [0.0, 1.0, 1.0, 2.0, 3.0, 3.0, 3.0, 4.5, 6.0, 8.5]

    @staticmethod
    def cursor(sim, times, func, items):
        times, items = list(times), list(items)
        position = [0]

        def arrive():
            k = position[0]
            while k < len(times) and times[k] == sim.now:
                sim.call_in(0.0, func, items[k])
                k += 1
            position[0] = k
            if k < len(times):
                sim.call_at(times[k], arrive)

        if times:
            sim.call_at(times[0], arrive)

    @staticmethod
    def scenario(sim, log, arrivals):
        """Heap entries before and after the arrivals, immediates and a
        process, all tying with arrival times."""
        def hit(tag):
            log.append((sim.now, tag))

        def arrive(tag):
            log.append((sim.now, tag))
            sim.call_in(0.0, hit, f"{tag}-now")
            sim.call_in(1.0, hit, f"{tag}-later")

        def walker():
            for step in range(4):
                yield Timeout(1.0)
                hit(f"walk-{step}")
                yield Timeout(0.0)
                hit(f"walk-{step}-again")

        sim.call_at(0.0, hit, "before-at-0")
        for when in (1.0, 2.0, 2.0, 3.0, 5.0):
            sim.call_at(when, hit, f"before-{when:g}")
        sim.process(walker(), name="walker")
        arrivals(sim, TestFeed.TIMES, arrive,
                 [f"a{k}" for k in range(len(TestFeed.TIMES))])
        sim.call_at(0.0, hit, "after-at-0")
        for when in (1.0, 3.0, 3.0, 6.0):
            sim.call_at(when, hit, f"after-{when:g}")

    def replay(self, arrivals, stops=()):
        registry = MetricsRegistry(bin_width=1.0)
        sim = Simulator(metrics=registry)
        log: list = []
        self.scenario(sim, log, arrivals)
        for until in stops:
            sim.run(until=until)
            log.append((sim.now, "stopped"))
        sim.run()
        series = {name: registry.series(f"repro_sim_{name}")
                  for name in ("events_scheduled_total",
                               "events_fired_total", "heap_depth")}
        return log, registry.snapshot(), series

    @staticmethod
    def fed(sim, times, func, items):
        sim.feed(times, func, items)

    def test_ties_with_heap_entries_and_immediates(self):
        log, counts, series = self.replay(self.fed)
        assert (log, counts, series) == self.replay(self.cursor)
        assert counts["repro_sim_events_scheduled_total"] == \
            counts["repro_sim_events_fired_total"] > len(self.TIMES)
        at_one = [tag for when, tag in log if when == 1.0]
        # Every heap entry due at 1.0 fires before the group's items,
        # whose hops take their sequence numbers only when the group
        # fires; the items precede the zero-delay work they queue.
        for tag in ("before-1", "after-1", "a0-later"):
            assert at_one.index(tag) < at_one.index("a1")
        assert at_one.index("a2") < at_one.index("a1-now")

    @pytest.mark.parametrize("stops", [(1.0,), (0.5, 2.0, 2.5), (3.0, 7.0)])
    def test_run_until_stops_and_resumes(self, stops):
        assert self.replay(self.fed, stops) == \
            self.replay(self.cursor, stops)

    def test_feed_at_now_orders_by_sequence(self):
        def run(arrivals):
            sim = Simulator()
            log: list = []
            sim.call_in(0.0, log.append, "first")
            arrivals(sim, [0.0, 0.0], log.append, ["x", "y"])
            sim.call_in(0.0, log.append, "last")
            sim.run()
            return log

        # The group's items are queued when its reserved event fires,
        # after the immediates scheduled before and after the feed.
        assert run(self.fed) == run(self.cursor) == \
            ["first", "last", "x", "y"]

    def test_drained_feed_drops_its_callback(self):
        import weakref

        class Target:
            def hit(self, item):
                pass

        sim = Simulator()
        target = Target()
        ref = weakref.ref(target)
        sim.feed([1.0, 2.0], target.hit, [0, 1])
        del target
        sim.run()
        assert ref() is None

    def test_invalid_feeds_are_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="not sorted"):
            sim.feed([2.0, 1.0], print, [0, 1])
        with pytest.raises(SimulationError, match="items"):
            sim.feed([1.0], print, [0, 1])
        sim.feed([1.0], print, [0])
        with pytest.raises(SimulationError, match="pending"):
            sim.feed([2.0], print, [0])
        sim.run(until=5.0)
        with pytest.raises(SimulationError, match="not sorted"):
            sim.feed([4.0], print, [0])
        sim.call_in(1.0, lambda: sim.feed([9.0], print, [0]))
        with pytest.raises(SimulationError, match="inside run"):
            sim.run()
