"""The paused cycle collector (:mod:`repro.sim.collector`) and why it is safe.

Two layers of proof:

* **The helper.**  :func:`paused` restores the collector's state on
  exit and on an exception, does nothing when the collector is already
  off, never releases objects its caller froze, and promotes what the
  block allocated to the oldest generation.
* **Acyclicity pins.**  Pausing the collector is free only while the
  layers it wraps -- week generation, trace read, the cloud replay
  fault-free and faulted -- build no reference cycles.  Each layer runs
  once to warm import-time and first-use caches, then again with the
  collector off; dropping its result must leave nothing for
  ``gc.collect()`` to find.  A change that adds a cycle per task fails
  here instead of growing a full-scale run's memory.
"""

from __future__ import annotations

import gc
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import pytest

from repro.sim.collector import paused

#: Small enough for seconds, large enough to exercise retries,
#: failovers and every popularity class of the cloud replay.
SCALE = 0.002
SEED = 20150222


class Marker:
    """A collector-tracked object to follow through the generations."""


@contextmanager
def collector_state(enabled: bool) -> Iterator[None]:
    """Run the block with the collector on or off, then restore it."""
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


def in_generation(obj: object, generation: int) -> bool:
    return any(tracked is obj
               for tracked in gc.get_objects(generation=generation))


def in_any_generation(obj: object) -> bool:
    """Whether ``obj`` is in a collector generation (not frozen)."""
    return any(tracked is obj for tracked in gc.get_objects())


class TestPaused:
    def test_disables_inside_and_restores_on_exit(self):
        with collector_state(True):
            with paused():
                assert not gc.isenabled()
            assert gc.isenabled()

    def test_restores_on_exception(self):
        with collector_state(True):
            with pytest.raises(RuntimeError, match="boom"):
                with paused():
                    raise RuntimeError("boom")
            assert gc.isenabled()

    def test_noop_when_collector_already_disabled(self):
        with collector_state(False):
            with paused():
                assert not gc.isenabled()
                marker = Marker()
            assert not gc.isenabled()
            # Nothing was promoted: the marker is still young.
            assert in_generation(marker, 0)

    def test_nesting_restores_the_outer_state(self):
        with collector_state(True):
            with paused():
                with paused():
                    assert not gc.isenabled()
                assert not gc.isenabled()
            assert gc.isenabled()

    def test_leaves_the_callers_frozen_objects_frozen(self):
        # Pinned by identity, not by ``gc.get_freeze_count()``: any
        # thread that frees a frozen object moves that count.
        with collector_state(True):
            frozen = Marker()
            gc.freeze()
            try:
                assert not in_any_generation(frozen)
                with paused():
                    Marker()
                # Still in the permanent generation, which no
                # generation list includes.
                assert not in_any_generation(frozen)
                assert gc.get_freeze_count() > 0
                assert gc.isenabled()
            finally:
                gc.unfreeze()

    def test_promotes_survivors_to_the_oldest_generation(self):
        with collector_state(True):
            with paused():
                marker = Marker()
            assert gc.get_freeze_count() == 0
            assert in_generation(marker, 2)


# -- acyclicity pins ---------------------------------------------------------


def assert_acyclic(build: Callable[[], Any]) -> None:
    """``build()`` leaves no cyclic garbage once its result is dropped.

    The first call warms caches and imports; the second runs with the
    collector off, as :func:`paused` runs it.  ``DEBUG_SAVEALL`` keeps
    whatever the collection finds so the failure names its types.
    """
    build()
    with collector_state(False):
        gc.collect()
        result = build()
        del result
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            found = gc.collect()
            leaked = Counter(type(obj).__qualname__ for obj in gc.garbage)
            gc.garbage.clear()
        finally:
            gc.set_debug(0)
    assert found == 0, (
        f"{found} objects in reference cycles, by type: "
        f"{leaked.most_common(12)}")


def generate_week():
    from repro.workload.generator import WorkloadConfig, WorkloadGenerator
    return WorkloadGenerator(WorkloadConfig(scale=SCALE, seed=SEED)).generate()


@pytest.fixture(scope="module")
def week():
    return generate_week()


class TestAcyclicLayers:
    def test_week_generation(self):
        assert_acyclic(generate_week)

    @pytest.mark.parametrize("trace_format", ["columnar", "jsonl"])
    def test_trace_read(self, week, tmp_path, trace_format):
        from repro.workload.traceio import load_workload, save_workload
        save_workload(week, tmp_path, trace_format=trace_format)
        assert_acyclic(lambda: load_workload(tmp_path,
                                             trace_format=trace_format))

    def test_cloud_replay(self, week):
        from repro.cloud import CloudConfig, XuanfengCloud
        assert_acyclic(
            lambda: XuanfengCloud(CloudConfig(scale=SCALE)).run(week))

    @pytest.mark.parametrize("with_policies", [True, False],
                             ids=["default-policies", "no-policies"])
    def test_faulted_cloud_replay(self, week, with_policies):
        from repro.cloud import CloudConfig, XuanfengCloud
        from repro.faults import DEFAULT_POLICIES, FaultInjector
        from repro.faults.plan import default_chaos_plan
        policies = DEFAULT_POLICIES if with_policies else None

        def replay():
            injector = FaultInjector(default_chaos_plan())
            cloud = XuanfengCloud(CloudConfig(scale=SCALE), faults=injector,
                                  policies=policies)
            result = cloud.run(week)
            assert injector.impacts > 0
            return result

        assert_acyclic(replay)
