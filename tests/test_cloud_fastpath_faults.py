"""Interrupt edges of the cloud task machine under fault injection.

Each test replays a hand-built week of one or two requests against a
deterministic source (always available, fixed rate, no mid-transfer
failure), so every session deadline is known in advance and a fault
window can be placed exactly on it.  The golden digests pin whole
faulted weeks; these pin the individual rules behind them.
"""

from __future__ import annotations

import pytest

from repro.cloud import CloudConfig, XuanfengCloud
from repro.cloud.fastpath import _FastTask
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.faults.plan import default_chaos_plan
from repro.faults.policies import ResiliencePolicies, RetryPolicy
from repro.netsim.isp import ISP
from repro.obs import MetricsRegistry
from repro.perf.golden import cloud_payload
from repro.transfer.protocols import Protocol
from repro.transfer.source import AttemptDraw, ContentSource, SourceModel
from repro.workload.catalog import FileCatalog
from repro.workload.filetypes import FileType
from repro.workload.generator import (
    Workload,
    WorkloadConfig,
    WorkloadGenerator,
)
from repro.workload.popularity import PopularityClass
from repro.workload.records import CatalogFile, RequestRecord, User

#: Every file is 20 MB, pulled at 1 MB/s: a session lasts exactly 20 s.
SIZE = 20e6
RATE = 1e6
SESSION = SIZE / RATE
#: The user's access bandwidth caps the fetch, so it lasts >= 20 s too.
USER_BANDWIDTH = 1e6
LAG = 60.0
STALL = CloudConfig().stagnation_timeout


class _FixedSource(ContentSource):
    def __init__(self, protocol: Protocol):
        self.protocol = protocol

    def draw_attempt(self, rng, vantage) -> AttemptDraw:
        return AttemptDraw(available=True, rate=RATE)


class _FixedSourceModel(SourceModel):
    def build(self, file_id, protocol, weekly_demand) -> ContentSource:
        return _FixedSource(protocol)


def _file(name: str, protocol: Protocol = Protocol.HTTP) -> CatalogFile:
    return CatalogFile(file_id=name, size=SIZE, file_type=FileType.VIDEO,
                       protocol=protocol, weekly_demand=2,
                       source_url=f"{protocol.value}://origin/{name}")


USER = User(user_id="u1", ip_address="10.0.0.1", isp=ISP.TELECOM,
            access_bandwidth=USER_BANDWIDTH, reports_bandwidth=True)


def _week(record: CatalogFile, times: list[float]) -> Workload:
    catalog = FileCatalog()
    catalog.files[record.file_id] = record
    requests = [RequestRecord(
        task_id=f"t{index}", user_id=USER.user_id,
        ip_address=USER.ip_address, access_bandwidth=USER_BANDWIDTH,
        request_time=when, file_id=record.file_id,
        file_type=record.file_type, file_size=record.size,
        source_url=record.source_url, protocol=record.protocol)
        for index, when in enumerate(times)]
    return Workload(WorkloadConfig(scale=0.01), catalog, [USER], requests)


def _plan(*specs: FaultSpec) -> FaultPlan:
    return FaultPlan(name="edges", seed=7, specs=specs)


def _replay(workload: Workload, plan: FaultPlan,
            policies=None, metrics=None):
    """(cloud, result, injector) of one replay with no pre-seeded pool
    and a fixed 60 s fetch lag."""
    config = CloudConfig(
        scale=0.01, fetch_lag_median=LAG, fetch_lag_sigma=0.0,
        precached_probability={klass: 0.0 for klass in PopularityClass})
    injector = FaultInjector(plan)
    kwargs = {} if metrics is None else {"metrics": metrics}
    cloud = XuanfengCloud(config, source_model=_FixedSourceModel(),
                          faults=injector, policies=policies, **kwargs)
    return cloud, cloud.run(workload), injector


@pytest.fixture
def delivered(monkeypatch):
    """Counts interrupts delivered to live machine tasks."""
    count = [0]
    original = _FastTask.interrupt

    def counting(self, cause=None):
        if not self.done:
            count[0] += 1
        original(self, cause)

    monkeypatch.setattr(_FastTask, "interrupt", counting)
    return count


def _interrupts(metrics: MetricsRegistry) -> float:
    return metrics.counter("repro_sim_interrupts_total").value


def test_interrupt_at_the_attempt_deadline_is_stale(delivered):
    # The window opens at 120 s, the instant the 100 s attempt ends.
    # Its activation was scheduled first, so it interrupts the attempt;
    # the deadline timeout then resumes the task before the throw lands.
    metrics = MetricsRegistry()
    _cloud, result, injector = _replay(
        _week(_file("f"), [100.0]),
        _plan(FaultSpec("vm_stall", "file:*", start=100.0 + SESSION,
                        duration=50.0)),
        metrics=metrics)
    pre = result.tasks[0].pre_record
    assert pre.success and pre.finish_time == 100.0 + SESSION
    assert delivered[0] == 1 and _interrupts(metrics) == 1
    assert injector.impacts == 0


def test_seed_death_on_a_non_p2p_file_is_ignored(delivered):
    week = _week(_file("f"), [100.0])
    _cloud, clean, _ = _replay(week, _plan())
    _cloud, result, injector = _replay(
        week, _plan(FaultSpec("seed_death", "file:*", start=110.0,
                              duration=50.0)))
    pre = result.tasks[0].pre_record
    assert delivered[0] == 1
    # The wait resumed to the same deadline; nothing else moved.
    assert pre.success and pre.finish_time == 100.0 + SESSION
    assert injector.impacts == 0
    assert cloud_payload(result) == cloud_payload(clean)


class _PokingInjector(FaultInjector):
    """Interrupts every registered fetch at ``when`` with ``cause``."""

    def __init__(self, plan, when: float, cause: FaultSpec):
        super().__init__(plan)
        self.when = when
        self.cause = cause
        self.fetches: list = []

    def register(self, entity, process):
        super().register(entity, process)
        if entity[0] == "isp":
            self.fetches.append(process)

    def unregister(self, entity, process):
        super().unregister(entity, process)
        if entity[0] == "isp":
            self.fetches.remove(process)

    def bind(self, sim, kinds=None):
        super().bind(sim, kinds)
        sim.call_at(self.when, self._poke)

    def _poke(self):
        for process in list(self.fetches):
            process.interrupt(cause=self.cause)


def test_non_crash_interrupt_during_a_fetch_is_ignored(delivered):
    week = _week(_file("f"), [100.0])
    _cloud, clean, _ = _replay(week, _plan())
    fetch_start = 100.0 + SESSION + LAG
    degrade = FaultSpec("isp_degrade", "isp:*", start=0.0, duration=1.0,
                        severity=0.5)
    injector = _PokingInjector(_plan(), fetch_start + 1.0, degrade)
    config = CloudConfig(
        scale=0.01, fetch_lag_median=LAG, fetch_lag_sigma=0.0,
        precached_probability={klass: 0.0 for klass in PopularityClass})
    result = XuanfengCloud(config, source_model=_FixedSourceModel(),
                           faults=injector).run(week)
    fetch = result.tasks[0].fetch_record
    assert delivered[0] == 1
    assert fetch.start_time == fetch_start and not fetch.rejected
    assert len(result.flows) == 1 and injector.impacts == 0
    assert cloud_payload(result) == cloud_payload(clean)


@pytest.mark.parametrize("retry", [False, True])
def test_vm_stall_at_attempt_start_burns_the_stagnation_timeout(retry):
    # Two back-to-back stall windows: the retry (after the first clears
    # plus a 30 s jitter-free backoff) lands in the second, and the
    # two-attempt budget is then spent.
    policies = ResiliencePolicies(
        retry=RetryPolicy(max_attempts=2, base_delay=30.0, jitter=0.0)) \
        if retry else None
    _cloud, result, injector = _replay(
        _week(_file("f"), [100.0]),
        _plan(FaultSpec("vm_stall", "file:*", start=0.0, duration=1000.0),
              FaultSpec("vm_stall", "file:*", start=1000.0,
                        duration=5000.0)),
        policies=policies)
    pre = result.tasks[0].pre_record
    last_attempt = 1030.0 if retry else 100.0
    assert not pre.success
    assert pre.failure_cause == "fault:vm_stall"
    assert pre.finish_time == last_attempt + STALL
    assert pre.acquired_bytes == 0.0
    assert injector.scoreboard() == {
        "injected": 2, "impacts": 2 if retry else 1,
        "retries": 1 if retry else 0, "failovers": 0, "aborts": 1,
        "recoveries": 0}


def test_pool_pressure_at_insert_keeps_the_file_out():
    # The second request comes after the first pre-download finished:
    # a hit if the file was pooled, a fresh pre-download if not.
    week = _week(_file("f"), [100.0, 300.0])
    cloud, result, injector = _replay(week, _plan())
    assert "f" in cloud.pool and cloud.fleet.attempts == 1
    assert result.tasks[1].pre_record.cache_hit

    cloud, result, injector = _replay(
        week, _plan(FaultSpec("pool_pressure", "*", start=110.0,
                              duration=50.0)))
    assert result.tasks[0].pre_record.success
    assert injector.impacts == 1
    assert cloud.fleet.attempts == 2
    assert not result.tasks[1].pre_record.cache_hit
    assert "f" in cloud.pool   # the second finish is outside the window


@pytest.mark.parametrize("retry", [False, True])
def test_coalesced_tasks_get_the_faulted_final_outcome(retry):
    # t0 owns the pre-download; t1 coalesces onto it at 105 s; a stall
    # interrupts the attempt at 110 s.
    policies = ResiliencePolicies(
        retry=RetryPolicy(max_attempts=2, base_delay=30.0, jitter=0.0)) \
        if retry else None
    _cloud, result, injector = _replay(
        _week(_file("f"), [100.0, 105.0]),
        _plan(FaultSpec("vm_stall", "file:*", start=110.0,
                        duration=50.0)),
        policies=policies)
    owner, coalesced = (task.pre_record for task in sorted(
        result.tasks, key=lambda task: task.request.task_id))
    assert owner.success is retry
    assert coalesced.success is retry
    assert coalesced.finish_time == owner.finish_time
    if retry:
        # Retried after the window (160 s) plus 30 s; checkpoint-resume
        # fetches the 10 MB left.
        assert owner.finish_time == 190.0 + SESSION / 2
        assert coalesced.cache_hit
    else:
        assert owner.failure_cause == coalesced.failure_cause \
            == "fault:vm_stall"
        assert owner.finish_time == 110.0
        assert coalesced.acquired_bytes == owner.acquired_bytes \
            == SIZE / 2
    assert injector.impacts == 1


def test_sim_interrupts_count_the_interrupts_delivered(delivered):
    workload = WorkloadGenerator(
        WorkloadConfig(scale=0.0008, seed=20150222)).generate()
    metrics = MetricsRegistry()
    injector = FaultInjector(default_chaos_plan())
    XuanfengCloud(CloudConfig(scale=0.0008), metrics=metrics,
                  faults=injector,
                  policies=ResiliencePolicies()).run(workload)
    assert delivered[0] > 0
    assert _interrupts(metrics) == delivered[0]
    assert injector.impacts > 0
