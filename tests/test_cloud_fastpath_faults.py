"""Interrupt edges of the cloud task machine under fault injection.

Each test replays a hand-built week of one to three requests against a
deterministic source (always available, fixed rate, no mid-transfer
failure), so every session deadline is known in advance and a fault
window can be placed exactly on it.  The golden digests pin whole
faulted weeks; these pin the individual rules behind them, including
which waits register with the injector (only those a window can
reach).
"""

from __future__ import annotations

from typing import Optional

import pytest

import repro.faults
from repro.cloud import CloudConfig, XuanfengCloud
from repro.cloud.fastpath import _Task
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.faults.plan import default_chaos_plan
from repro.faults.policies import ResiliencePolicies, RetryPolicy
from repro.netsim.isp import ISP, MAJOR_ISPS
from repro.obs import NOOP, MetricsRegistry
from repro.perf import golden
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
from repro.workload.users import UserPopulation

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
UNICOM_USER = User(user_id="u2", ip_address="10.0.1.1", isp=ISP.UNICOM,
                   access_bandwidth=USER_BANDWIDTH, reports_bandwidth=True)


def _week(record: CatalogFile, times: list[float],
          users: Optional[list[User]] = None) -> Workload:
    """Requests for ``record`` at ``times``, by ``users`` (one per
    request; all by USER if None)."""
    users = users or [USER] * len(times)
    catalog = FileCatalog.from_records([record])
    requests = [RequestRecord(
        task_id=f"t{index}", user_id=user.user_id,
        ip_address=user.ip_address, access_bandwidth=USER_BANDWIDTH,
        request_time=when, file_id=record.file_id,
        file_type=record.file_type, file_size=record.size,
        source_url=record.source_url, protocol=record.protocol)
        for index, (when, user) in enumerate(zip(times, users))]
    return Workload(WorkloadConfig(scale=0.01), catalog,
                    UserPopulation.from_records(list(
                        {user.user_id: user for user in users}.values())),
                    requests)


def _plan(*specs: FaultSpec) -> FaultPlan:
    return FaultPlan(name="edges", seed=7, specs=specs)


class _RecordingInjector(FaultInjector):
    """Logs every registration as (entity, task index)."""

    def __init__(self, plan, metrics=NOOP):
        super().__init__(plan, metrics)
        self.registered: list = []

    def register(self, entity, process):
        super().register(entity, process)
        self.registered.append((entity, process.idx))


def _replay(workload: Workload, plan: FaultPlan,
            policies=None, metrics=None):
    """(cloud, result, injector) of one replay with no pre-seeded pool
    and a fixed 60 s fetch lag; the injector records registrations."""
    config = CloudConfig(
        scale=0.01, fetch_lag_median=LAG, fetch_lag_sigma=0.0,
        precached_probability={klass: 0.0 for klass in PopularityClass})
    injector = _RecordingInjector(plan)
    kwargs = {} if metrics is None else {"metrics": metrics}
    cloud = XuanfengCloud(config, source_model=_FixedSourceModel(),
                          faults=injector, policies=policies, **kwargs)
    return cloud, cloud.run(workload), injector


@pytest.fixture
def delivered(monkeypatch):
    """Counts interrupts delivered to live machine tasks."""
    count = [0]
    original = _Task.interrupt

    def counting(self, cause=None):
        if not self.done:
            count[0] += 1
        original(self, cause)

    monkeypatch.setattr(_Task, "interrupt", counting)
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
    metrics = MetricsRegistry()
    _cloud, result, injector = _replay(
        week, _plan(FaultSpec("seed_death", "file:*", start=110.0,
                              duration=50.0)), metrics=metrics)
    pre = result.tasks[0].pre_record
    # The window opens inside the session: the wait registers and
    # receives the interrupt.
    assert injector.registered == [(("file", "f"), 0)]
    assert delivered[0] == 1 and _interrupts(metrics) == 1
    # The wait resumed to the same deadline; nothing else moved.
    assert pre.success and pre.finish_time == 100.0 + SESSION
    assert injector.impacts == 0
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


# -- the exposure rule: only waits a window can reach register ---------------


def test_a_wait_no_window_opens_in_is_not_registered(delivered):
    # Windows before the session, between the session (100-120 s) and
    # the fetch (from 180 s), and after the fetch: none opens inside a
    # wait.
    week = _week(_file("f"), [100.0])
    _cloud, clean, _ = _replay(week, _plan())
    _cloud, result, injector = _replay(week, _plan(
        FaultSpec("vm_stall", "file:*", start=50.0, duration=10.0),
        FaultSpec("seed_death", "file:*", start=150.0, duration=10.0),
        FaultSpec("server_crash", "isp:telecom", start=5000.0,
                  duration=10.0)))
    assert injector.registered == [] and delivered[0] == 0
    assert injector.scoreboard()["injected"] == 3
    assert cloud_payload(result) == cloud_payload(clean)


def test_a_crash_opening_at_the_fetch_deadline_registers_and_interrupts(
        delivered):
    week = _week(_file("f"), [100.0])
    _cloud, clean, _ = _replay(week, _plan())
    task = clean.tasks[0]
    deadline = task.fetch_record.finish_time
    entity = ("isp", task.fetch_path.server_isp.value)
    metrics = MetricsRegistry()
    _cloud, result, injector = _replay(week, _plan(FaultSpec(
        "server_crash", f"isp:{entity[1]}", start=deadline,
        duration=10.0)), metrics=metrics)
    assert injector.registered == [(entity, 0)]
    # The crash interrupts the fetch, but the deadline timeout resumes
    # it first: the throw is stale and the fetch ends clean.
    assert delivered[0] == 1 and _interrupts(metrics) == 1
    assert injector.impacts == 0
    assert cloud_payload(result) == cloud_payload(clean)
    assert injector._registered == {}


def test_a_window_opening_at_the_wait_start_neither_registers_nor_interrupts(
        delivered):
    # The seed_death opens at 100 s, the instant the session starts:
    # its activation fires before the task's first hop.
    week = _week(_file("f"), [100.0])
    _cloud, clean, _ = _replay(week, _plan())
    metrics = MetricsRegistry()
    _cloud, result, injector = _replay(week, _plan(FaultSpec(
        "seed_death", "file:*", start=100.0, duration=50.0)),
        metrics=metrics)
    assert injector.registered == []
    assert delivered[0] == 0 and _interrupts(metrics) == 0
    assert cloud_payload(result) == cloud_payload(clean)


@pytest.mark.parametrize("gated_in", [False, True])
def test_the_probability_gate_decides_registration(delivered, gated_in):
    stall = FaultSpec("vm_stall", "file:*", start=110.0, duration=50.0,
                      probability=0.5)
    seed = next(seed for seed in range(100) if FaultPlan(
        name="gate", seed=seed, specs=(stall,)).applies(stall, "f")
        is gated_in)
    plan = FaultPlan(name="gate", seed=seed, specs=(stall,))
    _cloud, result, injector = _replay(_week(_file("f"), [100.0]), plan)
    if gated_in:
        assert injector.registered == [(("file", "f"), 0)]
        assert delivered[0] == 1 and injector.impacts == 1
    else:
        assert injector.registered == [] and delivered[0] == 0
        assert result.tasks[0].pre_record.success


def test_an_isp_wide_crash_interrupts_in_registration_order(monkeypatch):
    # t0 (telecom) pre-downloads 100-120 s; t1 (unicom) and t2
    # (telecom) hit the pooled file.  Their fetches start at 180, 185
    # and 187 s and take >= 20 s, so all three are in flight at 190 s.
    order: list = []
    original = _Task.interrupt

    def logging(self, cause=None):
        order.append((self.idx, cause.target))
        original(self, cause)

    monkeypatch.setattr(_Task, "interrupt", logging)
    week = _week(_file("f"), [100.0, 125.0, 127.0],
                 [USER, UNICOM_USER, USER])
    _cloud, result, injector = _replay(week, _plan(FaultSpec(
        "server_crash", "isp:*", start=190.0, duration=10.0)))
    # Registration order across ISPs, not grouped by ISP.
    assert order == [(0, "isp:*"), (1, "isp:*"), (2, "isp:*")]
    assert [entity for entity, _idx in injector.registered] == [
        ("isp", "telecom"), ("isp", "unicom"), ("isp", "telecom")]
    assert injector.impacts == 3
    assert all(task.fetch_record.rejected for task in result.tasks)


@pytest.mark.parametrize("target", ["isp:*", "*"])
@pytest.mark.parametrize("retry", [False, True])
def test_a_broadcast_crash_darkens_every_upload_group(target, retry):
    # t0 pre-downloads 100-120 s and its fetch (from 180 s) is in flight
    # when the crash opens at 190 s; t1 hits the pooled file and its
    # fetch is admitted at 210 s, inside the window.  A named
    # isp:telecom crash sends t1 across the barrier to unicom; a
    # broadcast one leaves no group to serve it.
    policies = ResiliencePolicies(
        retry=RetryPolicy(max_attempts=2, base_delay=30.0, jitter=0.0)) \
        if retry else None
    _cloud, result, injector = _replay(
        _week(_file("f"), [100.0, 150.0]),
        _plan(FaultSpec("server_crash", target, start=190.0,
                        duration=1000.0)),
        policies=policies)
    assert injector.crashed_isps(210.0) == frozenset(
        isp.value for isp in MAJOR_ISPS)
    assert injector.crashed_isps(1190.0) == frozenset()
    late = result.tasks[1]
    assert late.fetch_record.start_time == 210.0
    if retry:
        # Both fetches wait out the window plus 30 s, then go home.
        assert all(task.fetch_path.server_isp is ISP.TELECOM
                   and task.fetch_record.finish_time > 1220.0 + SESSION
                   for task in result.tasks)
        assert injector.scoreboard()["aborts"] == 0
    else:
        assert late.fetch_record.rejected and late.fetch_path is None
        assert late.fetch_record.finish_time == 210.0
        assert injector.scoreboard()["aborts"] == 2
    assert injector.scoreboard()["failovers"] == 0


#: The golden scenarios that replay a week under a fault plan.
FAULTED_GOLDENS = sorted(name for name in golden.SCENARIOS
                         if name.startswith("cloud_replay_faulted")) \
    + ["cloud_metrics"]


@pytest.mark.parametrize("name", FAULTED_GOLDENS)
def test_faulted_goldens_leave_the_registry_empty(monkeypatch, name):
    injectors: list = []

    class Recording(_RecordingInjector):
        def __init__(self, plan, metrics=NOOP):
            super().__init__(plan, metrics)
            injectors.append(self)

    monkeypatch.setattr(repro.faults, "FaultInjector", Recording)
    golden.SCENARIOS[name]()
    assert injectors
    for injector in injectors:
        assert injector.registered and injector._registered == {}


def _expected_empty_plan_speed(kind: str, row: dict) -> float:
    """The ``average_speed`` a replay under an injector records for a
    task that the replay with no injector recorded as ``row``: bytes
    over duration for a fetch that lasted and for a pre-download it ran
    to success, where the replay with no injector records the admitted
    rate; otherwise the same value."""
    duration = row["finish_time"] - row["start_time"]
    if kind == "fetch":
        measured = duration > 0
    else:
        measured = row["success"] and not row["cache_hit"]
    return row["acquired_bytes"] / duration if measured \
        else row["average_speed"]


def _assert_an_empty_plan_replays_the_fault_free_week(**ablation) -> None:
    """An empty plan without policies replays the fault-free week of
    ``CloudConfig(**ablation)`` at the golden scale: every flow and
    every task field, ``average_speed`` as the injector records it."""
    workload = WorkloadGenerator(WorkloadConfig(
        scale=golden.GOLDEN_SCALE, seed=golden.GOLDEN_SEED)).generate()
    config = CloudConfig(scale=golden.GOLDEN_SCALE, **ablation)
    base_tasks, base_flows = cloud_payload(
        XuanfengCloud(config).run(workload))
    tasks, flows = cloud_payload(XuanfengCloud(
        config, faults=FaultInjector(FaultPlan(name="empty", seed=1)),
        policies=None).run(workload))
    assert flows == base_flows
    assert len(tasks) == len(base_tasks)
    for pair, base_pair in zip(tasks, base_tasks):
        for kind, row, base_row in zip(("pre", "fetch"), pair, base_pair):
            assert (row is None) == (base_row is None)
            if row is None:
                continue
            assert row["average_speed"] == \
                _expected_empty_plan_speed(kind, base_row)
            assert dict(row, average_speed=None) == \
                dict(base_row, average_speed=None)


def test_an_empty_plan_without_policies_replays_the_fault_free_week():
    _assert_an_empty_plan_replays_the_fault_free_week()


@pytest.mark.parametrize("ablation", [
    {"collaborative_cache": False},
    {"privileged_paths": False},
    {"predownloader_count": golden.FAULTED_FLEET},
], ids=["no-cache", "no-privileged-paths", "finite-fleet"])
def test_an_empty_plan_replays_every_ablation_week(ablation):
    # One task machine serves every config: with a finite fleet the
    # VM slot is freed in the hop that ends the session, with or
    # without an injector.
    _assert_an_empty_plan_replays_the_fault_free_week(**ablation)


def test_a_fault_free_replay_pays_no_per_wait_fault_cost(monkeypatch):
    # With no fault plan the machine runs over an empty one, which has
    # no window to expose a wait to, to register it for, or to be
    # active: none of those queries is made.
    calls: list = []

    def refused(name):
        def call(self, *args, **kwargs):
            calls.append(name)
        return call

    for name in ("exposed", "register", "active_kinds"):
        monkeypatch.setattr(FaultInjector, name, refused(name))
    workload = WorkloadGenerator(WorkloadConfig(
        scale=golden.GOLDEN_SCALE, seed=golden.GOLDEN_SEED)).generate()
    result = XuanfengCloud(CloudConfig(scale=golden.GOLDEN_SCALE)).run(
        workload)
    assert len(result.tasks) == len(workload.requests)
    assert calls == []
