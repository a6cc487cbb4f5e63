"""The cloud run table and its reductions, against per-object references.

A replay writes every task's outcome into the columns of one
:class:`~repro.cloud.system.RunTable`, and :class:`CloudRunResult`
reduces those columns with numpy.  The reference functions below are
the per-object loops the columnar reductions replaced, run over the
``TaskResult``/``FetchFlow`` rows that ``result.tasks`` and
``result.flows`` build on access.  Every reduction must equal its
reference exactly: the same CDF values, the same floats bit for bit
(Python ``sum`` where the loop summed) and the same dict key order.
Replays cover the golden week fault-free, under the chaos plan with and
without the default policies, and under each cloud ablation.
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter

import numpy as np
import pytest

from repro.analysis.cdf import empirical_cdf
from repro.analysis.timeseries import bin_rate_series
from repro.cloud import CloudConfig, XuanfengCloud
from repro.cloud.database import ContentDatabase
from repro.cloud.system import FETCH_DONE
from repro.faults import DEFAULT_POLICIES, FaultInjector
from repro.faults.plan import default_chaos_plan
from repro.obs import MetricsRegistry
from repro.paper import IMPEDED_FETCH_THRESHOLD
from repro.perf.golden import FAULTED_FLEET, GOLDEN_SCALE, GOLDEN_SEED
from repro.sim.clock import to_gbps
from repro.sim.resources import ReservationPool
from repro.workload.generator import Workload, WorkloadConfig, \
    WorkloadGenerator
from repro.workload.popularity import PopularityClass

#: The fig10 driver's popularity buckets.
BUCKETS = [(0, 7), (7, 28), (28, 84), (84, 10 ** 9)]

SCENARIOS = {
    "golden": ({}, None),
    "chaos-policies": ({}, DEFAULT_POLICIES),
    "chaos-bare": ({}, "bare"),
    "isp-blind": ({"privileged_paths": False}, None),
    "no-cache": ({"collaborative_cache": False}, None),
    "fleet": ({"predownloader_count": FAULTED_FLEET}, None),
}


@pytest.fixture(scope="module")
def week():
    config = WorkloadConfig(scale=GOLDEN_SCALE, seed=GOLDEN_SEED)
    return WorkloadGenerator(config).generate()


@pytest.fixture(scope="module", params=sorted(SCENARIOS))
def result(request, week):
    overrides, policies = SCENARIOS[request.param]
    config = CloudConfig(scale=GOLDEN_SCALE, **overrides)
    if policies is None:
        return XuanfengCloud(config).run(week)
    injector = FaultInjector(default_chaos_plan())
    return XuanfengCloud(
        config, faults=injector,
        policies=None if policies == "bare" else policies).run(week)


# -- the per-object references ------------------------------------------------


def ref_fetch_records(tasks):
    return [task.fetch_record for task in tasks
            if task.fetch_record is not None]


def ref_cdfs(tasks):
    pre = [task.pre_record for task in tasks]
    fetches = ref_fetch_records(tasks)
    return {
        "attempt_speed_cdf": [record.average_speed for record in pre
                              if not record.cache_hit],
        "attempt_delay_cdf": [record.delay for record in pre
                              if not record.cache_hit],
        "fetch_speed_cdf": [record.average_speed for record in fetches],
        "fetch_delay_cdf": [record.delay for record in fetches
                            if not record.rejected],
        "e2e_speed_cdf": [task.end_to_end_speed for task in tasks
                          if task.end_to_end_speed is not None],
        "e2e_delay_cdf": [task.end_to_end_delay for task in tasks
                          if task.end_to_end_delay is not None],
    }


def ref_request_failure_ratio(tasks):
    failures = sum(1 for task in tasks if not task.pre_record.success)
    return failures / len(tasks) if tasks else 0.0


def ref_failure_ratio_by(tasks, key):
    totals: dict = {}
    failures: dict = {}
    for task in tasks:
        value = key(task.file)
        totals[value] = totals.get(value, 0) + 1
        if not task.pre_record.success:
            failures[value] = failures.get(value, 0) + 1
    return {value: failures.get(value, 0) / totals[value]
            for value in totals}


def ref_impeded_fetch_share(tasks):
    records = ref_fetch_records(tasks)
    if not records:
        return 0.0
    impeded = sum(1 for record in records
                  if record.average_speed < IMPEDED_FETCH_THRESHOLD)
    return impeded / len(records)


def ref_impeded_breakdown(tasks):
    records = [(task.fetch_record, task.fetch_path) for task in tasks
               if task.fetch_record is not None]
    if not records:
        return {}
    counts = {"isp_barrier": 0, "low_access_bandwidth": 0,
              "rejected": 0, "unknown": 0}
    for record, path in records:
        if record.average_speed >= IMPEDED_FETCH_THRESHOLD:
            continue
        approx_bandwidth = record.access_bandwidth \
            if record.access_bandwidth is not None else record.peak_speed
        if record.rejected:
            counts["rejected"] += 1
        elif path is not None and not path.privileged:
            counts["isp_barrier"] += 1
        elif approx_bandwidth < IMPEDED_FETCH_THRESHOLD:
            counts["low_access_bandwidth"] += 1
        else:
            counts["unknown"] += 1
    return {cause: count / len(records) for cause, count in counts.items()}


def ref_user_traffic_overhead(tasks):
    fetches = [record for record in ref_fetch_records(tasks)
               if not record.rejected]
    traffic = sum(record.traffic_bytes for record in fetches)
    payload = sum(record.acquired_bytes for record in fetches)
    return traffic / payload if payload > 0 else 0.0


def ref_bandwidth_series(flows, horizon, include_rejected=True,
                         only_highly_popular=False):
    def column(name, dtype=float):
        return np.fromiter(map(attrgetter(name), flows), dtype, len(flows))

    table = np.column_stack([column("start"), column("end"),
                             column("rate")])
    keep = np.ones(len(flows), dtype=bool)
    if not include_rejected:
        keep &= ~column("rejected", bool)
    if only_highly_popular:
        keep &= column("highly_popular", bool)
    return bin_rate_series(table[keep], 300.0, horizon)


def ref_bucket_counts(tasks):
    totals: dict = {}
    for task in tasks:
        demand = task.file.weekly_demand
        for low, high in BUCKETS:
            if low <= demand < high:
                total, failed = totals.get((low, high), (0, 0))
                totals[(low, high)] = (
                    total + 1, failed + (0 if task.pre_record.success
                                         else 1))
    return [totals.get(bucket, (0, 0)) for bucket in BUCKETS]


def same_float(a: float, b: float) -> bool:
    return a == b and type(a) is type(b)


# -- reductions ----------------------------------------------------------------


class TestColumnarReductions:
    def test_cdfs(self, result):
        for name, sample in ref_cdfs(list(result.tasks)).items():
            live = getattr(result, name)().values
            assert np.array_equal(live, empirical_cdf(sample).values), name

    def test_request_failure_ratio(self, result):
        assert same_float(result.request_failure_ratio,
                          ref_request_failure_ratio(list(result.tasks)))

    def test_failure_ratio_by_class_keeps_first_appearance_order(
            self, result):
        live = result.failure_ratio_by_class()
        reference = ref_failure_ratio_by(
            list(result.tasks), attrgetter("popularity_class"))
        assert list(live.items()) == list(reference.items())

    def test_failure_ratio_by_demand(self, result):
        reference = sorted(ref_failure_ratio_by(
            list(result.tasks), attrgetter("weekly_demand")).items())
        live = result.failure_ratio_by_demand()
        assert live == reference
        assert all(type(demand) is int and type(ratio) is float
                   for demand, ratio in live)

    def test_demand_bucket_counts(self, result):
        assert result.demand_bucket_counts(BUCKETS) == \
            ref_bucket_counts(list(result.tasks))

    def test_impeded_share_and_breakdown(self, result):
        tasks = list(result.tasks)
        assert same_float(result.impeded_fetch_share,
                          ref_impeded_fetch_share(tasks))
        live = result.impeded_breakdown()
        assert list(live.items()) == \
            list(ref_impeded_breakdown(tasks).items())

    def test_user_traffic_overhead(self, result):
        assert same_float(result.user_traffic_overhead(),
                          ref_user_traffic_overhead(list(result.tasks)))

    @pytest.mark.parametrize("include_rejected,only_highly_popular",
                             [(True, False), (False, False), (True, True)])
    def test_bandwidth_series(self, result, include_rejected,
                              only_highly_popular):
        live = result.bandwidth_series(
            include_rejected=include_rejected,
            only_highly_popular=only_highly_popular)
        reference = ref_bandwidth_series(
            list(result.flows), result.horizon, include_rejected,
            only_highly_popular)
        assert np.array_equal(live, reference)


# -- row views -----------------------------------------------------------------


class TestRowViews:
    def test_tasks_view(self, result, week):
        tasks = result.tasks
        rows = list(tasks)
        assert len(tasks) == len(rows) == len(week.requests)
        assert bool(tasks)
        assert tasks[0] == rows[0] and tasks[-1] == rows[-1]
        assert tasks[len(rows) // 2] == rows[len(rows) // 2]
        assert list(tasks[10:20]) == rows[10:20]
        assert list(tasks[-5:]) == rows[-5:]
        assert list(tasks[::97]) == rows[::97]
        assert len(tasks[3:7]) == 4
        assert list(tasks) == rows   # a second pass builds equal rows
        with pytest.raises(IndexError):
            tasks[len(rows)]

    def test_flows_view(self, result):
        flows = result.flows
        rows = list(flows)
        assert len(flows) == len(rows) > 0
        assert flows[0] == rows[0] and flows[-1] == rows[-1]
        assert list(flows[5:9]) == rows[5:9]
        assert list(flows) == rows
        assert all(type(flow.highly_popular) is bool
                   and type(flow.rejected) is bool for flow in rows[:50])

    def test_record_lists(self, result):
        rows = list(result.tasks)
        assert result.pre_records == [task.pre_record for task in rows]
        assert result.fetch_records == ref_fetch_records(rows)

    def test_views_are_not_cached(self, result):
        assert result.tasks is not result.tasks
        assert result.tasks[0] is not result.tasks[0]


def test_empty_week_reduces_to_zeros(week):
    empty = Workload(week.config, week.catalog, week.users, [])
    result = XuanfengCloud(CloudConfig(scale=GOLDEN_SCALE)).run(empty)
    assert len(result.tasks) == 0 and not result.tasks
    assert len(result.flows) == 0
    assert result.request_failure_ratio == 0.0
    assert result.impeded_fetch_share == 0.0
    assert result.impeded_breakdown() == {}
    assert result.user_traffic_overhead() == 0.0
    assert result.failure_ratio_by_class() == {}
    assert result.failure_ratio_by_demand() == []
    assert not result.bandwidth_series().any()
    with pytest.raises(ValueError):
        result.fetch_speed_cdf()


# -- what is derived after the run ---------------------------------------------


class TestDerivedAfterRun:
    """Flow flags and request counts are not written per event; each is
    derived from the run table once the replay ends and must equal what
    per-event bookkeeping gives."""

    def test_flow_flags(self, week, result):
        table = result.table
        columns = week.request_columns()
        tasks = table.flow_column("task").tolist()
        rejected = table.flow_column("rejected").tolist()
        crossed = table.flow_column("crossed").tolist()
        popular = table.flow_column("popular").tolist()
        assert len(tasks) == len(result.flows) > 0
        flows_of = Counter(tasks)
        checked = 0
        for task, was_rejected, was_crossed, was_popular in zip(
                tasks, rejected, crossed, popular):
            record = columns.files.row(columns.file_rows[task])
            assert was_popular == (record.popularity_class
                                   is PopularityClass.HIGHLY_POPULAR)
            if was_rejected:
                assert not was_crossed
            elif flows_of[task] == 1 and table.fetch_state[task] == \
                    FETCH_DONE:
                # The task's one flow took its recorded path.
                assert was_crossed == (not table.fetch_path[task].privileged)
                checked += 1
        assert checked > 0

    def test_request_counts(self, week, result):
        reference = ContentDatabase()
        columns = week.request_columns()
        for position in np.argsort(columns.times, kind="stable").tolist():
            record = columns.files.row(columns.file_rows[position])
            reference.record_request(record.file_id, record.size,
                                     columns.times[position].item())
        for record in columns.files:
            expected = reference.get(record.file_id)
            live = result.database.get(record.file_id)
            if expected is None:
                assert live is None or live.request_count == 0
                continue
            assert (live.size, live.request_count,
                    live.last_request_time) == (
                expected.size, expected.request_count,
                expected.last_request_time)


@pytest.mark.parametrize("faulted", [False, True],
                         ids=["fault-free", "chaos-policies"])
def test_upload_gauges_follow_the_pools(week, monkeypatch, faulted):
    """Each ``repro_cloud_upload_gbps`` level is rebuilt from the pool's
    flow rows; a brute-force walk records the pool's own level after
    every commit and release, and the last one in each bin must match."""
    steps: dict = {}
    registry = MetricsRegistry()
    clock = registry.now    # the replay's sim clock
    commit, release = ReservationPool.commit, ReservationPool.release

    def logged_commit(pool, rate):
        admitted = commit(pool, rate)
        if admitted:
            steps.setdefault(pool.name, []).append((clock(), pool.committed))
        return admitted

    def logged_release(pool, rate):
        release(pool, rate)
        steps.setdefault(pool.name, []).append((clock(), pool.committed))

    monkeypatch.setattr(ReservationPool, "commit", logged_commit)
    monkeypatch.setattr(ReservationPool, "release", logged_release)
    injector = FaultInjector(default_chaos_plan()) if faulted else None
    cloud = XuanfengCloud(
        CloudConfig(scale=GOLDEN_SCALE), metrics=registry, faults=injector,
        policies=DEFAULT_POLICIES if faulted else None)
    cloud.run(week)
    width = registry.bin_width
    for isp, pool in cloud.uploads.pools.items():
        by_bin = {}
        for now, level in steps[pool.name]:
            by_bin[int(now // width)] = to_gbps(level)
        live = registry.series("repro_cloud_upload_gbps", isp=isp.value)
        assert [start for start, _level in live] == \
            [index * width for index in sorted(by_bin)]
        assert [level for _start, level in live] == pytest.approx(
            [by_bin[index] for index in sorted(by_bin)], rel=1e-9)
        assert live[-1][1] == 0.0 and pool.committed == 0.0
        gauge = [instrument for instrument in registry.instruments()
                 if instrument.name == "repro_cloud_upload_gbps"
                 and dict(instrument.labels)["isp"] == isp.value]
        assert gauge[0].peak == to_gbps(pool.peak_committed) > 0.0


def test_tasks_of_a_mapped_week_are_built_from_the_columns(week, tmp_path):
    """``result.tasks`` of the week loaded from ``.col`` files equals the
    generated week's, and decodes no request row from the mapping."""
    from repro.workload.traceio import load_workload, save_workload
    save_workload(week, tmp_path, trace_format="columnar")
    mapped = load_workload(tmp_path)
    trace = mapped.requests.trace
    decoded = []
    for name in ("row", "take", "_build"):
        def counting(*args, __read=getattr(trace, name)):
            decoded.append(args)
            return __read(*args)
        setattr(trace, name, counting)
    cloud = CloudConfig(scale=GOLDEN_SCALE)
    generated = XuanfengCloud(cloud).run(week).tasks
    assert list(XuanfengCloud(cloud).run(mapped).tasks) == list(generated)
    assert decoded == []
