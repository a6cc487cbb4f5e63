"""Integration tests for the full cloud system run."""

import pytest

from repro.paper import IMPEDED_FETCH_THRESHOLD
from repro.sim.clock import mbps
from repro.workload.popularity import PopularityClass


class TestRunShape:
    def test_one_task_result_per_request(self, workload, cloud_result):
        assert len(cloud_result.tasks) == len(workload.requests)

    def test_every_successful_predownload_gets_a_fetch(self,
                                                       cloud_result):
        for task in cloud_result.tasks:
            if task.pre_record.success:
                assert task.fetch_record is not None
            else:
                assert task.fetch_record is None

    def test_cache_hits_have_zero_predownload_delay(self, cloud_result):
        instant = [task for task in cloud_result.tasks
                   if task.pre_record.cache_hit
                   and task.pre_record.delay == 0.0]
        assert len(instant) > 0.5 * len(cloud_result.tasks)

    def test_fetch_follows_predownload_in_time(self, cloud_result):
        for task in cloud_result.tasks[:500]:
            if task.fetch_record is not None:
                assert task.fetch_record.start_time >= \
                    task.pre_record.finish_time

    def test_e2e_delay_is_sum_of_stages(self, cloud_result):
        for task in cloud_result.tasks[:500]:
            delay = task.end_to_end_delay
            if delay is not None:
                assert delay == pytest.approx(
                    task.pre_record.delay + task.fetch_record.delay)

    def test_speeds_within_physical_caps(self, cloud_result):
        for record in cloud_result.pre_records[:1000]:
            assert record.average_speed <= mbps(20.0) + 1e-6
        for record in cloud_result.fetch_records[:1000]:
            assert record.average_speed <= mbps(50.0) + 1e-6


class TestHeadlineStatistics:
    """Calibration bands: the paper's section 4 numbers, with tolerance
    for the reduced scale and the documented cache-semantics compromise.
    """

    def test_cache_hit_ratio_near_89_percent(self, cloud_result):
        assert 0.84 <= cloud_result.cache_hit_ratio <= 0.93

    def test_request_failure_ratio_band(self, cloud_result):
        assert 0.01 <= cloud_result.request_failure_ratio <= 0.09

    def test_unpopular_files_fail_most(self, cloud_result):
        by_class = cloud_result.failure_ratio_by_class()
        assert by_class[PopularityClass.UNPOPULAR] > \
            5 * by_class.get(PopularityClass.HIGHLY_POPULAR, 0.0) or \
            by_class[PopularityClass.UNPOPULAR] > 0.04

    def test_attempt_speed_distribution_shape(self, cloud_result):
        cdf = cloud_result.attempt_speed_cdf()
        # Median around the paper's 25 KBps, mean around 69 KBps.
        assert 8e3 <= cdf.median <= 45e3
        assert 30e3 <= cdf.mean <= 100e3

    def test_fetch_is_an_order_of_magnitude_faster(self, cloud_result):
        pre = cloud_result.attempt_speed_cdf()
        fetch = cloud_result.fetch_speed_cdf()
        assert fetch.median > 5 * pre.median
        assert fetch.mean > 4 * pre.mean

    def test_impeded_share_band(self, cloud_result):
        assert 0.20 <= cloud_result.impeded_fetch_share <= 0.45

    def test_impeded_breakdown_sums_to_impeded_share(self, cloud_result):
        breakdown = cloud_result.impeded_breakdown()
        assert sum(breakdown.values()) == pytest.approx(
            cloud_result.impeded_fetch_share, abs=1e-9)

    def test_traffic_overheads(self, cloud_result):
        assert 1.6 <= cloud_result.fleet.traffic_overhead <= 2.3
        assert 1.06 <= cloud_result.user_traffic_overhead() <= 1.11

    def test_e2e_tracks_fetch_distribution(self, cloud_result):
        # 89% cache hits make end-to-end look like fetch (section 4.3).
        fetch = cloud_result.fetch_delay_cdf()
        e2e = cloud_result.e2e_delay_cdf()
        pre = cloud_result.attempt_delay_cdf()
        assert abs(e2e.median - fetch.median) < \
            abs(e2e.median - pre.median)


class TestBandwidthAccounting:
    def test_flows_cover_all_fetches(self, cloud_result):
        fetches = [task for task in cloud_result.tasks
                   if task.fetch_record is not None]
        assert len(cloud_result.flows) == len(fetches)

    def test_bandwidth_series_nonnegative(self, cloud_result):
        series = cloud_result.bandwidth_series()
        assert (series >= 0).all()
        assert series.max() > 0

    def test_highly_popular_series_is_a_subset(self, cloud_result):
        total = cloud_result.bandwidth_series()
        highly = cloud_result.bandwidth_series(only_highly_popular=True)
        assert (highly <= total + 1e-6).all()
        share = highly.sum() / total.sum()
        assert 0.25 <= share <= 0.55     # paper: ~40%

    def test_rejected_demand_can_be_excluded(self, cloud_result):
        with_rejected = cloud_result.bandwidth_series()
        without = cloud_result.bandwidth_series(include_rejected=False)
        assert without.sum() <= with_rejected.sum() + 1e-6

    def test_committed_bandwidth_respects_capacity(self, cloud_result):
        for pool in cloud_result.uploads.pools.values():
            assert pool.peak_committed <= pool.capacity + 1e-6

    def test_failure_by_demand_is_fig10_shaped(self, cloud_result):
        scatter = dict(cloud_result.failure_ratio_by_demand())
        low = [ratio for demand, ratio in scatter.items() if demand < 7]
        high = [ratio for demand, ratio in scatter.items()
                if demand > 84]
        if low and high:
            assert max(high) <= max(low)


class TestImpededThreshold:
    def test_threshold_is_1mbps(self):
        assert IMPEDED_FETCH_THRESHOLD == pytest.approx(125e3)


class TestFastPathEquivalence:
    """The table-driven task machine vs the generator coroutines.

    The shared TEST_SCALE week, replayed on the task machine, must
    reproduce the tasks and flows that the generator-coroutine tasks it
    replaced produced.  The digest below was computed from the machine
    and from a frozen copy of the coroutines, which agreed on it, before
    that copy was deleted.
    """

    GENERATOR_PATH_DIGEST = (
        "0bcc90a8145f74cf9da660a0e7f6882328e242cf60205b86cc9357e5a74c2787")

    def test_state_machine_matches_generator_path(self, cloud_result):
        from repro.perf.golden import cloud_payload, digest

        assert digest(cloud_payload(cloud_result)) == \
            self.GENERATOR_PATH_DIGEST


class TestCacheOracle:
    """The LRU's hit and miss counts of a fault-free week whose pool
    evicts nothing, derived from the request columns, the preseeded
    files and the run table by the documented lookup rule: ``_begin``
    looks a task's file up once, and a coalesced waiter looks it up
    again when its owner's pre-download succeeds."""

    def test_hits_and_misses_follow_from_the_columns(self, monkeypatch):
        from collections import defaultdict

        import numpy as np

        from repro.cloud import CloudConfig, XuanfengCloud
        from repro.cloud.storagepool import CloudStoragePool
        from repro.workload import WorkloadConfig, WorkloadGenerator

        preseeded: set[str] = set()
        preseed = CloudStoragePool.preseed

        def recording(pool, catalog, *args):
            seeded = preseed(pool, catalog, *args)
            preseeded.update(file_id for file_id in catalog.file_ids()
                             if file_id in pool)
            return seeded

        monkeypatch.setattr(CloudStoragePool, "preseed", recording)
        week = WorkloadGenerator(WorkloadConfig(scale=0.002)).generate()
        cloud = XuanfengCloud(CloudConfig(scale=0.002))
        result = cloud.run(week)
        stats = cloud.pool._cache.stats
        assert stats.evictions == 0 and preseeded

        # With no eviction a file is in the pool from its preseeding or
        # from the end of its first successful own pre-download on.
        columns = week.request_columns()
        table = result.table
        file_ids = week.catalog.file_ids()
        starts = columns.times.tolist()
        finishes = table.pre_finish.tolist()
        tasks_of = defaultdict(list)
        for idx in np.argsort(columns.times, kind="stable").tolist():
            tasks_of[file_ids[columns.file_rows[idx]]].append(idx)
        hits = misses = 0
        for file_id, tasks in tasks_of.items():
            cached_from = -np.inf if file_id in preseeded else np.inf
            for idx in tasks:
                if table.coalesced[idx]:
                    misses += 1
                    hits += table.success[idx]   # the owner's outcome
                elif cached_from <= starts[idx]:
                    hits += 1
                else:   # the task pre-downloads the file itself
                    misses += 1
                    if table.success[idx]:
                        cached_from = min(cached_from, finishes[idx])
        assert (stats.hits, stats.misses) == (hits, misses)
