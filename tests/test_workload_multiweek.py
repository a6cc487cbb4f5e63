"""Tests for multi-week evolution and persistent-cloud warm-up."""

from collections import Counter

import pytest

from repro.cloud import CloudConfig, XuanfengCloud
from repro.workload import WorkloadConfig
from repro.workload.multiweek import (
    EvolutionConfig,
    MultiWeekGenerator,
    WeekStats,
    run_weeks,
)
from repro.workload.popularity import PopularityClass

SMALL = WorkloadConfig(scale=0.002, seed=17)


class TestEvolutionConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EvolutionConfig(churn=1.5)
        with pytest.raises(ValueError):
            EvolutionConfig(demand_decay=0.0)
        with pytest.raises(ValueError):
            EvolutionConfig(user_growth=-0.1)


class TestGenerator:
    @pytest.fixture(scope="class")
    def three_weeks(self):
        generator = MultiWeekGenerator(SMALL)
        return list(generator.weeks(3))

    def test_week_one_matches_single_week_generator(self, three_weeks):
        assert len(three_weeks[0].catalog) == SMALL.file_count
        assert len(three_weeks[0].requests) > 0

    def test_catalog_grows_by_churn(self, three_weeks):
        sizes = [len(week.catalog) for week in three_weeks]
        assert sizes[1] > sizes[0]
        assert sizes[2] > sizes[1]

    def test_user_population_grows(self, three_weeks):
        counts = [len(week.users) for week in three_weeks]
        assert counts[0] < counts[1] < counts[2]

    def test_task_ids_are_distinct_across_weeks(self, three_weeks):
        ids = set()
        for week in three_weeks:
            for request in week.requests:
                assert request.task_id not in ids
                ids.add(request.task_id)

    def test_each_week_reads_its_own_snapshot(self, three_weeks):
        # Rebound to the week's catalog and user copies, so a week's
        # requests still match its demands after later weeks evolve
        # the live catalog.
        for number, week in enumerate(three_weeks, start=1):
            columns = week.request_columns()
            assert columns.users is week.users
            assert all(mine is theirs for mine, theirs
                       in zip(columns.files, week.catalog, strict=True))
            demand = Counter(request.file_id for request in week.requests)
            assert {record.file_id: record.weekly_demand
                    for record in week.catalog
                    if record.weekly_demand} == dict(demand)
            prefix = f"w{number}t" if number > 1 else "t"
            assert week.requests[-1].task_id == \
                f"{prefix}{len(week.requests) - 1:08d}"

    def test_old_content_cools(self, three_weeks):
        week1_files = {record.file_id
                       for record in three_weeks[0].catalog}
        week3 = three_weeks[2]
        old_demand = sum(record.weekly_demand
                         for record in week3.catalog
                         if record.file_id in week1_files)
        total_demand = week3.catalog.total_demand()
        # By week 3 a substantial share of demand is novelty.
        assert old_demand < 0.8 * total_demand

    def test_volume_stays_roughly_stationary(self):
        generator = MultiWeekGenerator(SMALL)
        weeks = list(generator.weeks(4))
        first = len(weeks[0].requests)
        last = len(weeks[-1].requests)
        assert 0.5 * first < last < 1.6 * first

    def test_weeks_count_validation(self):
        generator = MultiWeekGenerator(SMALL)
        with pytest.raises(ValueError):
            list(generator.weeks(0))


class TestPersistentCloudWarmup:
    def test_cache_warms_and_failures_fall(self):
        generator = MultiWeekGenerator(SMALL)
        # Cold start: no pre-existing cache, so the warm-up is visible.
        config = CloudConfig(
            scale=SMALL.scale,
            precached_probability={klass: 0.0
                                   for klass in PopularityClass})
        cloud = XuanfengCloud(config)
        trajectory = run_weeks(cloud, generator, 3)
        assert all(isinstance(entry, WeekStats)
                   for entry in trajectory)
        first, *rest = trajectory
        # Hit ratio climbs markedly after the first week...
        assert trajectory[1].cache_hit_ratio > \
            trajectory[0].cache_hit_ratio + 0.03
        assert all(entry.cache_hit_ratio > first.cache_hit_ratio + 0.02
                   for entry in rest)
        # ...failures drop...
        assert trajectory[1].request_failure_ratio < \
            trajectory[0].request_failure_ratio
        assert all(entry.request_failure_ratio <=
                   first.request_failure_ratio for entry in rest)
        # ...the pool keeps accumulating content...
        pools = [entry.pool_files for entry in trajectory]
        assert pools[0] < pools[1] < pools[2]
        # ...and the steady state approaches the paper's 89% hit ratio.
        assert rest[-1].cache_hit_ratio > 0.85
