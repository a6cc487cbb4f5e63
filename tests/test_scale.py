"""Tests for the sharded, multi-process execution subsystem."""

import pickle
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.experiments import REGISTRY
from repro.experiments.runner import ORDER
from repro.obs import MetricsRegistry, QuantileSketch, merge_registries
from repro.scale import (
    GROUPS,
    ScaleRunInfo,
    ShardPlan,
    ShardRunStats,
    check_group_coverage,
    merge_cdfs,
    merge_stats,
    merge_workloads,
    sharded_ap_replay,
    sharded_cloud_stats,
    sharded_generate,
    stable_hash,
)
from repro.scale.executor import run_sharded
from repro.scale.pipelines import generate_shard_worker
from repro.scale.reducers import MergeableStats
from repro.workload.generator import WorkloadConfig
from repro.workload.popularity import PopularityClass

SCALE = 0.0008
SEED = 20150222


def _tiny_plan(shards: int) -> ShardPlan:
    return ShardPlan(scale=SCALE, seed=SEED, shards=shards)


def _workload_key(workload):
    """Comparable snapshot of a workload's full content."""
    return (
        {fid: record.to_dict()
         for fid, record in workload.catalog.files.items()},
        [user.to_dict() for user in workload.users],
        [request.to_dict() for request in workload.requests],
    )


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("file:7") == stable_hash("file:7")

    def test_label_sensitivity(self):
        assert stable_hash("file:7") != stable_hash("file:8")

    def test_fits_in_64_bits(self):
        assert 0 <= stable_hash("anything") < 2 ** 64


class TestShardPlan:
    def test_every_file_owned_by_exactly_one_shard(self):
        plan = _tiny_plan(4)
        seen = []
        for spec in plan.specs():
            seen.extend(spec.file_indices())
        assert sorted(seen) == list(range(plan.file_count))

    def test_every_user_owned_by_exactly_one_shard(self):
        plan = _tiny_plan(4)
        seen = []
        for spec in plan.specs():
            seen.extend(spec.user_indices())
        assert sorted(seen) == list(range(plan.user_count))

    def test_single_shard_owns_everything(self):
        plan = _tiny_plan(1)
        spec, = plan.specs()
        assert list(spec.file_indices()) == list(range(plan.file_count))

    def test_membership_is_stable(self):
        plan = _tiny_plan(8)
        assert [plan.shard_of_file(i) for i in range(50)] == \
            [plan.shard_of_file(i) for i in range(50)]

    def test_counts_match_the_sequential_generator(self):
        plan = _tiny_plan(4)
        config = WorkloadConfig(scale=SCALE, seed=SEED)
        assert plan.file_count == config.file_count
        assert plan.user_count == config.user_count


class TestShardedGeneration:
    def test_merged_workload_is_shard_count_invariant(self):
        keys = []
        for shards in (1, 4):
            workload, _info = sharded_generate(_tiny_plan(shards))
            keys.append(_workload_key(workload))
        assert keys[0] == keys[1]

    def test_requests_come_out_in_time_order(self):
        workload, _info = sharded_generate(_tiny_plan(4))
        order = [(r.request_time, r.task_id) for r in workload.requests]
        assert order == sorted(order)

    def test_dimensions_match_the_plan(self):
        plan = _tiny_plan(4)
        workload, _info = sharded_generate(plan)
        assert len(workload.catalog.files) == plan.file_count
        assert len(workload.users) == plan.user_count

    def test_merge_rejects_duplicate_files(self):
        plan = _tiny_plan(2)
        part = generate_shard_worker(plan.spec(0))
        with pytest.raises(ValueError):
            merge_workloads(plan, [part, part])


class TestShardedCloudStats:
    def test_stats_are_shard_count_invariant(self):
        merged = []
        for shards in (1, 4):
            stats, _info = sharded_cloud_stats(_tiny_plan(shards))
            merged.append(stats)
        assert merged[0] == merged[1]

    def test_jobs_do_not_change_the_answer(self):
        sequential, _ = sharded_cloud_stats(_tiny_plan(4), jobs=1)
        parallel, info = sharded_cloud_stats(_tiny_plan(4), jobs=2)
        assert sequential == parallel
        assert info.jobs == 2
        assert len(info.shard_walls) == 4

    def test_headline_statistics_are_plausible(self):
        stats, _info = sharded_cloud_stats(_tiny_plan(4))
        assert stats.tasks > 0
        assert 0.5 < stats.cache_hit_ratio < 1.0
        assert 0.0 < stats.request_failure_ratio < 0.3
        assert stats.peak_burden > 0.0


class TestShardedApReplay:
    def test_matches_the_sequential_rig(self, workload):
        from repro.ap.benchrig import ApBenchmarkRig
        requests = workload.requests[:30]
        sequential = ApBenchmarkRig(workload.catalog, seed=7).replay(
            requests)
        parallel, info = sharded_ap_replay(
            workload.catalog, requests, jobs=1, seed=7)
        assert [r.record.to_dict() for r in sequential.results] == \
            [r.record.to_dict() for r in parallel.results]
        assert [r.ap_name for r in sequential.results] == \
            [r.ap_name for r in parallel.results]
        assert sequential.failure_ratio == parallel.failure_ratio
        assert info.shards == 3

    def test_reports_one_wall_per_ap_worker(self, workload):
        metrics = MetricsRegistry()
        _report, info = sharded_ap_replay(
            workload.catalog, workload.requests[:30], jobs=1, seed=7,
            metrics=metrics)
        assert len(info.shard_walls) == info.shards
        assert info.work_seconds == sum(info.shard_walls)
        walls = [name for name in metrics.snapshot()
                 if name.startswith("repro_scale_shard_wall_seconds")]
        assert len(walls) == info.shards


class TestExecutor:
    def test_results_arrive_in_shard_order(self):
        plan = _tiny_plan(4)
        results, info = run_sharded(
            plan, lambda spec: f"shard-{spec.shard}")
        assert results == [f"shard-{k}" for k in range(4)]
        assert info.jobs == 1 and info.shards == 4
        assert info.work_seconds >= 0.0

    def test_worker_errors_propagate(self):
        def boom(spec):
            raise RuntimeError("shard exploded")
        with pytest.raises(RuntimeError, match="shard exploded"):
            run_sharded(_tiny_plan(2), boom)

    def test_run_info_serialises(self):
        info = ScaleRunInfo(jobs=2, shards=4, wall_seconds=1.5,
                            shard_walls=(0.1, 0.2, 0.3, 0.4))
        record = info.to_dict()
        assert record["jobs"] == 2
        assert record["shard_walls"] == [0.1, 0.2, 0.3, 0.4]
        assert record["work_seconds"] == pytest.approx(1.0)


class TestReducers:
    def test_merge_cdfs_concatenates_samples(self):
        from repro.analysis.cdf import empirical_cdf
        left = empirical_cdf([1.0, 2.0])
        right = empirical_cdf([3.0])
        merged = merge_cdfs([left, right])
        assert sorted(merged.values) == [1.0, 2.0, 3.0]

    def test_merge_cdfs_rejects_nothing(self):
        with pytest.raises(ValueError):
            merge_cdfs([])

    def test_merge_stats_rejects_horizon_mismatch(self):
        with pytest.raises(ValueError):
            merge_stats([ShardRunStats(horizon=100.0),
                         ShardRunStats(horizon=200.0)])

    def test_empty_stats_merge_to_empty(self):
        merged = merge_stats([ShardRunStats(horizon=100.0),
                              ShardRunStats(horizon=100.0)])
        assert merged.tasks == 0
        assert merged.cache_hit_ratio == 0.0

    def test_quantile_sketch_equality_and_merge(self):
        a, b = QuantileSketch(), QuantileSketch()
        for value in (1.0, 5.0, 20.0):
            a.add(value)
            b.add(value)
        assert a == b
        b.add(7.0)
        assert a != b
        a.add(7.0)
        merged = QuantileSketch()
        merged.merge(a)
        assert merged == b

    def test_registry_merge_and_pickle_roundtrip(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.counter("repro_scale_tasks_total", shard=0).inc(3)
        right.counter("repro_scale_tasks_total", shard=0).inc(2)
        right.counter("repro_scale_tasks_total", shard=1).inc(1)
        merged = merge_registries([left, right])
        snapshot = merged.snapshot()
        assert snapshot['repro_scale_tasks_total{shard="0"}'] == 5
        assert snapshot['repro_scale_tasks_total{shard="1"}'] == 1
        revived = pickle.loads(pickle.dumps(merged))
        assert revived.snapshot() == snapshot


@dataclass(eq=False)
class _Toy(MergeableStats):
    """One field of every kind the base knows how to merge."""

    IDENTITY = ("name",)

    name: str
    count: int = 0
    total: float = 0.0
    by_class: dict = field(default_factory=dict)
    sketch: QuantileSketch = field(default_factory=QuantileSketch)
    bins: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def record(self, value: float, klass: PopularityClass) -> None:
        self.count += 1
        self.total += value
        self.by_class[klass] = self.by_class.get(klass, 0) + 1
        self.sketch.add(value)
        self.bins[int(value) % 3] += value


class TestMergeableStats:
    VALUES = [0.1 * step + 1.0 / (step + 3) for step in range(40)]

    def toy(self, values):
        toy = _Toy(name="toy")
        for value in values:
            toy.record(value, list(PopularityClass)[int(value) % 3])
        return toy

    def test_mismatched_identity_refuses_to_merge(self):
        with pytest.raises(ValueError, match="different name"):
            _Toy(name="a").merge(_Toy(name="b"))
        with pytest.raises(ValueError, match="different bin_width"):
            merge_stats([ShardRunStats(horizon=600.0),
                         ShardRunStats(horizon=600.0, bin_width=60.0)])

    @pytest.mark.parametrize("seed", range(5))
    def test_any_partition_merges_to_the_one_shard_stats(self, seed):
        rng = np.random.default_rng(seed)
        parts = rng.integers(1, 6)
        owner = rng.integers(parts, size=len(self.VALUES))
        merged = _Toy.fold([
            self.toy([value for value, part
                      in zip(self.VALUES, owner) if part == index])
            for index in range(parts)])
        whole = self.toy(self.VALUES)
        assert merged == whole
        assert merged.count == whole.count
        assert merged.by_class == whole.by_class

    def test_equality_tolerates_round_off_but_not_counts(self):
        left, right = self.toy(self.VALUES), self.toy(self.VALUES)
        right.total += 1e-12
        assert left == right
        right.count += 1
        assert left != right

    def test_digest_is_exact(self):
        left, right = self.toy(self.VALUES), self.toy(self.VALUES)
        assert left.digest() == right.digest()
        right.total += 1e-12
        assert left.digest() != right.digest()


class TestGroupCoverage:
    """Drift guards: the experiment registry, the document ORDER and the
    parallel driver GROUPS must all agree, so a newly registered
    experiment cannot silently drop out of either runner."""

    def test_order_covers_registry_exactly_once(self):
        assert sorted(ORDER) == sorted(REGISTRY)
        assert len(ORDER) == len(set(ORDER))

    def test_groups_cover_order_exactly_once(self):
        grouped = [experiment_id
                   for ids, _warm in GROUPS.values()
                   for experiment_id in ids]
        assert sorted(grouped) == sorted(ORDER)

    def test_check_group_coverage_passes(self):
        check_group_coverage()


class TestParallelExperiments:
    def test_document_is_jobs_invariant(self):
        from repro.scale.runner import run_parallel
        outputs = []
        for jobs in (1, 2):
            reports, claims, timings, failures = run_parallel(
                SCALE, SEED, jobs=jobs)
            outputs.append((
                [report.render() for report in reports],
                [(claim.claim, claim.holds) for claim in claims],
            ))
            assert set(timings) == set(ORDER)
            assert failures == []
        assert outputs[0] == outputs[1]
