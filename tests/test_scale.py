"""Tests for the multi-process execution subsystem."""

import math

import numpy as np
import pytest

from repro.backends.replay import ComboStats
from repro.core.decision import Action
from repro.experiments import REGISTRY
from repro.experiments.runner import ORDER
from repro.obs import MetricsRegistry, QuantileSketch
from repro.scale import (
    GROUPS,
    ScaleRunInfo,
    ShardPlan,
    check_group_coverage,
    sharded_ap_replay,
    stable_hash,
)
from repro.scale.executor import run_sharded
from repro.scale.reducers import canonical_digest, hex_floats

SCALE = 0.0008
SEED = 20150222


def _tiny_plan(shards: int) -> ShardPlan:
    return ShardPlan(scale=SCALE, seed=SEED, shards=shards)


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("file:7") == stable_hash("file:7")

    def test_label_sensitivity(self):
        assert stable_hash("file:7") != stable_hash("file:8")

    def test_fits_in_64_bits(self):
        assert 0 <= stable_hash("anything") < 2 ** 64


class TestShardPlan:
    def test_every_file_owned_by_exactly_one_shard(self, workload):
        plan = _tiny_plan(4)
        file_ids = sorted(record.file_id for record in workload.catalog)
        seen = []
        for spec in plan.specs():
            seen.extend(file_id for file_id in file_ids
                        if plan.shard_of_file(file_id) == spec.shard)
        assert sorted(seen) == file_ids

    def test_single_shard_owns_everything(self, workload):
        plan = _tiny_plan(1)
        assert {plan.shard_of_file(record.file_id)
                for record in workload.catalog} == {0}

    def test_membership_is_stable(self):
        plan = _tiny_plan(8)
        file_ids = [f"f{index:04d}" for index in range(50)]
        assert [plan.shard_of_file(i) for i in file_ids] == \
            [plan.shard_of_file(i) for i in file_ids]


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
    def test_empty_stats_merge_to_empty(self):
        merged = ComboStats.fold([ComboStats(combo="c"),
                                  ComboStats(combo="c")])
        assert merged.requests == 0
        assert merged.to_dict() == ComboStats(combo="c").to_dict()

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


#: Actions the toy stats cycle through (one per backend kind).
ACTIONS = (Action.CLOUD, Action.SMART_AP, Action.USER_DEVICE, Action.D2D)


class TestMergeableStats:
    """:class:`ComboStats`, the backend matrix's shard output, folds
    any partition of its requests back into the one-shard stats."""

    VALUES = [0.1 * step + 1.0 / (step + 3) for step in range(40)]

    def toy(self, values):
        toy = ComboStats(combo="toy")
        for value in values:
            toy.record(ACTIONS[int(value * 7) % len(ACTIONS)],
                       success=int(value * 10) % 5 != 0, delay=value,
                       cloud_bytes=value * 1e6)
        return toy

    def test_mismatched_identity_refuses_to_merge(self):
        with pytest.raises(ValueError, match="different combo"):
            ComboStats(combo="a").merge(ComboStats(combo="b"))

    @pytest.mark.parametrize("seed", range(5))
    def test_any_partition_merges_to_the_one_shard_stats(self, seed):
        rng = np.random.default_rng(seed)
        parts = rng.integers(1, 6)
        owner = rng.integers(parts, size=len(self.VALUES))
        merged = ComboStats.fold([
            self.toy([value for value, part
                      in zip(self.VALUES, owner) if part == index])
            for index in range(parts)])
        whole = self.toy(self.VALUES)
        assert merged == whole
        assert merged.requests == whole.requests
        assert merged.actions == whole.actions

    def test_equality_tolerates_round_off_but_not_counts(self):
        left, right = self.toy(self.VALUES), self.toy(self.VALUES)
        right.delays.total += 1e-12
        assert left == right
        right.requests += 1
        assert left != right

    def test_digest_is_exact(self):
        row = self.toy(self.VALUES).to_dict()
        again = self.toy(self.VALUES).to_dict()
        assert canonical_digest(hex_floats(row)) == \
            canonical_digest(hex_floats(again))
        again["failure_ratio"] = math.nextafter(row["failure_ratio"], 1.0)
        assert canonical_digest(hex_floats(row)) != \
            canonical_digest(hex_floats(again))


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
