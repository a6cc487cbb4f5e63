"""Tests for scaling out: the campaigns that fan out over worker
processes through ``recovery.durable_map`` -- the backend matrix's
content shards (``backends.replay``), the parallel AP replay
(``ap.benchrig``) and the experiments document's driver groups
(``experiments.runner``) -- and the exact digests of their merged
results (``perf.golden``)."""

import math

import numpy as np
import pytest

from repro.ap.benchrig import sharded_ap_replay
from repro.backends.replay import ComboStats, shard_of_file, stable_hash
from repro.core.decision import Action
from repro.experiments import REGISTRY
from repro.experiments.runner import (
    GROUPS,
    ORDER,
    check_group_coverage,
    run_parallel,
)
from repro.obs import MetricsRegistry, QuantileSketch
from repro.perf.golden import canonical_digest, hex_floats
from repro.recovery import durable_map

SCALE = 0.0008
SEED = 20150222


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("file:7") == stable_hash("file:7")

    def test_label_sensitivity(self):
        assert stable_hash("file:7") != stable_hash("file:8")

    def test_fits_in_64_bits(self):
        assert 0 <= stable_hash("anything") < 2 ** 64


class TestShardPlan:
    """The backend matrix's content partition, ``shard_of_file``."""

    def test_every_file_owned_by_exactly_one_shard(self, workload):
        file_ids = sorted(record.file_id for record in workload.catalog)
        seen = []
        for shard in range(4):
            seen.extend(file_id for file_id in file_ids
                        if shard_of_file(file_id, 4) == shard)
        assert sorted(seen) == file_ids

    def test_single_shard_owns_everything(self, workload):
        assert {shard_of_file(record.file_id, 1)
                for record in workload.catalog} == {0}

    def test_membership_is_stable(self):
        file_ids = [f"f{index:04d}" for index in range(50)]
        assert [shard_of_file(i, 8) for i in file_ids] == \
            [shard_of_file(i, 8) for i in file_ids]


class TestShardedApReplay:
    def test_matches_the_sequential_rig(self, workload):
        from repro.ap.benchrig import ApBenchmarkRig
        requests = workload.requests[:30]
        sequential = ApBenchmarkRig(workload.catalog, seed=7).replay(
            requests)
        parallel, outcome = sharded_ap_replay(
            workload.catalog, requests, jobs=1, seed=7)
        assert [r.record.to_dict() for r in sequential.results] == \
            [r.record.to_dict() for r in parallel.results]
        assert [r.ap_name for r in sequential.results] == \
            [r.ap_name for r in parallel.results]
        assert sequential.failure_ratio == parallel.failure_ratio
        assert len(outcome.results) == 3

    def test_reports_one_wall_per_ap_worker(self, workload):
        metrics = MetricsRegistry()
        _report, outcome = sharded_ap_replay(
            workload.catalog, workload.requests[:30], jobs=1, seed=7,
            metrics=metrics)
        assert len(outcome.walls) == len(outcome.results)
        walls = [name for name in metrics.snapshot()
                 if name.startswith("repro_recovery_item_wall_seconds")]
        assert len(walls) == len(outcome.results)

    def test_records_the_rigs_instruments(self, workload):
        from repro.ap.benchrig import ApBenchmarkRig
        requests = workload.requests[:30]
        sequential = MetricsRegistry()
        ApBenchmarkRig(workload.catalog, seed=7,
                       metrics=sequential).replay(requests)
        parallel = MetricsRegistry()
        sharded_ap_replay(workload.catalog, requests, jobs=1, seed=7,
                          metrics=parallel)
        rig = {name: value for name, value
               in sequential.snapshot().items()
               if name.startswith("repro_ap_")}
        assert rig
        assert {name: value for name, value
                in parallel.snapshot().items()
                if name.startswith("repro_ap_")} == rig


def _shard_keys(shards: int) -> list[str]:
    return [f"shard-{shard:04d}" for shard in range(shards)]


class TestExecutor:
    def test_results_arrive_in_shard_order(self):
        outcome = durable_map(_shard_keys(4), range(4),
                              lambda shard: f"shard-{shard}")
        assert outcome.results == [f"shard-{k}" for k in range(4)]
        assert len(outcome.walls) == 4
        assert sum(outcome.walls) >= 0.0

    def test_worker_errors_propagate(self):
        def boom(shard):
            raise RuntimeError("shard exploded")
        with pytest.raises(RuntimeError, match="shard exploded"):
            durable_map(_shard_keys(2), range(2), boom)

    def test_wall_gauges_name_every_item_and_the_map(self):
        metrics = MetricsRegistry()
        outcome = durable_map(_shard_keys(4), range(4), str,
                              metrics=metrics)
        snapshot = metrics.snapshot()
        walls = sorted(name for name in snapshot if name.startswith(
            "repro_recovery_item_wall_seconds"))
        assert len(walls) == 4
        assert all("shard-000" in name for name in walls)
        assert sorted(snapshot[name] for name in walls) == \
            sorted(outcome.walls)
        assert snapshot["repro_recovery_map_wall_seconds"] >= \
            max(outcome.walls)


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
