"""repro.scale -- sharded, multi-process execution for full-trace runs.

The subsystem that takes the simulation from down-sampled weeks to the
paper's real dimensions:

* :class:`ShardPlan` / :class:`ShardSpec` -- stable-hash partition of a
  measurement week into independent sub-workloads (content-sharded, so
  cache-coupled state stays shard-local);
* ``shardgen`` -- per-entity workload synthesis whose shard union is
  bit-identical for any shard count or worker scheduling;
* ``replay`` -- the admission-free per-file cloud replay producing
  mergeable :class:`ShardRunStats`;
* ``reducers`` -- shard-output reductions and
  :class:`~repro.scale.reducers.MergeableStats`, the one base of
  ``ShardRunStats`` and the backend matrix's ``ComboStats``;
* ``executor`` / ``pipelines`` -- spawn-safe process-pool map-reduce over
  shards (``run_sharded``, also under the backend matrix,
  ``repro.backends.replay.compare``) and the end-to-end generate /
  cloud-replay / AP-replay pipelines behind the CLIs' ``--jobs``;
* ``runner`` -- the parallel experiment runner (driver groups with
  disjoint artefact footprints, each in a fresh context);
* ``bench`` -- the ``BENCH_scale.json`` perf record
  (``python -m repro.scale.bench``).

Determinism contract: merged results depend only on ``(scale, seed,
shards)`` -- never on ``jobs`` -- and the default shard count is a fixed
constant so the common configuration depends only on ``(scale, seed)``.

Durability: every fan-out here routes through
:func:`repro.recovery.durable.durable_map`, so crashed or hung workers
are requeued within a bounded budget, and passing a
:class:`repro.recovery.RecoveryConfig` (CLI ``--run-dir``/``--resume``)
checkpoints per-shard results for bit-identical resume.
"""

from repro.scale.executor import ScaleRunInfo, run_sharded, shard_key
from repro.scale.pipelines import (
    sharded_ap_replay,
    sharded_cloud_stats,
    sharded_generate,
)
from repro.scale.plan import (
    DEFAULT_SHARDS,
    ShardPlan,
    ShardSpec,
    stable_hash,
)
from repro.scale.reducers import merge_cdfs, merge_workloads
from repro.scale.replay import ShardReplay, ShardRunStats, merge_stats
from repro.scale.runner import GROUPS, check_group_coverage, run_parallel
from repro.scale.shardgen import UserDirectory, generate_shard

__all__ = [
    "DEFAULT_SHARDS",
    "GROUPS",
    "ScaleRunInfo",
    "ShardPlan",
    "ShardReplay",
    "ShardRunStats",
    "ShardSpec",
    "UserDirectory",
    "check_group_coverage",
    "generate_shard",
    "merge_cdfs",
    "merge_stats",
    "merge_workloads",
    "run_parallel",
    "run_sharded",
    "shard_key",
    "sharded_ap_replay",
    "sharded_cloud_stats",
    "sharded_generate",
    "stable_hash",
]
