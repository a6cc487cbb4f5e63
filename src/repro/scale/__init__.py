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

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "DEFAULT_SHARDS": "repro.scale.plan",
    "GROUPS": "repro.scale.runner",
    "ScaleRunInfo": "repro.scale.executor",
    "ShardPlan": "repro.scale.plan",
    "ShardReplay": "repro.scale.replay",
    "ShardRunStats": "repro.scale.replay",
    "ShardSpec": "repro.scale.plan",
    "UserDirectory": "repro.scale.shardgen",
    "check_group_coverage": "repro.scale.runner",
    "generate_shard": "repro.scale.shardgen",
    "merge_cdfs": "repro.scale.reducers",
    "merge_stats": "repro.scale.replay",
    "merge_workloads": "repro.scale.reducers",
    "run_parallel": "repro.scale.runner",
    "run_sharded": "repro.scale.executor",
    "shard_key": "repro.scale.executor",
    "sharded_ap_replay": "repro.scale.pipelines",
    "sharded_cloud_stats": "repro.scale.pipelines",
    "sharded_generate": "repro.scale.pipelines",
    "stable_hash": "repro.scale.plan",
})
