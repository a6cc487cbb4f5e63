"""repro.scale -- multi-process execution: shards, fan-outs, runners.

* :class:`ShardPlan` / :class:`ShardSpec` -- stable-hash content
  partition of a week's requests into independent parts (the backend
  matrix, ``repro.backends.replay``, maps over it);
* ``executor`` -- the spawn-safe process-pool map (``run_sharded`` over
  a plan, ``durable_run`` over any keyed payloads) with a deterministic
  reduction order;
* ``pipelines`` -- ``sharded_ap_replay``, one process per benchmarked
  AP behind ``repro ap --jobs``;
* ``runner`` -- the parallel experiment runner (driver groups with
  disjoint artefact footprints, each in a fresh context) behind
  ``repro experiments --jobs``;
* ``reducers`` -- the canonical digests of reduced results.

Determinism contract: every fan-out's result is independent of
``jobs``; only wall-clock time may change.

Durability: every fan-out here routes through
:func:`repro.recovery.durable.durable_map`, so crashed or hung workers
are requeued within a bounded budget, and passing a
:class:`repro.recovery.RecoveryConfig` (CLI ``--run-dir``/``--resume``)
checkpoints per-worker results for bit-identical resume.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "GROUPS": "repro.scale.runner",
    "ScaleRunInfo": "repro.scale.executor",
    "ShardPlan": "repro.scale.plan",
    "ShardSpec": "repro.scale.plan",
    "check_group_coverage": "repro.scale.runner",
    "run_parallel": "repro.scale.runner",
    "run_sharded": "repro.scale.executor",
    "shard_key": "repro.scale.executor",
    "sharded_ap_replay": "repro.scale.pipelines",
    "stable_hash": "repro.scale.plan",
})
