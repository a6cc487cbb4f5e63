"""Process-pool map over shard specs, with deterministic reduction order.

The executor runs a module-level worker function over the plan's
:class:`~repro.scale.plan.ShardSpec` payloads -- inline when
``jobs <= 1``, in a spawn-context process pool otherwise -- and hands
the results back **in shard order**, whatever order workers finish in.
Shard outputs are scheduling-independent by construction (every shard's
randomness is self-contained), so the only thing parallelism may change
is wall-clock time; that is recorded per shard into the obs registry.
:func:`durable_run` is the keyed map under :func:`run_sharded`; the
AP-replay and experiment-group fan-outs use it too, so every map
reports the same :class:`ScaleRunInfo` and gauges.

Failure tolerance is delegated to
:func:`repro.recovery.durable.durable_map`: a worker that dies
(``BrokenProcessPool``) or hangs past the watchdog costs its shard a
bounded requeue, never the run; with a
:class:`~repro.recovery.durable.RecoveryConfig` every finished shard is
checkpointed into a run directory and an interrupted or crashed run
resumes bit-identically (see ``repro.recovery``).

Spawn (not fork) is used everywhere: it is the only start method that
exists on all supported platforms, and it guarantees workers import a
fresh interpreter state instead of inheriting arbitrary parent state --
the same reason worker callables must be module-level functions and
payloads must be picklable primitives.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, TypeVar

from repro.obs.registry import AnyRegistry, NOOP
from repro.recovery.durable import (
    RecoveryConfig,
    durable_map,
    worker_identity,
)
from repro.scale.plan import ShardPlan, ShardSpec

R = TypeVar("R")

ShardWorker = Callable[[ShardSpec], R]


def shard_key(shard: int) -> str:
    """The stable checkpoint key of one shard (``shard-0007``)."""
    return f"shard-{shard:04d}"


@dataclass(frozen=True)
class ScaleRunInfo:
    """Timing record of one sharded map (feeds obs + BENCH_scale.json).

    ``reused_shards`` counts checkpoints a resume loaded instead of
    recomputing (their ``shard_walls`` entries are 0.0);
    ``shard_retries`` counts requeued attempts after worker loss.
    """

    jobs: int
    shards: int
    wall_seconds: float
    shard_walls: tuple[float, ...]
    reused_shards: int = 0
    shard_retries: int = 0

    @property
    def work_seconds(self) -> float:
        """Total worker CPU-side wall across shards (serial-equivalent)."""
        return sum(self.shard_walls)

    def to_dict(self) -> dict[str, Any]:
        return {"jobs": self.jobs, "shards": self.shards,
                "wall_seconds": self.wall_seconds,
                "work_seconds": self.work_seconds,
                "shard_walls": list(self.shard_walls),
                "reused_shards": self.reused_shards,
                "shard_retries": self.shard_retries}


def durable_run(keys: Sequence[str], payloads: Sequence[Any],
                worker: Callable, *, jobs: int = 1,
                metrics: AnyRegistry = NOOP,
                recovery: Optional[RecoveryConfig] = None,
                identity: Optional[dict[str, Any]] = None
                ) -> tuple[list[Any], ScaleRunInfo]:
    """:func:`durable_map` plus the timing record every fan-out shares.

    ``identity`` (the run directory's manifest, completed with the
    worker's :func:`worker_identity`) is only built when ``recovery``
    asks for a run directory: naming a ``functools.partial`` worker
    hashes the ``repr`` of its bound arguments, which may be large.

    Per-item worker walls land in the registry as
    ``repro_scale_shard_wall_seconds{shard=<key>}`` gauges; the map's
    own wall time as ``repro_scale_wall_seconds``.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    manifest = None
    if recovery is not None:
        manifest = dict(identity or {}, worker=worker_identity(worker))
    started = time.perf_counter()
    outcome = durable_map(keys, payloads, worker, jobs=jobs,
                          recovery=recovery, identity=manifest,
                          metrics=metrics)
    wall = time.perf_counter() - started

    metrics.gauge("repro_scale_jobs").set(jobs)
    metrics.gauge("repro_scale_shards").set(len(keys))
    metrics.gauge("repro_scale_wall_seconds").set(wall)
    for key, item_wall in zip(keys, outcome.walls):
        metrics.gauge("repro_scale_shard_wall_seconds",
                      shard=key).set(item_wall)
    info = ScaleRunInfo(
        jobs=jobs, shards=len(keys), wall_seconds=wall,
        shard_walls=tuple(outcome.walls),
        reused_shards=len(outcome.reused),
        shard_retries=outcome.retries)
    return outcome.results, info


def run_sharded(plan: ShardPlan, worker: ShardWorker, *,
                jobs: int = 1,
                metrics: AnyRegistry = NOOP,
                recovery: Optional[RecoveryConfig] = None
                ) -> tuple[list[Any], ScaleRunInfo]:
    """Map ``worker`` over the plan's shards; reduce in shard order.

    ``worker`` must be spawn-picklable (a module-level function, or a
    ``functools.partial`` of one) taking one :class:`ShardSpec`.
    Worker exceptions propagate to the caller; worker *deaths* and
    hangs are retried within a bounded budget (see
    :mod:`repro.recovery.durable`).  With ``recovery`` the run is
    durable: completed shards are checkpointed under
    ``recovery.run_dir`` and a resume recomputes only missing/corrupt
    shards, yielding results bit-identical to an uninterrupted run.
    """
    specs = plan.specs()
    return durable_run(
        [shard_key(spec.shard) for spec in specs], specs, worker,
        jobs=jobs, metrics=metrics, recovery=recovery,
        identity={"kind": "sharded-map", "scale": plan.scale,
                  "seed": plan.seed, "shards": plan.shards})
