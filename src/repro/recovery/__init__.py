"""repro.recovery -- durable, resumable, worker-failure-tolerant runs.

The paper's thesis is that long downloads fail midway and the cure is
checkpointed, delegatable transfers; this subsystem applies the same
discipline to the harness itself:

* :mod:`~repro.recovery.atomic` -- the one shared tmp+fsync+rename
  writer every emitted artifact goes through;
* :mod:`~repro.recovery.rundir` -- run directories: an atomically
  written manifest (plan identity, seeds, code digest) plus per-item
  result checkpoints (pickle + SHA-256), where a digest mismatch means
  *recompute*, never *merge*;
* :mod:`~repro.recovery.durable` -- :func:`durable_map`, the
  failure-tolerant process-pool map that the backend matrix, the
  smart-AP replay and the experiments groups call directly: crashed
  workers (``BrokenProcessPool``) and watchdog-expired hangs requeue
  with a bounded attempt budget, SIGINT/SIGTERM checkpoint and raise
  :class:`RunInterrupted`, and ``--resume`` recomputes only what is
  missing or corrupt -- producing output bit-identical to an
  uninterrupted run (every worker is deterministic given its payload,
  and tests prove it);
* :mod:`~repro.recovery.crashhook` -- the env-var-gated deterministic
  crash/hang injector (``REPRO_RECOVERY_CRASH``) that lets tests and
  the CI kill-resume job exercise all of the above hermetically.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "CorruptCheckpoint": "repro.recovery.rundir",
    "DurableOutcome": "repro.recovery.durable",
    "RecoveryConfig": "repro.recovery.durable",
    "RunDir": "repro.recovery.rundir",
    "RunDirError": "repro.recovery.rundir",
    "RunInterrupted": "repro.recovery.durable",
    "ShardLostError": "repro.recovery.durable",
    "atomic_write_bytes": "repro.recovery.atomic",
    "atomic_write_text": "repro.recovery.atomic",
    "durable_map": "repro.recovery.durable",
    "package_code_digest": "repro.recovery.rundir",
    "sha256_bytes": "repro.recovery.atomic",
    "sha256_file": "repro.recovery.atomic",
    "worker_identity": "repro.recovery.durable",
})
