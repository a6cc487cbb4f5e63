"""Durable, worker-failure-tolerant map over picklable work items.

:func:`durable_map` is the one process map in ``src/`` outside
serving: the backend matrix (``repro.backends.replay``), the smart-AP
replay (``repro.ap.benchrig``) and the experiments document's driver
groups (``repro.experiments.runner``) call it directly.  It maps a
module-level worker over keyed payloads, inline or on a spawn-context
process pool, and survives exactly the failures that kill a plain
``ProcessPoolExecutor`` run:

* **a crashed worker** (SIGKILL, OOM, preemption) surfaces as
  ``BrokenProcessPool`` -- instead of aborting, the pool is rebuilt and
  the unfinished items are requeued with a bounded per-item attempt
  budget; only items actually observed running are charged an attempt;
* **a hung worker** trips the per-item watchdog (``shard_timeout``):
  the stuck pool's workers are killed, which funnels into the same
  requeue path;
* **SIGINT/SIGTERM** checkpoint state and raise :class:`RunInterrupted`
  so the process can exit with a resumable run directory;
* with a :class:`RecoveryConfig`, every finished item is immediately
  checkpointed (pickle + SHA-256, tmp/fsync/rename) into the run
  directory, and a resume reloads every valid checkpoint and recomputes
  only the missing or corrupt ones.

Because every worker in this repository is deterministic given its
payload (each builds its randomness from its own payload), a
resumed map's outputs are **bit-identical** to an uninterrupted run's:
caching is pickling, and recomputation regenerates the same bytes.

Without a :class:`RecoveryConfig` the map still refuses to die with a
raw ``BrokenProcessPool`` traceback: an item whose attempt budget is
exhausted falls back to an in-process rerun (reported on stderr), so a
flaky worker costs wall-clock, never the run.  Ordinary worker
*exceptions* are never retried -- they are deterministic bugs and
propagate, exactly as the pre-recovery executor behaved.
"""

from __future__ import annotations

import functools
import signal
import sys
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

import multiprocessing

from repro.obs.registry import AnyRegistry, NOOP
from repro.recovery.atomic import sha256_bytes
from repro.recovery.crashhook import maybe_crash
from repro.recovery.rundir import (
    STATUS_CORRUPT,
    STATUS_OK,
    RunDir,
    RunDirError,
)

#: Attempt budget used when no :class:`RecoveryConfig` is given: one
#: original try plus this many requeues before the in-process fallback.
DEFAULT_MAX_RETRIES = 2

#: Seconds between scheduler ticks (interrupt checks + watchdog scans).
_TICK = 0.1


@dataclass(frozen=True)
class RecoveryConfig:
    """Durability knobs for one sharded execution.

    ``run_dir`` is the checkpoint directory (created on first use);
    ``resume`` requires it to exist and reuses its valid checkpoints;
    ``shard_timeout`` is the per-item watchdog in wall seconds (``None``
    disables it); ``max_shard_retries`` is how many *requeues* a lost
    item gets before the run aborts as resumable-failed.
    """

    run_dir: Path
    resume: bool = False
    shard_timeout: Optional[float] = None
    max_shard_retries: int = DEFAULT_MAX_RETRIES


class RunInterrupted(RuntimeError):
    """The map was stopped by SIGINT/SIGTERM after checkpointing.

    The run directory named by :attr:`run_dir` holds every completed
    item; re-running with ``resume`` finishes the rest.
    """

    def __init__(self, signum: Optional[int] = None,
                 run_dir: Optional[Path] = None,
                 completed: int = 0, total: int = 0):
        self.signum = signum
        self.run_dir = run_dir
        self.completed = completed
        self.total = total
        name = signal.Signals(signum).name if signum is not None \
            else "stop request"
        super().__init__(
            f"interrupted by {name} with {completed}/{total} items "
            f"checkpointed")


class ShardLostError(RuntimeError):
    """An item exhausted its attempt budget under a recovery config."""

    def __init__(self, key: str, attempts: int,
                 run_dir: Optional[Path] = None):
        self.key = key
        self.attempts = attempts
        self.run_dir = run_dir
        super().__init__(
            f"item {key} lost its worker {attempts} time(s); attempt "
            f"budget exhausted")


@dataclass(frozen=True)
class DurableOutcome:
    """Results of one durable map, in input-key order.

    ``walls`` are per-item worker wall seconds (0.0 for items reused
    from checkpoints); ``reused`` names the checkpoints a resume
    loaded; ``retries`` counts requeued attempts across all items.
    """

    results: list[Any]
    walls: list[float]
    reused: tuple[str, ...] = ()
    retries: int = 0


def worker_identity(worker: Callable) -> str:
    """A stable string naming a worker callable for run manifests.

    ``functools.partial`` workers fold a digest of their bound
    arguments in, so the same base function with a different fault
    plan (say) is a different run identity.
    """
    base = worker
    extra = ""
    if isinstance(worker, functools.partial):
        base = worker.func
        bound = repr((worker.args, sorted(worker.keywords.items())))
        extra = "#" + sha256_bytes(bound.encode())[:12]
    return f"{base.__module__}.{base.__qualname__}{extra}"


def _durable_call(worker: Callable, key: str, attempt: int,
                  payload: Any, crash_enabled: bool = True
                  ) -> tuple[str, float, Any]:
    """The spawn-picklable per-attempt wrapper: crash hook + timing."""
    if crash_enabled:
        maybe_crash(key, attempt)
    started = time.perf_counter()
    result = worker(payload)
    return key, time.perf_counter() - started, result


class _InterruptGuard:
    """SIGINT/SIGTERM -> cooperative stop flag, installed around a map.

    Handlers are only installed from the main thread (Python forbids
    otherwise) and only when requested; the previous handlers are
    restored on exit so nested users (pytest, the CLI) are unaffected.
    ``should_stop`` is the deterministic test hook for the same path.
    """

    def __init__(self, install: bool,
                 should_stop: Optional[Callable[[], bool]] = None):
        self._install = install
        self._should_stop = should_stop
        self._previous: dict[int, Any] = {}
        self.signum: Optional[int] = None

    def __enter__(self) -> "_InterruptGuard":
        if self._install and threading.current_thread() \
                is threading.main_thread():
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    self._previous[signum] = signal.signal(
                        signum, self._handle)
                except (ValueError, OSError):   # pragma: no cover
                    pass
        return self

    def __exit__(self, *exc_info) -> None:
        for signum, previous in self._previous.items():
            signal.signal(signum, previous)

    def _handle(self, signum, frame) -> None:
        self.signum = signum

    def check(self) -> None:
        if self.signum is not None:
            raise RunInterrupted(signum=self.signum)
        if self._should_stop is not None and self._should_stop():
            raise RunInterrupted()


def _open_run_dir(recovery: RecoveryConfig, identity: dict[str, Any],
                  keys: Sequence[str]) -> RunDir:
    run_dir = RunDir(recovery.run_dir)
    if run_dir.exists:
        if not recovery.resume:
            raise RunDirError(
                f"{run_dir.path} already holds a run; pass resume=True "
                "(--resume) to continue it or pick a fresh --run-dir")
        run_dir = RunDir.open(recovery.run_dir)
        for warning in run_dir.verify_identity(identity):
            print(f"warning: {warning}", file=sys.stderr)
        if list(run_dir.manifest.get("keys", [])) != list(keys):
            raise RunDirError(
                f"{run_dir.path}: manifest keys do not match this "
                "plan's items")
        return run_dir
    if recovery.resume:
        raise RunDirError(
            f"{recovery.run_dir} has no manifest; nothing to resume")
    return RunDir.create(recovery.run_dir, identity, keys)


def _kill_pool_workers(pool: ProcessPoolExecutor) -> None:
    """Forcibly kill a pool's worker processes (watchdog expiry).

    Uses the executor's private process table -- the only handle the
    stdlib exposes -- guarded so a future Python that renames it
    degrades to abandoning the pool instead of crashing the parent.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.kill()
        except Exception:   # pragma: no cover - already-dead worker
            pass


def durable_map(keys: Sequence[str], payloads: Sequence[Any],
                worker: Callable, *, jobs: int = 1,
                recovery: Optional[RecoveryConfig] = None,
                identity: Optional[dict[str, Any]] = None,
                metrics: AnyRegistry = NOOP,
                should_stop: Optional[Callable[[], bool]] = None
                ) -> DurableOutcome:
    """Map ``worker`` over keyed payloads with failure tolerance.

    ``keys`` are the stable checkpoint names (unique, filesystem-safe);
    ``payloads[i]`` is the argument for ``keys[i]``.  Results come back
    in key order regardless of scheduling.  See the module docstring
    for the failure semantics.

    ``identity`` is the run directory's manifest; the map completes it
    with the worker's :func:`worker_identity` only when ``recovery``
    asks for a run directory (naming a ``functools.partial`` worker
    hashes the ``repr`` of its bound arguments, which may be large).
    Per-item worker walls land in the registry as
    ``repro_recovery_item_wall_seconds{key=<key>}`` gauges and the
    map's own wall as ``repro_recovery_map_wall_seconds``.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    started = time.perf_counter()
    keys = list(keys)
    payloads = list(payloads)
    if len(keys) != len(payloads):
        raise ValueError("keys and payloads must align")
    if len(set(keys)) != len(keys):
        raise ValueError("checkpoint keys must be unique")

    run_dir: Optional[RunDir] = None
    results: dict[str, Any] = {}
    walls: dict[str, float] = {key: 0.0 for key in keys}
    reused: list[str] = []
    if recovery is not None:
        run_dir = _open_run_dir(
            recovery, dict(identity or {}, worker=worker_identity(worker)),
            keys)
        for key in keys:
            status = run_dir.checkpoint_status(key)
            if status == STATUS_OK:
                results[key] = run_dir.load_checkpoint(key)
                reused.append(key)
            elif status == STATUS_CORRUPT:
                metrics.counter(
                    "repro_recovery_corrupt_checkpoints_total").inc()
                print(f"warning: {run_dir.checkpoint_path(key)} failed "
                      "its digest check; recomputing", file=sys.stderr)
        if reused:
            metrics.counter(
                "repro_recovery_checkpoints_reused_total"
                ).inc(len(reused))
        run_dir.write_state("running", completed=len(results),
                            total=len(keys))

    remaining = [(key, payload) for key, payload in zip(keys, payloads)
                 if key not in results]
    max_retries = recovery.max_shard_retries if recovery is not None \
        else DEFAULT_MAX_RETRIES
    timeout = recovery.shard_timeout if recovery is not None else None
    retries = 0

    guard = _InterruptGuard(install=recovery is not None,
                            should_stop=should_stop)
    with guard:
        try:
            if remaining and (jobs <= 1 or len(remaining) <= 1):
                _run_inline(remaining, worker, results, walls, run_dir,
                            metrics, guard)
            elif remaining:
                retries = _run_pool(
                    remaining, worker, jobs, results, walls, run_dir,
                    metrics, guard, timeout, max_retries,
                    durable=recovery is not None)
        except RunInterrupted as error:
            error.run_dir = recovery.run_dir if recovery else None
            error.completed = len(results)
            error.total = len(keys)
            if run_dir is not None:
                run_dir.write_state("interrupted",
                                    completed=len(results),
                                    total=len(keys))
                metrics.counter("repro_recovery_interrupts_total").inc()
            raise
        except ShardLostError:
            if run_dir is not None:
                run_dir.write_state("failed", completed=len(results),
                                    total=len(keys))
            raise
        except Exception:
            if run_dir is not None:
                run_dir.write_state("failed", completed=len(results),
                                    total=len(keys))
            raise
    if run_dir is not None:
        run_dir.write_state("complete", completed=len(keys),
                            total=len(keys))
    for key in keys:
        metrics.gauge("repro_recovery_item_wall_seconds",
                      key=key).set(walls[key])
    metrics.gauge("repro_recovery_map_wall_seconds").set(
        time.perf_counter() - started)
    return DurableOutcome(results=[results[key] for key in keys],
                          walls=[walls[key] for key in keys],
                          reused=tuple(reused), retries=retries)


def _checkpoint(run_dir: Optional[RunDir], key: str, result: Any,
                metrics: AnyRegistry) -> None:
    if run_dir is None:
        return
    run_dir.write_checkpoint(key, result)
    metrics.counter("repro_recovery_checkpoints_written_total").inc()


def _run_inline(remaining: list[tuple[str, Any]], worker: Callable,
                results: dict[str, Any], walls: dict[str, float],
                run_dir: Optional[RunDir], metrics: AnyRegistry,
                guard: _InterruptGuard) -> None:
    """The no-pool path: sequential, interrupt-checked, checkpointed.

    The crash hook is disabled here -- an injected SIGKILL would take
    the coordinating process (and the test runner) down with it.
    """
    for key, payload in remaining:
        guard.check()
        _key, wall, result = _durable_call(worker, key, 1, payload,
                                           crash_enabled=False)
        results[key] = result
        walls[key] = wall
        _checkpoint(run_dir, key, result, metrics)


def _run_pool(remaining: list[tuple[str, Any]], worker: Callable,
              jobs: int, results: dict[str, Any],
              walls: dict[str, float], run_dir: Optional[RunDir],
              metrics: AnyRegistry, guard: _InterruptGuard,
              timeout: Optional[float], max_retries: int,
              durable: bool) -> int:
    """The process-pool path with requeue-and-retry; returns retries."""
    payload_by_key = dict(remaining)
    attempts = {key: 0 for key, _payload in remaining}
    queue = deque(remaining)
    context = multiprocessing.get_context("spawn")
    retries = 0

    while queue:
        pool = ProcessPoolExecutor(
            max_workers=min(jobs, len(queue)), mp_context=context)
        futures: dict[Any, str] = {}
        for key, payload in queue:
            attempts[key] += 1
            futures[pool.submit(_durable_call, worker, key,
                                attempts[key], payload,
                                True)] = key
        queue.clear()

        started_at: dict[str, float] = {}
        timed_out: set[str] = set()
        broken = False
        try:
            pending = set(futures)
            while pending and not broken:
                done, pending = wait(pending, timeout=_TICK,
                                     return_when=FIRST_COMPLETED)
                for future in done:
                    key = futures[future]
                    try:
                        _key, wall, result = future.result()
                    except BrokenProcessPool:
                        broken = True
                    else:
                        results[key] = result
                        walls[key] = wall
                        _checkpoint(run_dir, key, result, metrics)
                guard.check()
                now = time.perf_counter()
                for future, key in futures.items():
                    if future in pending and key not in started_at \
                            and future.running():
                        started_at[key] = now
                if timeout is not None:
                    expired = [key for future, key in futures.items()
                               if future in pending
                               and key in started_at
                               and now - started_at[key] > timeout]
                    if expired:
                        timed_out.update(expired)
                        metrics.counter(
                            "repro_recovery_shard_timeouts_total"
                            ).inc(len(expired))
                        print(f"warning: {', '.join(sorted(expired))} "
                              f"exceeded the {timeout:.0f}s watchdog; "
                              "killing the worker pool and requeueing",
                              file=sys.stderr)
                        _kill_pool_workers(pool)
                        broken = True
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

        unfinished = sorted(key for key in futures.values()
                            if key not in results)
        if not unfinished:
            continue
        metrics.counter("repro_recovery_pool_rebuilds_total").inc()
        # Only items actually observed running (or hung) are charged the
        # lost attempt; queued bystanders get their attempt refunded.
        # If nothing was ever observed running, charge everyone so a
        # pathologically fast-dying pool still terminates.
        charged = {key for key in unfinished
                   if key in started_at or key in timed_out} \
            or set(unfinished)
        for key in unfinished:
            if key not in charged:
                attempts[key] -= 1
        lost = ", ".join(sorted(charged))
        print(f"warning: worker pool broke; lost {lost} "
              f"({len(unfinished)} item(s) requeued)", file=sys.stderr)
        for key in unfinished:
            if attempts[key] <= max_retries:
                if key in charged:
                    retries += 1
                    metrics.counter(
                        "repro_recovery_shard_retries_total").inc()
                queue.append((key, payload_by_key[key]))
            elif durable:
                raise ShardLostError(key, attempts[key],
                                     run_dir=run_dir.path
                                     if run_dir else None)
            else:
                # Pre-recovery fallback: never die with a raw
                # BrokenProcessPool -- finish the lost item here, in
                # process, where nothing can kill it.
                print(f"warning: {key} exhausted its pool attempts; "
                      "re-running in-process", file=sys.stderr)
                metrics.counter(
                    "repro_recovery_inline_fallbacks_total").inc()
                _key, wall, result = _durable_call(
                    worker, key, attempts[key], payload_by_key[key],
                    crash_enabled=False)
                results[key] = result
                walls[key] = wall
                _checkpoint(run_dir, key, result, metrics)
    return retries
