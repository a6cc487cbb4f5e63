"""Multi-worker serving: N event loops sharing one port.

One asyncio loop saturates one core; the way past that without a load
balancer is ``SO_REUSEPORT``: every worker process binds the same
``(host, port)`` and the kernel distributes accepted connections across
them.  Workers are plain OS processes (spawn-safe entry point below),
each running its own :class:`~repro.serve.server.AsyncOdrServer` with
its own app state.

State caveat, documented rather than hidden: each worker has an
independent content database, breaker, and metrics registry -- exactly
like independent replicas behind a kernel load balancer.  ODR keeps no
per-user state (the ``odr_aux`` cookie carries the auxiliary info), so
decisions do not change across workers; only per-worker popularity
seeding differs until every worker has seen a file once.

Supervised workers (see :mod:`repro.serve.supervisor`) additionally
bind a private *admin* listener and report its port back through a
pipe: the shared SO_REUSEPORT address load-balances, so a health probe
of one specific worker needs its own door.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import time
from typing import Any, Optional

#: Test hook: ``"rank:exitcode"`` makes the worker of that rank exit
#: with that code right after start -- the supervised twin of the
#: ``REPRO_RECOVERY_CRASH`` crash-hook used by the recovery tests.
CRASH_ENV = "REPRO_SERVE_WORKER_CRASH"

#: How long the pool waits for a SIGTERMed worker to drain before the
#: SIGKILL escalation.
DEFAULT_JOIN_TIMEOUT = 15.0


def _maybe_crash(rank: Optional[int]) -> None:
    spec = os.environ.get(CRASH_ENV, "")
    if not spec or rank is None:
        return
    crash_rank, _sep, code = spec.partition(":")
    try:
        if int(crash_rank) == rank:
            raise SystemExit(int(code or "9"))
    except ValueError:
        return   # malformed hook: ignore rather than kill the pool


def _worker_main(host: str, port: int, max_inflight: int,
                 batch: bool, resilience: bool,
                 faults: Optional[str], quiet: bool,
                 default_policy: str = "odr",
                 rank: Optional[int] = None,
                 admin_pipe: Optional[Any] = None,
                 chaos_epoch: Optional[float] = None) -> None:
    """Spawn-safe worker entry: one async server on a shared port.

    ``chaos_epoch`` is the pool-wide ``time.monotonic()`` origin that
    serve-domain fault windows are measured from (the supervisor's
    start), so a restarted worker agrees with its siblings about when a
    window opened instead of re-anchoring the plan at its own birth.
    """
    _maybe_crash(rank)
    from repro.faults.policies import ResiliencePolicies
    from repro.obs import MetricsRegistry
    from repro.serve.chaos import load_serve_chaos, load_worker_chaos
    from repro.serve.server import AsyncOdrServer, run_async_server

    metrics = MetricsRegistry()
    policies = ResiliencePolicies() if resilience else None
    server = AsyncOdrServer(
        host=host, port=port, policies=policies, metrics=metrics,
        max_inflight=max_inflight, batch=batch,
        chaos=load_serve_chaos(faults, metrics=metrics),
        worker_chaos=load_worker_chaos(faults, rank, epoch=chaos_epoch,
                                       metrics=metrics),
        reuse_port=True, default_policy=default_policy,
        admin_port=0 if admin_pipe is not None else None)

    def report_started() -> None:
        if admin_pipe is None:
            return
        try:
            admin_pipe.send({"rank": rank, "pid": os.getpid(),
                             "admin_port": server.admin_port})
        finally:
            admin_pipe.close()

    raise SystemExit(run_async_server(server, quiet=quiet,
                                      announce=False,
                                      on_started=report_started))


def probe_reuse_port(host: str = "127.0.0.1") -> int:
    """Reserve a concrete port usable with SO_REUSEPORT.

    Workers must agree on a non-zero port before binding; this binds
    port 0 once *with* SO_REUSEPORT to learn a free port that later
    worker binds can share.
    """
    if not hasattr(socket, "SO_REUSEPORT"):
        raise OSError("SO_REUSEPORT unsupported on this platform")
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    probe.bind((host, 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def terminate_pool(pool: list, *, join_timeout: float,
                   quiet: bool = False) -> dict[str, int]:
    """SIGTERM every live worker, join with a timeout, escalate to
    SIGKILL for stragglers.  Returns ``{name: exitcode}``."""
    for process in pool:
        if process.is_alive() and process.pid is not None:
            try:
                os.kill(process.pid, signal.SIGTERM)
            except ProcessLookupError:   # pragma: no cover - race
                pass
    deadline = time.monotonic() + join_timeout
    for process in pool:
        process.join(max(0.0, deadline - time.monotonic()))
    killed = []
    for process in pool:
        if process.is_alive():
            killed.append(process.name)
            process.kill()
            process.join(5.0)
    if killed and not quiet:
        print(f"escalated to SIGKILL after {join_timeout:g}s: "
              f"{', '.join(killed)}", flush=True)
    return {process.name: (process.exitcode
                           if process.exitcode is not None else -9)
            for process in pool}


def summarize_exits(exit_codes: dict[str, int]) -> str:
    """One line per worker for the CLI shutdown summary."""
    def describe(code: int) -> str:
        if code == 0:
            return "clean drain"
        if code < 0:
            return f"killed by signal {-code}"
        return f"exit code {code}"
    return "\n".join(f"  {name}: {describe(code)}"
                     for name, code in sorted(exit_codes.items()))


def run_worker_pool(workers: int, host: str, port: int, *,
                    max_inflight: int, batch: bool = True,
                    resilience: bool = True,
                    faults: Optional[str] = None,
                    default_policy: str = "odr",
                    quiet: bool = False,
                    join_timeout: float = DEFAULT_JOIN_TIMEOUT) -> int:
    """Run ``workers`` SO_REUSEPORT processes; SIGTERM fans out.

    Shutdown is two-stage: the stop signal is forwarded to every worker
    (graceful drain), the join waits ``join_timeout`` seconds, and
    stragglers are SIGKILLed so the pool never wedges on one worker.
    Returns 0 when every worker drained cleanly, else the worst worker
    exit code (SIGKILLed workers report 137-style negative codes).
    """
    if workers < 2:
        raise ValueError("run_worker_pool needs >= 2 workers; use "
                         "run_async_server for one")
    if port == 0:
        port = probe_reuse_port(host)
    context = multiprocessing.get_context("spawn")
    chaos_epoch = time.monotonic()
    pool = [context.Process(
        target=_worker_main,
        args=(host, port, max_inflight, batch, resilience,
              faults, quiet, default_policy, rank, None, chaos_epoch),
        name=f"odr-worker-{rank}", daemon=False)
        for rank in range(workers)]
    for process in pool:
        process.start()
    if not quiet:
        print(f"ODR (async x{workers} via SO_REUSEPORT) listening on "
              f"http://{host}:{port}/ (Ctrl-C or SIGTERM to stop)",
              flush=True)

    stopping = {"flag": False}

    def _forward(signum, _frame):   # noqa: ARG001 - signal API
        stopping["flag"] = True

    previous = {signum: signal.signal(signum, _forward)
                for signum in (signal.SIGINT, signal.SIGTERM)}
    exit_codes: dict[str, int] = {}
    try:
        # Poll rather than block in join(): the signal handler only
        # flips a flag, so the loop stays responsive to SIGTERM and a
        # worker that dies on its own is noticed within a tick.
        while not stopping["flag"] \
                and any(process.is_alive() for process in pool):
            time.sleep(0.1)
    except KeyboardInterrupt:   # pragma: no cover - interactive
        stopping["flag"] = True
    finally:
        exit_codes = terminate_pool(pool, join_timeout=join_timeout,
                                    quiet=quiet)
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    if not quiet:
        print("worker pool shut down:\n"
              + summarize_exits(exit_codes), flush=True)
    return max((abs(code) for code in exit_codes.values()),
               default=0) if any(exit_codes.values()) else 0
