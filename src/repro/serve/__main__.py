"""``python -m repro.serve`` -- run the ODR serving tier.

The asyncio tier: keep-alive connections, bounded admission control,
same-tick batched decision evaluation, ``/metrics``; with
``--workers N`` it becomes N ``SO_REUSEPORT`` processes sharing the
port, and with ``--supervise`` a parent keeps that pool at capacity.

Examples::

    python -m repro.serve --port 8034                  # one loop
    python -m repro.serve --workers 4                  # SO_REUSEPORT x4
    python -m repro.serve --faults examples/serve_chaos_plan.json
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from repro.serve.admission import DEFAULT_MAX_INFLIGHT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Run the ODR decision service.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8034,
                        help="0 picks a free port and prints it "
                             "(default %(default)s)")
    parser.add_argument("--workers", type=int, default=1,
                        help="SO_REUSEPORT worker processes "
                             "(default %(default)s)")
    parser.add_argument("--max-inflight", type=int,
                        default=DEFAULT_MAX_INFLIGHT,
                        help="admission-control cap on concurrent "
                             "requests; the excess is shed with "
                             "503 + Retry-After (default %(default)s)")
    parser.add_argument("--policy", default="odr",
                        help="default routing policy (a registry "
                             "strategy name, e.g. delay-aware); "
                             "requests may override per call with "
                             "?policy=... (default %(default)s)")
    parser.add_argument("--no-batch", action="store_true",
                        help="disable same-tick coalescing of /decide "
                             "requests")
    parser.add_argument("--supervise", action="store_true",
                        help="run the worker pool under the parent "
                             "supervisor: per-worker health probes, "
                             "backoff restarts, restart-storm "
                             "breaker (needs --workers >= 2)")
    parser.add_argument("--max-workers", type=int, default=None,
                        help="with --supervise: elastic-capacity "
                             "ceiling -- the supervisor grows the pool "
                             "toward this size under sustained "
                             "admission/deadline shed pressure and "
                             "shrinks back after a quiet window "
                             "(default: fixed pool)")
    parser.add_argument("--no-resilience", action="store_true",
                        help="disable the backend circuit breaker")
    parser.add_argument("--faults", metavar="PLAN", default=None,
                        help="inject a fault plan into the serving "
                             "tier (windows anchored at server start)")
    parser.add_argument("--grace", type=float, default=10.0,
                        help="drain grace on SIGTERM/SIGINT, seconds "
                             "(default %(default)s)")
    parser.add_argument("--quiet", action="store_true")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    from repro.backends.registry import strategy_names
    if args.policy not in strategy_names():
        build_parser().error(
            f"unknown --policy {args.policy!r}; "
            f"known: {', '.join(strategy_names())}")
    if args.max_workers is not None and not args.supervise:
        build_parser().error("--max-workers needs --supervise "
                             "(elastic capacity is a supervisor "
                             "feature)")
    if args.faults:
        # Serve-domain targets reference concrete slots (a single loop
        # is a pool of 1): fail a malformed or typo'd plan here, at
        # load time, not mid-campaign.
        from repro.faults.plan import FaultPlan, validate_serve_plan
        try:
            validate_serve_plan(FaultPlan.from_file(args.faults),
                                args.workers)
        except (OSError, ValueError) as error:
            build_parser().error(f"--faults: {error}")

    if args.supervise:
        if args.workers < 2:
            build_parser().error("--supervise needs --workers >= 2")
        if args.max_workers is not None \
                and args.max_workers < args.workers:
            build_parser().error("--max-workers must be >= --workers")
        from repro.serve.supervisor import run_supervised_pool
        return run_supervised_pool(
            args.workers, args.host, args.port,
            max_inflight=args.max_inflight, batch=not args.no_batch,
            resilience=not args.no_resilience, faults=args.faults,
            default_policy=args.policy, quiet=args.quiet,
            max_workers=args.max_workers)

    if args.workers > 1:
        from repro.serve.workers import run_worker_pool
        return run_worker_pool(
            args.workers, args.host, args.port,
            max_inflight=args.max_inflight, batch=not args.no_batch,
            resilience=not args.no_resilience, faults=args.faults,
            default_policy=args.policy, quiet=args.quiet)

    from repro.faults.policies import ResiliencePolicies
    from repro.obs import MetricsRegistry
    from repro.serve.chaos import load_serve_chaos
    from repro.serve.server import AsyncOdrServer, run_async_server
    metrics = MetricsRegistry()
    policies = None if args.no_resilience else ResiliencePolicies()
    server = AsyncOdrServer(
        host=args.host, port=args.port, policies=policies,
        metrics=metrics, max_inflight=args.max_inflight,
        batch=not args.no_batch,
        chaos=load_serve_chaos(args.faults, metrics=metrics),
        default_policy=args.policy)
    return run_async_server(server, grace=args.grace, quiet=args.quiet)


if __name__ == "__main__":
    raise SystemExit(main())
