"""``python -m repro.serve.bench`` -- the serving tier's saturation ramp.

Boots the serving tier as its own subprocess (so the load generator
never shares a GIL with the tier it is measuring), replays a trace
slice through a stepped ramp, and writes the scorecards to
``BENCH_serve.json``:

* ``engines.async`` -- the full per-step SLO scorecard of the single
  loop (see :func:`repro.loadgen.ramp.scorecard`);
* ``saturation`` -- each run's saturation RPS (highest achieved
  throughput among SLO-healthy steps);
* ``so_reuseport`` (with ``--workers N``) -- the tier ramped again as
  an N-process ``SO_REUSEPORT`` pool (``engines.async_xN``), recorded
  as the pool-over-single-loop scaling ratio.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.loadgen.client import TargetSet
from repro.loadgen.ramp import (
    DEFAULT_ACHIEVED_FLOOR,
    baseline_p99,
    ramp_rates,
    scorecard,
    step_healthy,
)
from repro.loadgen.replay import LoadGenerator
from repro.loadgen.trace import load_or_generate_paths

#: How long to wait for a freshly launched engine's /healthz.
BOOT_TIMEOUT = 15.0


def free_port(host: str = "127.0.0.1") -> int:
    with socket.socket() as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


def wait_healthy(host: str, port: int,
                 timeout: float = BOOT_TIMEOUT) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            connection = http.client.HTTPConnection(host, port,
                                                    timeout=1.0)
            connection.request("GET", "/healthz")
            healthy = connection.getresponse().status == 200
            connection.close()
            if healthy:
                return True
        except OSError:
            time.sleep(0.05)
    return False


class EngineProcess:
    """The serving tier (``python -m repro.serve``) as a child process."""

    def __init__(self, port: int, *,
                 workers: int = 1, max_inflight: int = 128,
                 host: str = "127.0.0.1"):
        self.host = host
        self.port = port
        command = [sys.executable, "-m", "repro.serve",
                   "--host", host, "--port", str(port), "--quiet",
                   "--max-inflight", str(max_inflight)]
        if workers > 1:
            command += ["--workers", str(workers)]
        environment = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2])
        existing = environment.get("PYTHONPATH")
        environment["PYTHONPATH"] = src if not existing \
            else f"{src}{os.pathsep}{existing}"
        self.process = subprocess.Popen(
            command, env=environment,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def wait_ready(self) -> None:
        if not wait_healthy(self.host, self.port):
            self.stop()
            raise RuntimeError(
                f"serving tier never became healthy on port {self.port}")

    def stop(self, grace: float = 5.0) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()

    def __enter__(self) -> "EngineProcess":
        self.wait_ready()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def ramp_engine(paths: list[str], rates: list[float],
                duration: float, *,
                workers: int = 1, max_inflight: int = 128,
                loadgen_workers: int = 8,
                max_concurrency: int = 64,
                achieved_floor: float = DEFAULT_ACHIEVED_FLOOR,
                settle: float = 0.25,
                quiet: bool = False) -> dict[str, Any]:
    """Boot the tier in a subprocess and ramp it to saturation."""
    label = "async" if workers == 1 else f"async_x{workers}"
    with EngineProcess(free_port(), workers=workers,
                       max_inflight=max_inflight) as child:
        targets = TargetSet.from_urls(
            [child.url], max_concurrency=max_concurrency)
        with LoadGenerator(targets, paths,
                           workers=loadgen_workers) as generator:
            generator.prewarm()
            cards = []
            for rate in rates:
                card = generator.run_step(rate, duration)
                cards.append(card)
                healthy = step_healthy(
                    card, achieved_floor,
                    baseline_p99_ms=baseline_p99(cards))
                if not quiet:
                    p95 = card.latency.quantile(0.95) \
                        if card.latency.count else float("nan")
                    print(f"  [{label}] {card.offered_rps:8.1f} "
                          f"offered | {card.achieved_rps:8.1f} "
                          f"achieved | p95 {p95:8.2f} ms | "
                          f"err {card.error_rate:.4f} | "
                          f"{'ok' if healthy else 'SATURATED'}",
                          flush=True)
                if not healthy:
                    break
                time.sleep(settle)
    return scorecard(cards, achieved_floor=achieved_floor,
                     meta={"engine": "async", "workers": workers,
                           "max_inflight": max_inflight})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.bench",
        description="Saturation ramp of the ODR serving tier.")
    parser.add_argument("--workers", type=int, default=1,
                        help="with N > 1: ramp the tier a "
                             "second time as N SO_REUSEPORT worker "
                             "processes and record the scaling ratio "
                             "(default %(default)s)")
    parser.add_argument("--max-inflight", type=int, default=128)
    parser.add_argument("--ramp-start", type=float, default=50.0)
    parser.add_argument("--ramp-stop", type=float, default=1600.0)
    parser.add_argument("--ramp-steps", type=int, default=6)
    parser.add_argument("--duration", type=float, default=4.0,
                        help="seconds per ramp step "
                             "(default %(default)s)")
    parser.add_argument("--loadgen-workers", type=int, default=16)
    parser.add_argument("--max-concurrency", type=int, default=64,
                        help="per-target in-flight cap on the load "
                             "generator side (default %(default)s)")
    parser.add_argument("--achieved-floor", type=float,
                        default=DEFAULT_ACHIEVED_FLOOR)
    parser.add_argument("--scale", type=float, default=0.01)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--limit", type=int, default=5000)
    parser.add_argument("--trace", metavar="DIR", default=None)
    parser.add_argument("--out", default="BENCH_serve.json")
    parser.add_argument("--quiet", action="store_true")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    paths = load_or_generate_paths(args.trace, args.scale, args.seed,
                                   limit=args.limit)
    rates = ramp_rates(args.ramp_start, args.ramp_stop,
                       args.ramp_steps)
    if not args.quiet:
        print(f"bench: {len(paths)} trace paths, ramp "
              f"{[round(rate, 1) for rate in rates]} rps x "
              f"{args.duration}s", flush=True)

    # The single loop, then (with --workers N) the SO_REUSEPORT pass:
    # the same tier as N worker processes sharing the port.  Its
    # scorecard lands beside the single-loop one so the scaling ratio is
    # a recorded number, not a claim.
    runs = {"async": 1}
    if args.workers > 1:
        runs[f"async_x{args.workers}"] = args.workers
    results: dict[str, Any] = {}
    for name, workers in runs.items():
        if not args.quiet:
            print(f"bench: ramping {name} ({workers} worker(s))",
                  flush=True)
        results[name] = ramp_engine(
            paths, rates, args.duration,
            workers=workers, max_inflight=args.max_inflight,
            loadgen_workers=args.loadgen_workers,
            max_concurrency=args.max_concurrency,
            achieved_floor=args.achieved_floor,
            quiet=args.quiet)

    saturation = {name: results[name]["saturation_rps"]
                  for name in results}
    document: dict[str, Any] = {
        "engines": results,
        "saturation": saturation,
        "ramp": {
            "rates_rps": [round(rate, 3) for rate in rates],
            "duration_seconds": args.duration,
            "achieved_floor": args.achieved_floor,
        },
        "trace": {"dir": args.trace, "scale": args.scale,
                  "seed": args.seed, "limit": args.limit,
                  "paths": len(paths)},
        "loadgen": {"workers": args.loadgen_workers,
                    "max_concurrency": args.max_concurrency},
    }
    if args.workers > 1:
        pool = saturation[f"async_x{args.workers}"]
        document["so_reuseport"] = {
            "workers": args.workers,
            "single_loop_rps": saturation["async"],
            "pool_rps": pool,
            "scaling": round(pool / saturation["async"], 3)
            if saturation["async"] > 0 else None,
        }

    from repro.recovery.atomic import atomic_write_text
    atomic_write_text(Path(args.out),
                      json.dumps(document, indent=2, sort_keys=True)
                      + "\n")
    if not args.quiet:
        print(f"bench: wrote {args.out}")
        for name in results:
            print(f"bench: {name} saturation "
                  f"{saturation[name]} rps", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
