"""The repository's benchmark: one command, four workloads.

One workload, measured in this process::

    python3 bench/run.py --workload cloud_week --seed 7 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric of
BENCHMARK.json, or with ``--trace 1`` every per-layer metric.  The exit
code is 0 only when every correctness gate passed.

Every workload, interleaved::

    python3 bench/run.py --seed 20150222 --out bench/out/run.json

runs each workload once per round in a fresh subprocess, rotating the
workload order from round to round, and reports each metric as its
median over the rounds; ``p50_ms`` pools the samples of all rounds.
``--smoke`` makes that one round at scale 0.002, and ``--trace`` one
traced round.  ``bench/compare.py`` compares two such files.  See
bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Optional, Sequence

from stats import median, quartiles

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = 20150222
FULL_ROUNDS = 8
#: Seconds each workload measures per round of a full run, and in smoke.
FULL_SECONDS = 6.0
SMOKE_SECONDS = 4.0
#: What a miss (a failed request) reads as once the median lands on it.
MISS_MS = 1e9


def load_catalogue() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end(detail: dict[str, Any]) -> dict[str, float]:
    """The end-to-end metrics of one run's detail record."""
    return {"setup_s": median(detail["setup_s"]),
            "tasks_per_s": detail["tasks_per_s"],
            "p50_ms": median(detail["latencies_ms"]),
            "peak_rss_mb": detail["peak_rss_mb"]}


def _finite(value: float) -> float:
    return value if math.isfinite(value) else MISS_MS


# -- one workload ------------------------------------------------------------


def run_one(args: argparse.Namespace, catalogue: dict[str, Any]) -> int:
    # Measure this checkout's program, never an installed copy.
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    options = workloads.Options(
        root=ROOT, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), smoke=args.smoke)
    options.out.mkdir(parents=True, exist_ok=True)
    calib_ms = workloads.calibrate_ms()
    preflight = workloads.preflight(ROOT)
    outcome = workloads.WORKLOADS[args.workload](options)
    outcome.checks.update(preflight)
    outcome.info["calib_ms"] = calib_ms

    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": bool(args.trace),
              "smoke": args.smoke, "correct": outcome.correct,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "checks": outcome.checks, "digest": outcome.digest,
              "flags": outcome.flags, "info": outcome.info,
              "setup_s": outcome.setup_s,
              "latencies_ms": outcome.latencies_ms,
              "tasks_per_s": outcome.tasks_per_s,
              "peak_rss_mb": outcome.peak_rss_mb,
              "layers": outcome.layers}
    if args.detail:
        args.detail.write_text(json.dumps(detail))

    if args.trace:
        specs = catalogue["per_layer"]
        unknown = set(outcome.layers) - {spec["name"] for spec in specs}
        if unknown:
            raise KeyError(f"layers missing from BENCHMARK.json: "
                           f"{sorted(unknown)}")
        values = {spec["name"]: outcome.layers.get(spec["name"], 0.0)
                  for spec in specs}
    else:
        specs = catalogue["end_to_end"]
        values = end_to_end(detail)
    for name, value in outcome.checks.items():
        if not value:
            print(f"bench: gate {name} failed", file=sys.stderr)
    for flag in outcome.flags:
        print(f"bench: {flag}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome.correct, "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {spec["name"]: {"value": _finite(values[spec["name"]]),
                                   "unit": spec["unit"]}
                    for spec in specs}}))
    return 0 if outcome.correct else 1


# -- every workload, interleaved ----------------------------------------------


def _metrics(details: list[dict[str, Any]],
             catalogue: dict[str, Any]) -> dict[str, Any]:
    """Each end-to-end metric's median and quartiles over the rounds;
    ``p50_ms`` is the median of the samples pooled from all rounds."""
    rounds = [end_to_end(detail) for detail in details]
    pooled = [value for detail in details
              for value in detail["latencies_ms"]]
    metrics = {}
    for spec in catalogue["end_to_end"]:
        metric = spec["name"]
        per_round = [values[metric] for values in rounds]
        q1, mid, q3 = quartiles(per_round)
        entry = {"unit": spec["unit"], "value": mid, "q1": q1,
                 "median": mid, "q3": q3, "rounds": per_round}
        if metric == "p50_ms":
            entry.update(value=_finite(median(pooled)),
                         samples=len(pooled))
        metrics[metric] = entry
    return metrics


def _summarize(details: list[dict[str, Any]],
               catalogue: dict[str, Any]) -> dict[str, Any]:
    """One workload's rounds reduced to metrics and gates."""
    traced = details[0]["trace"]
    digests = [detail["digest"] for detail in details]
    stable = len(set(digests)) == 1
    attempted = sum(detail["attempted"] for detail in details)
    failed = sum(detail["failed"] for detail in details)
    flags = [f"round {index}: {flag}" for index, detail in enumerate(details)
             for flag in detail["flags"]]
    return {
        "correct": stable and all(detail["correct"] for detail in details),
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "digests": digests, "digest_stable": stable,
        "failed_gates": sorted({gate for detail in details
                                for gate, ok in detail["checks"].items()
                                if not ok}),
        "inputs": details[0]["info"],
        "calib_ms": [detail["info"]["calib_ms"] for detail in details],
        "flags": flags,
        "metrics": {} if traced else _metrics(details, catalogue),
        "layers": details[0]["layers"] if traced else {},
    }


def run_all(args: argparse.Namespace, catalogue: dict[str, Any]) -> int:
    names = [workload["name"] for workload in catalogue["workloads"]]
    rounds = 1 if args.smoke or args.trace else args.rounds
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    details: dict[str, list[dict[str, Any]]] = {name: [] for name in names}
    started = time.perf_counter()
    for index in range(rounds):
        shift = index % len(names)
        for name in names[shift:] + names[:shift]:
            detail_path = out_dir / f"detail-{name}-{index}.json"
            detail_path.unlink(missing_ok=True)
            command = [sys.executable, str(BENCH_DIR / "run.py"),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(int(bool(args.trace))),
                       "--detail", str(detail_path)]
            if args.smoke:
                command.append("--smoke")
            print(f"bench: round {index + 1}/{rounds} {name}",
                  file=sys.stderr, flush=True)
            code = subprocess.run(command, cwd=ROOT,
                                  stdout=subprocess.DEVNULL).returncode
            if not detail_path.exists():
                print(f"bench: {name} exited {code} without a result",
                      file=sys.stderr)
                return 1
            details[name].append(json.loads(detail_path.read_text()))
            detail_path.unlink()

    report = {
        "benchmark": "bench/run.py", "seed": args.seed, "rounds": rounds,
        "seconds": args.seconds, "smoke": args.smoke,
        "trace": bool(args.trace),
        "wall_s": time.perf_counter() - started,
        "host": {"cpu_count": os.cpu_count(),
                 "python": platform.python_version(),
                 "machine": platform.machine()},
        "workloads": {name: _summarize(details[name], catalogue)
                      for name in names},
    }
    report["correct"] = all(workload["correct"]
                            for workload in report["workloads"].values())
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(render(report, catalogue))
    return 0 if report["correct"] else 1


def render(report: dict[str, Any], catalogue: dict[str, Any]) -> str:
    """Every metric by name with its unit, one workload per block."""
    lines = [f"seed {report['seed']}, {report['rounds']} round(s), "
             f"{report['wall_s']:.0f} s"]
    for name, workload in report["workloads"].items():
        verdict = "ok" if workload["correct"] else \
            f"FAILED {', '.join(workload['failed_gates']) or 'digest'}"
        lines.append(f"\n{name}: {verdict}, error_rate "
                     f"{workload['error_rate']:.4g} "
                     f"({workload['failed']}/{workload['attempted']})")
        for metric, entry in workload["metrics"].items():
            extra = f"  n={entry['samples']}" if "samples" in entry \
                else ""
            lines.append(f"  {metric:<14} {entry['value']:>12.6g} "
                         f"{entry['unit']:<8} q1 {entry['q1']:.6g}  "
                         f"q3 {entry['q3']:.6g}{extra}")
        units = {spec["name"]: spec["unit"]
                 for spec in catalogue["per_layer"]}
        for metric, value in workload["layers"].items():
            lines.append(f"  {metric:<34} {value:>14.6g} {units[metric]}")
        lines.extend(f"  flag: {flag}" for flag in workload["flags"])
    return "\n".join(lines)


def build_parser(catalogue: dict[str, Any]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Run the benchmark: one workload, or every workload "
                    "interleaved over rounds.")
    parser.add_argument("--workload", default=None,
                        choices=[w["name"] for w in catalogue["workloads"]],
                        help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long each workload run measures "
                             "(default: run_seconds of BENCHMARK.json "
                             f"for one workload, {FULL_SECONDS:g} per "
                             "round otherwise)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report the per-layer metrics of one traced "
                             "run instead of the end-to-end metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="scale 0.002 and one round")
    parser.add_argument("--rounds", type=int, default=FULL_ROUNDS)
    parser.add_argument("--out", type=Path, default=None,
                        help="write the full run's report here")
    parser.add_argument("--detail", type=Path, default=None,
                        help=argparse.SUPPRESS)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        catalogue = load_catalogue()
    except (OSError, ValueError) as error:
        print(f"bench: cannot read BENCHMARK.json: {error}",
              file=sys.stderr)
        return 2
    args = build_parser(catalogue).parse_args(argv)
    if args.seconds is None:
        args.seconds = catalogue["run_seconds"] if args.workload else \
            SMOKE_SECONDS if args.smoke else FULL_SECONDS
    if args.workload is None:
        return run_all(args, catalogue)
    try:
        return run_one(args, catalogue)
    except Exception:   # noqa: BLE001 - report, exit non-zero, no result
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
