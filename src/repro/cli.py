"""The ``repro`` command-line interface.

Subcommands mirror the paper's workflow::

    repro generate    synthesise a workload week and save its traces
    repro cloud       run the cloud system over a week (section 4)
    repro ap          replay the smart-AP benchmark (section 5)
    repro odr         ask the ODR middleware for one decision (section 6)
    repro experiments regenerate every paper comparison (EXPERIMENTS.md)
    repro figures     render the paper's figures as SVG

Every subcommand is also reachable as ``python -m repro <subcommand>``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.sim.clock import MINUTE, to_gbps


def _add_scale(parser: argparse.ArgumentParser,
               default: float = 0.01) -> None:
    parser.add_argument("--scale", type=float, default=default,
                        help="fraction of the real week to synthesise "
                             f"(default {default})")
    parser.add_argument("--seed", type=int, default=20150222)


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=None,
                        help="fan the run out over N worker processes "
                             "(recovery.durable_map); results are "
                             "independent of N (use --jobs 1 for the "
                             "fan-out without parallelism)")


def _add_trace_format(parser: argparse.ArgumentParser,
                      write: bool = False) -> None:
    if write:
        parser.add_argument("--trace-format",
                            choices=("jsonl", "columnar"),
                            default="jsonl",
                            help="trace file format: jsonl (default; "
                                 "greppable, gzip-able) or columnar "
                                 "(memory-mapped .col files, much "
                                 "faster to replay)")
    else:
        parser.add_argument("--trace-format",
                            choices=("auto", "jsonl", "columnar"),
                            default="auto",
                            help="format of the --trace directory "
                                 "(default: auto-detect; columnar "
                                 ".col files win when present)")


def _add_recovery(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--run-dir", type=Path, default=None,
                        metavar="DIR",
                        help="make the run durable: checkpoint every "
                             "finished worker's result into DIR "
                             "(manifest + pickle + SHA-256) so a crashed "
                             "or interrupted run can be resumed")
    parser.add_argument("--resume", type=Path, default=None,
                        metavar="DIR",
                        help="resume the run directory DIR: verify its "
                             "manifest, reuse every valid checkpoint, "
                             "and recompute only missing/corrupt "
                             "results (the merged result is "
                             "bit-identical to an uninterrupted run)")
    parser.add_argument("--shard-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-worker watchdog: a worker stuck "
                             "longer than this is killed and its "
                             "payload requeued")
    parser.add_argument("--max-shard-retries", type=int, default=None,
                        metavar="N",
                        help="requeue a lost payload at most N times "
                             "before the run aborts as "
                             "resumable-failed (default 2)")


def _recovery_config(args: argparse.Namespace):
    """Build a RecoveryConfig from --run-dir/--resume flags (or None)."""
    run_dir = args.resume or args.run_dir
    if run_dir is None:
        if args.shard_timeout is not None or \
                args.max_shard_retries is not None:
            print("error: --shard-timeout/--max-shard-retries need "
                  "--run-dir or --resume", file=sys.stderr)
            raise SystemExit(2)
        return None
    from repro.recovery import RecoveryConfig
    from repro.recovery.durable import DEFAULT_MAX_RETRIES
    retries = args.max_shard_retries \
        if args.max_shard_retries is not None else DEFAULT_MAX_RETRIES
    return RecoveryConfig(run_dir=Path(run_dir),
                          resume=args.resume is not None,
                          shard_timeout=args.shard_timeout,
                          max_shard_retries=retries)


def _add_profile(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--profile", nargs="?", const=True, default=None,
                        type=Path, metavar="PSTATS",
                        help="profile the run with cProfile and dump "
                             "raw stats to PSTATS (default: a .pstats "
                             "file named after the run output; inspect "
                             "with `python -m pstats`)")


def _profile_destination(args: argparse.Namespace) -> Path:
    """Where ``--profile`` without an explicit path dumps its stats."""
    if args.profile is not True:
        return Path(args.profile)
    out = getattr(args, "out", None)
    if out is not None:          # e.g. `generate --out trace` -> trace.pstats
        return Path(str(out) + ".pstats")
    return Path(f"repro-{args.command}.pstats")


def _add_faults(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--faults", type=Path, default=None,
                        metavar="PLAN",
                        help="inject the fault plan (JSON; see "
                             "python -m repro.faults --write-plan) "
                             "into the run")
    parser.add_argument("--no-resilience", action="store_true",
                        help="with --faults: disable the retry/"
                             "failover/checkpoint policies (measure "
                             "raw fault impact)")


def _load_fault_plan(path: Path):
    """The ``--faults`` plan; an unreadable or malformed one is a usage
    error (exit 2), not a traceback."""
    from repro.faults import FaultPlan
    try:
        return FaultPlan.from_file(path)
    except (OSError, ValueError) as error:
        print(f"error: --faults: {error}", file=sys.stderr)
        raise SystemExit(2) from None


def _fault_setup(args: argparse.Namespace, registry):
    """Build (injector, policies) from ``--faults``/``--no-resilience``."""
    if getattr(args, "faults", None) is None:
        return None, None
    from repro.faults import DEFAULT_POLICIES, FaultInjector
    plan = _load_fault_plan(args.faults)
    policies = None if args.no_resilience else DEFAULT_POLICIES
    return FaultInjector(plan, metrics=registry), policies


def _add_metrics(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metrics-out", type=Path, default=None,
                        help="enable the observability subsystem and "
                             "write collected metrics here")
    parser.add_argument("--metrics-format",
                        choices=("jsonl", "prom", "table"), default=None,
                        help="metrics export format (default: jsonl "
                             "with --metrics-out, table to stdout "
                             "otherwise)")


def _metrics_registry(args: argparse.Namespace):
    """A live registry when metrics were requested, else ``NOOP``."""
    from repro.obs import MetricsRegistry, NOOP
    if args.metrics_out is None and args.metrics_format is None:
        return NOOP
    if args.metrics_out is not None:
        # Fail fast (and create parents) before paying for a long
        # simulation that could not write its metrics at the end.
        args.metrics_out.parent.mkdir(parents=True, exist_ok=True)
    return MetricsRegistry()


def _emit_metrics(registry, args: argparse.Namespace) -> None:
    if not registry.enabled:
        return
    import json

    from repro.obs import export
    fmt = args.metrics_format
    if fmt is None:
        fmt = "jsonl" if args.metrics_out is not None else "table"
    if fmt == "jsonl" and args.metrics_out is None:
        for row in registry.to_rows():
            print(json.dumps(row, sort_keys=True))
        return
    rendered = export(registry, fmt, args.metrics_out)
    if args.metrics_out is not None:
        print(rendered if fmt == "jsonl"
              else f"wrote {fmt} metrics to {args.metrics_out}")
    else:
        print(rendered)


def cmd_generate(args: argparse.Namespace) -> int:
    from repro.workload import WorkloadConfig, WorkloadGenerator, \
        save_workload
    if args.trace_format == "columnar" and args.gzip:
        print("error: --gzip applies to jsonl traces only (columnar "
              "blocks must stay memory-mappable)", file=sys.stderr)
        return 2
    config = WorkloadConfig(scale=args.scale, seed=args.seed)
    workload = WorkloadGenerator(config).generate()
    directory = save_workload(workload, args.out, compress=args.gzip,
                              trace_format=args.trace_format)
    print(f"wrote {len(workload.requests)} requests, "
          f"{len(workload.catalog)} files, {len(workload.users)} users "
          f"to {directory} ({args.trace_format})")
    return 0


def _load_or_generate(args: argparse.Namespace):
    from repro.workload import WorkloadConfig, WorkloadGenerator, \
        load_workload
    if getattr(args, "trace", None):
        return load_workload(
            args.trace,
            trace_format=getattr(args, "trace_format", "auto"))
    config = WorkloadConfig(scale=args.scale, seed=args.seed)
    return WorkloadGenerator(config).generate()


def cmd_cloud(args: argparse.Namespace) -> int:
    from repro.cloud import CloudConfig, XuanfengCloud
    from repro.obs import span
    registry = _metrics_registry(args)
    injector, policies = _fault_setup(args, registry)
    workload = _load_or_generate(args)
    config = CloudConfig(scale=workload.config.scale,
                         collaborative_cache=not args.no_cache,
                         privileged_paths=not args.no_privileged_paths)
    with span(registry, "cloud_run", scale=workload.config.scale):
        result = XuanfengCloud(config, metrics=registry,
                               faults=injector,
                               policies=policies).run(workload)
    if injector is not None:
        board = injector.scoreboard()
        print(f"faults:           {board['injected']} injected, "
              f"{board['impacts']} impacts, {board['retries']} retries, "
              f"{board['failovers']} failovers, "
              f"{board['recoveries']} recoveries, "
              f"{board['aborts']} aborts")
    fetch = result.fetch_speed_cdf()
    pre = result.attempt_speed_cdf()
    print(f"tasks:            {len(result.tasks)}")
    print(f"cache hit ratio:  {result.cache_hit_ratio:.1%}")
    print(f"request failures: {result.request_failure_ratio:.1%}")
    print(f"pre-dl speed:     median {pre.median / 1e3:.0f} KBps, "
          f"mean {pre.mean / 1e3:.0f} KBps")
    print(f"fetch speed:      median {fetch.median / 1e3:.0f} KBps, "
          f"mean {fetch.mean / 1e3:.0f} KBps")
    print(f"impeded fetches:  {result.impeded_fetch_share:.1%}")
    print(f"rejected fetches: {result.rejection_ratio:.2%}")
    peak = result.bandwidth_series().max()
    print(f"peak burden:      "
          f"{to_gbps(peak) / workload.config.scale:.1f} Gbps "
          f"(rescaled)")
    _emit_metrics(registry, args)
    return 0


def cmd_ap(args: argparse.Namespace) -> int:
    from repro.ap import ApBenchmarkRig
    from repro.obs import span
    from repro.workload import sample_benchmark_requests
    registry = _metrics_registry(args)
    recovery = _recovery_config(args)
    injector, policies = _fault_setup(args, registry)
    workload = _load_or_generate(args)
    sample = sample_benchmark_requests(workload, args.sample)
    if args.jobs is not None or recovery is not None:
        if injector is not None:
            print("error: --faults replays sequentially (per-AP fault "
                  "clocks); drop --jobs/--run-dir", file=sys.stderr)
            return 2
        from repro.ap.benchrig import sharded_ap_replay
        jobs = args.jobs if args.jobs is not None else 1
        requests_trace = None
        if getattr(args, "trace", None):
            # A columnar trace lets every AP worker memory-map its own
            # slice instead of receiving pickled request objects.
            from repro.workload.columnar import ColumnarTrace
            from repro.workload.traceio import REQUESTS_FILE, \
                _columnar_name
            columnar = Path(args.trace) / _columnar_name(REQUESTS_FILE)
            if columnar.exists():
                positions = {task_id: row for row, task_id in enumerate(
                    ColumnarTrace(columnar).column("task_id").tolist())}
                requests_trace = (
                    columnar,
                    [positions[request.task_id.encode()]
                     for request in sample])
        started = time.perf_counter()
        with span(registry, "ap_replay", sample=len(sample)):
            report, outcome = sharded_ap_replay(
                workload.catalog, sample, jobs=jobs,
                metrics=registry, recovery=recovery,
                requests_trace=requests_trace)
        workers = len(outcome.results)
        print(f"parallel replay:   {workers} AP workers, "
              f"{jobs} jobs, {time.perf_counter() - started:.1f}s wall")
        if recovery is not None:
            from repro.perf.golden import ap_payload, digest
            print(f"reused AP shards:  "
                  f"{len(outcome.reused)}/{workers} "
                  f"(retries: {outcome.retries})")
            print(f"merged digest:     "
                  f"{digest(ap_payload(report.results))}")
    else:
        with span(registry, "ap_replay", sample=len(sample)):
            report = ApBenchmarkRig(
                workload.catalog, metrics=registry, faults=injector,
                policies=policies).replay(sample)
        if injector is not None:
            board = injector.scoreboard()
            print(f"faults:            {board['impacts']} impacts, "
                  f"{board['retries']} retries, "
                  f"{board['recoveries']} recoveries, "
                  f"{board['aborts']} aborts")
    speed = report.speed_cdf()
    delay = report.delay_cdf()
    print(f"replayed:          {len(report.results)} requests on "
          f"{len(report.ap_names())} APs")
    print(f"failure ratio:     {report.failure_ratio:.1%} "
          f"(unpopular: {report.unpopular_failure_ratio:.1%})")
    print(f"pre-dl speed:      median {speed.median / 1e3:.0f} KBps, "
          f"mean {speed.mean / 1e3:.0f} KBps")
    print(f"pre-dl delay:      median {delay.median / MINUTE:.0f} min, "
          f"mean {delay.mean / MINUTE:.0f} min")
    print("failure causes:")
    for cause, share in report.failure_cause_breakdown().items():
        print(f"  {cause:<26s}{share:6.1%}")
    _emit_metrics(registry, args)
    return 0


def cmd_odr(args: argparse.Namespace) -> int:
    from repro.cloud.database import ContentDatabase
    from repro.core import OdrService
    from repro.core.service import parse_link
    from repro.core.webapp import build_context
    from repro.netsim.ip import IpAllocator
    from repro.netsim.isp import ISP

    # The auxiliary info goes through the web app's intake, as if
    # submitted on the front page; bad input is a usage error (exit 2).
    fields = {"bandwidth_mbps": args.bandwidth, "ap": args.ap,
              "device": args.device, "filesystem": args.filesystem}
    try:
        link = parse_link(args.link)
        context, _cookie = build_context(
            lambda key, default="": str(fields[key]) if fields[key]
            else default, IpAllocator().allocate(ISP(args.isp)))
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    file_id = link[1]
    database = ContentDatabase()
    if args.trace is not None:
        # Warm the database with a real week's demand so the decision
        # reflects observed popularity, not just --popularity.
        from repro.workload import load_workload
        workload = load_workload(args.trace,
                                 trace_format=args.trace_format)
        for request in workload.requests:
            database.record_request(request.file_id, request.file_size,
                                    request.request_time)
    for when in range(args.popularity):
        database.record_request(file_id, 1e8, float(when))
    database.set_cached(file_id, args.cached)

    from repro.obs import span
    registry = _metrics_registry(args)
    with span(registry, "odr_decision", link=args.link):
        response = OdrService(database).handle_request(context, link)
    registry.counter("repro_odr_decisions_total",
                     action=response.decision.action.value).inc()
    print(response.explanation)
    _emit_metrics(registry, args)
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.context import ExperimentContext
    from repro.experiments.runner import render_experiments_md
    from repro.experiments.scorecard import Scorecard, evaluate_claims
    from repro.obs import NOOP, MetricsRegistry
    recovery = _recovery_config(args)
    metrics = NOOP if args.metrics_out is None else MetricsRegistry()
    if args.jobs is not None or recovery is not None:
        # The parallel group runner: same document for any --jobs value
        # (each driver group rebuilds its artefacts in a fresh context,
        # so this path's numbers differ slightly from the shared-context
        # sequential path where later drivers see mutated artefacts).
        # --run-dir/--resume route here too: group checkpoints belong
        # to this path, where every group is a self-contained worker.
        from repro.experiments.runner import run_parallel
        reports, claims, _timings, failures = run_parallel(
            args.scale, args.seed, jobs=args.jobs or 1, metrics=metrics,
            recovery=recovery)
        context = ExperimentContext(scale=args.scale, seed=args.seed,
                                    metrics=metrics)
        context.failures.extend(failures)
    else:
        from repro.experiments import default_context
        from repro.experiments.runner import run_all
        context = default_context(scale=args.scale, seed=args.seed)
        if metrics.enabled:
            context.metrics = metrics
        reports = run_all(context)
        claims = evaluate_claims(context)
    document = render_experiments_md(reports, args.scale,
                                     failures=context.failures)

    scorecard = Scorecard(reports=reports, claims=claims)
    document += "\n## Reproduction scorecard\n\n```\n" + \
        scorecard.render() + "\n```\n"
    if args.output is not None:
        # Atomic so a crash mid-write can never corrupt the previous
        # good EXPERIMENTS.md.
        from repro.recovery.atomic import atomic_write_text
        atomic_write_text(args.output, document)
        print(f"wrote {args.output} ({len(reports)} experiments)")
    else:
        print(document)
    if args.metrics_out is not None:
        from repro.obs import export
        fmt = args.metrics_format or "jsonl"
        export(metrics, fmt, args.metrics_out)
        print(f"wrote {fmt} metrics to {args.metrics_out}")
    if context.failures:
        for failure in context.failures:
            print(f"EXPERIMENT FAILED {failure.experiment_id}: "
                  f"{failure.error}", file=sys.stderr)
        return 1
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments.figures import main as figures_main
    return figures_main(["--scale", str(args.scale),
                         "--outdir", str(args.outdir)])


#: Subcommands that own their parser: ``repro <name> ...`` forwards
#: argv verbatim to ``python -m <module>``'s ``main`` before ``repro``'s
#: parser runs, so every flag is declared once.
_FORWARDED = {
    "serve": ("repro.serve",
              "run the ODR web service (like odr.thucloud.com)"),
    "backends": ("repro.backends",
                 "compare (backend set, policy) combinations on one "
                 "deterministic trace"),
    "loadgen": ("repro.loadgen", "replay the trace as live HTTP load"),
}


def cmd_runs_gc(args: argparse.Namespace) -> int:
    from repro.recovery.gc import collect, discover_runs, plan_gc
    runs = discover_runs(args.root)
    if not runs:
        print(f"runs gc: no run directories under {args.root}")
        return 0
    kept, doomed = plan_gc(runs, keep_last=args.keep_last,
                           stale_hours=args.stale_hours)
    for run in kept:
        print(f"  keep   {run.path}  [{run.status}]")
    verb = "delete" if args.delete else "would delete"
    for run in doomed:
        print(f"  {verb} {run.path}  [{run.status}] "
              f"({run.bytes / 1e6:.1f} MB)")
    reclaimed = collect(doomed, delete=args.delete)
    if doomed:
        print(f"runs gc: {verb} {len(doomed)} run(s), "
              f"{reclaimed / 1e6:.1f} MB"
              + ("" if args.delete
                 else " (dry run; pass --delete to reclaim)"))
    else:
        print("runs gc: nothing to collect")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Offline Downloading in China: A "
                    "Comparative Study' (IMC 2015)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate", help="synthesise and save a workload week")
    _add_scale(generate)
    generate.add_argument("--out", type=Path, default=Path("trace"))
    generate.add_argument("--gzip", action="store_true",
                          help="write gzipped trace files (*.jsonl.gz)")
    _add_trace_format(generate, write=True)
    _add_profile(generate)
    generate.set_defaults(func=cmd_generate)

    cloud = subparsers.add_parser(
        "cloud", help="run the cloud system over a week")
    _add_scale(cloud)
    cloud.add_argument("--trace", type=Path, default=None,
                       help="load a saved workload instead of "
                            "generating one")
    _add_trace_format(cloud)
    cloud.add_argument("--no-cache", action="store_true",
                       help="disable collaborative caching (ablation)")
    cloud.add_argument("--no-privileged-paths", action="store_true",
                       help="disable ISP-aware path selection (ablation)")
    _add_faults(cloud)
    _add_metrics(cloud)
    _add_profile(cloud)
    cloud.set_defaults(func=cmd_cloud)

    ap = subparsers.add_parser(
        "ap", help="replay the smart-AP benchmark")
    _add_scale(ap)
    _add_jobs(ap)
    ap.add_argument("--trace", type=Path, default=None)
    _add_trace_format(ap)
    ap.add_argument("--sample", type=int, default=1000)
    _add_recovery(ap)
    _add_faults(ap)
    _add_metrics(ap)
    _add_profile(ap)
    ap.set_defaults(func=cmd_ap)

    odr = subparsers.add_parser(
        "odr", help="ask ODR for one redirection decision")
    odr.add_argument("link", help="HTTP/FTP/magnet/ed2k link")
    odr.add_argument("--popularity", type=int, default=0,
                     help="observed weekly request count of the file")
    odr.add_argument("--trace", type=Path, default=None,
                     help="warm the content database from a saved "
                          "workload trace before deciding")
    _add_trace_format(odr)
    odr.add_argument("--cached", action="store_true",
                     help="the file is in the cloud cache")
    odr.add_argument("--bandwidth", type=float, default=None,
                     help="access bandwidth in Mbps")
    odr.add_argument("--isp", default="unicom",
                     choices=["unicom", "telecom", "mobile", "cernet",
                              "other"])
    odr.add_argument("--ap", choices=["hiwifi", "miwifi", "newifi"],
                     default=None)
    odr.add_argument("--device",
                     choices=["sata", "sd", "usb-flash", "usb-hdd"],
                     default=None)
    odr.add_argument("--filesystem", choices=["fat", "ntfs", "ext4"],
                     default=None)
    _add_metrics(odr)
    _add_profile(odr)
    odr.set_defaults(func=cmd_odr)

    experiments = subparsers.add_parser(
        "experiments", help="regenerate every paper comparison")
    _add_scale(experiments, default=0.02)
    _add_jobs(experiments)
    experiments.add_argument("--output", type=Path, default=None)
    _add_recovery(experiments)
    _add_metrics(experiments)
    experiments.set_defaults(func=cmd_experiments)

    figures = subparsers.add_parser(
        "figures", help="render the paper's figures as SVG")
    _add_scale(figures, default=0.02)
    figures.add_argument("--outdir", type=Path,
                         default=Path("figures"))
    figures.set_defaults(func=cmd_figures)

    for name, (module, summary) in _FORWARDED.items():
        # Stubs, so ``repro --help`` lists them; main() never parses
        # their arguments here.
        subparsers.add_parser(
            name, add_help=False,
            help=f"{summary} (see python -m {module} --help)")

    runs = subparsers.add_parser(
        "runs", help="manage durable run directories")
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    gc = runs_sub.add_parser(
        "gc", help="collect complete and stale run directories "
                   "(dry run unless --delete)")
    gc.add_argument("--root", type=Path, default=Path("runs"),
                    help="directory holding run dirs "
                         "(default %(default)s)")
    gc.add_argument("--keep-last", type=int, default=3,
                    help="retain the N newest eligible runs "
                         "(default %(default)s)")
    gc.add_argument("--stale-hours", type=float, default=24.0,
                    help="non-complete runs younger than this are "
                         "resumable and never collected "
                         "(default %(default)s)")
    gc.add_argument("--delete", action="store_true",
                    help="actually delete (default is a dry run)")
    gc.set_defaults(func=cmd_runs_gc)

    return parser


def _dispatch(args: argparse.Namespace) -> int:
    """Run a subcommand, mapping recovery outcomes to exit codes.

    An interrupted durable run exits 130 (like a plain Ctrl-C) and a
    lost-shard abort exits 3 -- both after printing how to ``--resume``
    the checkpointed run directory; run-dir misuse exits 2.
    """
    from repro.recovery import RunDirError, RunInterrupted, \
        ShardLostError
    try:
        return args.func(args)
    except RunInterrupted as error:
        print(f"interrupted: {error}", file=sys.stderr)
        if error.run_dir is not None:
            print(f"resume with: --resume {error.run_dir}",
                  file=sys.stderr)
        return 130
    except ShardLostError as error:
        print(f"error: {error}", file=sys.stderr)
        if error.run_dir is not None:
            print("completed shards are checkpointed; resume with: "
                  f"--resume {error.run_dir}", file=sys.stderr)
        return 3
    except RunDirError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _FORWARDED:
        import importlib
        module = importlib.import_module(
            f"{_FORWARDED[argv[0]][0]}.__main__")
        return module.main(argv[1:])
    args = build_parser().parse_args(argv)
    if getattr(args, "profile", None) is None:
        return _dispatch(args)
    import cProfile
    destination = _profile_destination(args)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        status = _dispatch(args)
    finally:
        profiler.disable()
        destination.parent.mkdir(parents=True, exist_ok=True)
        profiler.dump_stats(destination)
        print(f"profile written to {destination} "
              f"(inspect with `python -m pstats {destination}`)",
              file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
