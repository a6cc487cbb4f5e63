"""The benchmark's four workloads and the correctness gates they check.

Each workload function takes :class:`Options` and returns an
:class:`Outcome`: set-up times, one time per operation, throughput, peak
memory, operations attempted and failed, and the gates it checked.  With
``options.trace`` it instead makes one traced run through a live
``repro.obs.MetricsRegistry`` and fills ``Outcome.layers``.

Every layer is measured from outside the program: a span wraps a call
into one of its public functions, and counters come from the
``metrics=`` registry those functions already accept.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import os
import resource
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

import serving
from stats import median, percentile

from repro.cloud import CloudConfig, XuanfengCloud
from repro.core.webapp import OdrWebApp
from repro.experiments.context import ExperimentContext
from repro.experiments.runner import ORDER, run_all
from repro.experiments.scorecard import evaluate_claims
from repro.faults import DEFAULT_POLICIES, FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.policies import ResiliencePolicies
from repro.loadgen.trace import workload_paths
from repro.obs import NOOP, AnyRegistry, MetricsRegistry, span, write_jsonl
from repro.paper import TOTAL_TASKS
from repro.perf import golden
from repro.sim.randomness import RngFactory
from repro.workload.catalog import FileCatalog
from repro.workload.generator import WorkloadConfig, WorkloadGenerator
from repro.workload.traceio import load_workload, save_workload

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_SEED = 20150222

#: Scale of each workload's week.  0.02 is the smallest scale at which
#: the per-ISP upload pools admit enough concurrent flows to behave like
#: the paper's (see repro.experiments.context); the faulted week and the
#: experiments pass use 0.01 so that one pass stays within seconds.
SCALES = {"cloud_week": 0.02, "cloud_week_faulted": 0.01,
          "experiments_pass": 0.01, "serve_decide": 0.005}
SMOKE_SCALE = 0.002
#: Week sizes vary ~15% from seed to seed at every scale, and a replay's
#: time and memory follow the size.  So a run draws its week from the
#: candidate seeds ``--seed`` stands for, keeping the first whose size
#: lies within this share of the paper's week (``TOTAL_TASKS``) scaled.
WEEK_SIZE_BAND = 0.025
WEEK_CANDIDATES = 32
WEEK_SEED_STRIDE = 1_000_003
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Open-loop rate of serving phase A (~15% of the single worker's
#: closed-loop capacity on two vCPUs) and of the traced knee probe.
OPEN_LOOP_RPS = 400.0
PROBE_RPS = 1600.0
#: A serving run whose generator sent a request later than this is
#: flagged.
LAG_FLAG_MS = 10.0
#: Iterations of the host-speed sampling loop (~1 ms on the reference
#: host, a 2.1 GHz Xeon VM with 2 vCPUs), how often a timed operation is
#: interrupted to run it, and its time on the reference host.
SAMPLE_LOOP = 16_000
SAMPLE_INTERVAL_S = 0.05
REFERENCE_SAMPLE_MS = 1.0
#: Samples taken just before and just after work done by a child process.
BOUNDARY_SAMPLES = 100
#: Each boot's closed loop is timed as this many windows, each by the
#: server's CPU time and scaled by this many samples taken just before
#: and just after it.  The host's speed moves within a second, so short
#: windows scaled one by one track it where one long phase scaled at its
#: ends does not.
CAPACITY_WINDOWS = 4
WINDOW_SAMPLES = 10
#: Iterations of the ~50 ms loop behind the ``host.calib_ms`` diagnostic.
CALIBRATION_LOOP = 800_000
#: Paths replayed through the in-process ``OdrWebApp`` per timing.
DECIDE_SAMPLE = 2000

#: Output digests of the default ``--seed``, per workload and scale.  Its
#: weeks are those of program seed 23150231 (82,259 tasks at 0.02, 41,627
#: at 0.01) and 35150267 (8,308 at 0.002).  The cloud weeks pin
#: ``digest(cloud_payload(result))``, which any change to a replayed task
#: or flow moves; the experiments pass pins every measured value and
#: headline claim.
PINNED_DIGESTS = {
    ("cloud_week", 0.02):
        "3877253aed840cd447c49f07e3727b9bece6fca297cc2a844797c099bf9d30f7",
    ("cloud_week", 0.002):
        "5323a69e6e065c4ed756e6c6d6adc4f1c6437d71a879487fa3c4eb9ea09a81e7",
    ("cloud_week_faulted", 0.01):
        "fc04fcdae882503c4817bddee3d2c14a20443a55a1eef3870dc2d5b468a1a425",
    ("cloud_week_faulted", 0.002):
        "f6df2309319209141bd2dc7aac541b9ce90886910ae772fd317812fe79a46f06",
    ("experiments_pass", 0.01):
        "bf746238388914617b0faaa29baa7ee3cbd836af97240218d0e53374b7a57edf",
    ("experiments_pass", 0.002):
        "acc525b486fb802da6fa4faf70069adc315b7a241e721ede7e17856612502908",
}


@dataclass
class Options:
    root: Path
    seed: int
    seconds: float
    trace: bool = False
    smoke: bool = False

    def week(self, workload: str) -> tuple[float, int]:
        """(scale, program seed) of the workload's week."""
        scale = SMOKE_SCALE if self.smoke else SCALES[workload]
        return scale, week_seed(self.seed, scale)

    @property
    def out(self) -> Path:
        return self.root / "bench" / "out"

    def trace_path(self, workload: str) -> Path:
        return self.out / f"trace-{workload}-{self.seed}.jsonl"


@dataclass
class Outcome:
    """What one run of one workload measured and checked."""

    setup_s: list[float] = field(default_factory=list)
    #: Milliseconds per task: each pass's time over its tasks on the
    #: replays, each request's latency on serving (``inf`` for a miss).
    latencies_ms: list[float] = field(default_factory=list)
    tasks_per_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    digest: Optional[str] = None
    layers: dict[str, float] = field(default_factory=dict)
    info: dict[str, Any] = field(default_factory=dict)
    flags: list[str] = field(default_factory=list)

    def gate(self, name: str, ok: bool) -> bool:
        """Record one correctness gate; a gate fails if any check fails."""
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        return bool(ok)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


def _loop_ms(iterations: int,
             clock: Callable[[], float] = time.perf_counter) -> float:
    """Time of a fixed pure-Python loop: how fast the host runs now."""
    started = clock()
    total = 0
    for index in range(iterations):
        total += index * index % 7
    return (clock() - started) * 1e3


def week_seed(seed: int, scale: float) -> int:
    """The program seed of the week ``seed`` stands for at ``scale``.

    Candidates are ``seed + k * WEEK_SEED_STRIDE``.  A week has one
    request per unit of its catalog's weekly demand, so its size is
    known from the catalog alone, drawn as ``WorkloadGenerator`` draws
    it.  The first candidate within ``WEEK_SIZE_BAND`` wins, else the
    closest.
    """
    target = TOTAL_TASKS * scale
    file_count = WorkloadConfig(scale=scale).file_count
    best = (math.inf, seed)
    for k in range(WEEK_CANDIDATES):
        candidate = seed + k * WEEK_SEED_STRIDE
        catalog = FileCatalog()
        catalog.generate(file_count, RngFactory(candidate).stream("catalog"))
        error = abs(sum(record.weekly_demand for record in catalog)
                    / target - 1.0)
        if error <= WEEK_SIZE_BAND:
            return candidate
        best = min(best, (error, candidate))
    return best[1]


def calibrate_ms() -> float:
    return median([_loop_ms(CALIBRATION_LOOP) for _ in range(3)])


class HostTimer:
    """Times operations and scales each one to the reference host speed.

    The host's speed drifts by up to 2x, within seconds and over
    minutes, and CPU time drifts with wall time, so the VM cannot see
    it.  ``SAMPLE_LOOP`` iterations of a fixed loop read the speed: the
    operation's time times ``REFERENCE_SAMPLE_MS`` over the loop's mean
    time is what it would take on the reference host.

    Work done in this process is sampled while it runs: ``SIGALRM``
    interrupts it every ``SAMPLE_INTERVAL_S`` to run the loop (pass time
    correlated 0.93-0.98 with the mean sample; the samples add ~2%).
    Work done by a child process (``sampled=False``) is read just before
    and just after instead, because the two vCPUs share one core and
    samples taken meanwhile would measure their contention with the
    child.  Each operation starts after a full collection, so garbage
    left by the one before is not charged to it.

    With ``cpu_clock`` (a child's CPU seconds) the operation is timed by
    that clock and the samples by this thread's CPU time.  Both then
    leave out the time the host runs other guests on the vCPUs.  A
    server's closed loop waits on wake-ups across processes, which such
    pauses stretch far more than they stretch the loop.
    """

    def __init__(self, boundary_samples: int = BOUNDARY_SAMPLES) -> None:
        self.boundary_samples = boundary_samples
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.speed_ms: list[float] = []
        self._started = time.perf_counter()

    @contextmanager
    def measure(self, sampled: bool = True,
                cpu_clock: Optional[Callable[[], float]] = None
                ) -> Iterator[None]:
        clock = cpu_clock or time.perf_counter
        loop_clock = time.perf_counter if cpu_clock is None \
            else time.thread_time
        samples: list[float] = []

        def sample(signum: int, frame: Any) -> None:
            samples.append(_loop_ms(SAMPLE_LOOP, loop_clock))

        gc.collect()
        if sampled:
            previous = signal.signal(signal.SIGALRM, sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                             SAMPLE_INTERVAL_S)
        else:
            samples += [_loop_ms(SAMPLE_LOOP, loop_clock)
                        for _ in range(self.boundary_samples)]
        begun = clock()
        try:
            yield
        finally:
            raw = clock() - begun
            if sampled:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        if not sampled:
            samples += [_loop_ms(SAMPLE_LOOP, loop_clock)
                        for _ in range(self.boundary_samples)]
        speed = sum(samples) / len(samples) if samples \
            else _loop_ms(SAMPLE_LOOP, loop_clock)
        self.raw.append(raw)
        self.speed_ms.append(speed)
        self.scaled.append(raw * REFERENCE_SAMPLE_MS / speed)

    def another(self, seconds: float) -> bool:
        """Whether one more operation is expected to end within
        ``seconds`` of this timer's start."""
        return time.perf_counter() - self._started + median(self.raw) \
            <= seconds


class Tracer:
    """Spans around calls into the program, each with an id, its
    parent's id and its start offset in seconds."""

    def __init__(self, registry: AnyRegistry):
        self.registry = registry
        self._ids = itertools.count(1)
        self._stack: list[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.registry.enabled:
            yield
            return
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(span_id)
        try:
            with span(self.registry, name, span_id=span_id, parent=parent,
                      start=time.perf_counter() - self._origin):
                yield
        finally:
            self._stack.pop()

    def _spans(self) -> list[dict[str, Any]]:
        return [record for record in self.registry.spans
                if "span_id" in record["attrs"]]

    def seconds(self, name: str) -> float:
        return sum(record["wall_seconds"] for record in self._spans()
                   if record["name"] == name)

    def residual(self, name: str) -> float:
        """Wall time of span ``name`` that none of its children cover."""
        root = next(record for record in self._spans()
                    if record["name"] == name)
        root_id = root["attrs"]["span_id"]
        return root["wall_seconds"] - sum(
            record["wall_seconds"] for record in self._spans()
            if record["attrs"]["parent"] == root_id)


UNTRACED = Tracer(NOOP)


# -- shared helpers --------------------------------------------------------


def preflight(root: Path) -> dict[str, bool]:
    """The program still reproduces two of its own golden digests."""
    pinned = json.loads(
        (root / "tests" / "data" / "golden_digests.json").read_text())
    return {"golden_cloud_replay":
            golden.cloud_replay() == pinned["cloud_replay"],
            "golden_engine_trace":
            golden.engine_trace() == pinned["engine_trace"]}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _generate(scale: float, seed: int):
    return WorkloadGenerator(WorkloadConfig(scale=scale, seed=seed)) \
        .generate()


def _replay_outcome(outcome: Outcome, setup: HostTimer, passes: HostTimer,
                    tasks_per_pass: int, **info: Any) -> Outcome:
    outcome.setup_s = setup.scaled
    outcome.latencies_ms = [seconds / tasks_per_pass * 1e3
                            for seconds in passes.scaled]
    outcome.tasks_per_s = tasks_per_pass / median(passes.scaled)
    outcome.info.update(info, tasks_per_pass=tasks_per_pass,
                        setup_raw_s=setup.raw, pass_s=passes.raw,
                        speed_ms=setup.speed_ms + passes.speed_ms)
    return outcome


def _total(registry: AnyRegistry, name: str) -> float:
    return float(sum(instrument.value for instrument
                     in registry.instruments() if instrument.name == name))


def _sim_layers(registry: AnyRegistry) -> dict[str, float]:
    layers = {f"sim.{name}": _total(registry, f"repro_sim_{name}_total")
              for name in ("events_scheduled", "events_fired",
                           "processes_started", "process_resumes",
                           "interrupts")}
    layers["sim.heap_depth_peak"] = max(
        (instrument.peak for instrument in registry.instruments()
         if instrument.name == "repro_sim_heap_depth"), default=0.0)
    return layers


def _cloud_layers(registry: AnyRegistry, tracer: Tracer,
                  result) -> dict[str, float]:
    attempts = _total(registry, "repro_cloud_predownload_attempts_total")
    failures = _total(registry, "repro_cloud_predownload_failures_total")
    return {
        **_sim_layers(registry),
        "cloud.run_s": tracer.seconds("cloud.run"),
        "cloud.tasks": _total(registry, "repro_cloud_tasks_total"),
        "cloud.fetches": _total(registry, "repro_cloud_fetches_total"),
        "cloud.cache_hit_ratio": result.cache_hit_ratio,
        "cloud.admission_rejects":
            _total(registry, "repro_cloud_admission_rejects_total"),
        "cloud.predownload_attempts": attempts,
        "cloud.predownload_success_ratio":
            1.0 - failures / attempts if attempts else 1.0,
        "transfer.sessions":
            _total(registry, "repro_transfer_sessions_total"),
        "transfer.stagnation_timeouts":
            _total(registry, "repro_transfer_stagnation_timeouts_total"),
    }


def _bench_layers(tracer: Tracer, traced: float,
                  untraced: float) -> dict[str, float]:
    return {"host.calib_ms": calibrate_ms(),
            "bench.trace_overhead_pct": 100.0 * (traced - untraced)
            / untraced,
            "bench.residual_s": tracer.residual("bench.trace")}


# -- cloud_week and cloud_week_faulted -------------------------------------


def _reduce(result) -> tuple:
    """The reductions the paper scorecard reads, as a comparable value."""
    by_class = result.failure_ratio_by_class()
    return (len(result.tasks), result.fetch_speed_cdf().median,
            result.attempt_speed_cdf().median,
            float(result.bandwidth_series().sum()),
            sorted((klass.value, ratio) for klass, ratio in by_class.items()))


def _cloud_pass(trace_dir: Path, scale: float, plan: Optional[FaultPlan],
                metrics: AnyRegistry = NOOP, tracer: Tracer = UNTRACED):
    """Read the saved week, replay it, reduce it: one timed pass."""
    with tracer.span("traceio.read"):
        workload = load_workload(trace_dir)
    with tracer.span("cloud.run"):
        injector = FaultInjector(plan, metrics=metrics) \
            if plan is not None else None
        cloud = XuanfengCloud(
            CloudConfig(scale=scale), metrics=metrics, faults=injector,
            policies=DEFAULT_POLICIES if plan is not None else None)
        result = cloud.run(workload)
    with tracer.span("analysis.reduce"):
        summary = _reduce(result)
    return result, summary, injector


def _check_digest(outcome: Outcome, name: str, scale: float, seed: int,
                  result) -> None:
    """Pin the default seed's output (other seeds have no reference, and
    the digest costs a second per 40k tasks)."""
    if seed == DEFAULT_SEED:
        outcome.digest = golden.digest(golden.cloud_payload(result))
        outcome.gate("pinned_digest",
                     outcome.digest == PINNED_DIGESTS[(name, scale)])


def _cloud(options: Options, name: str) -> Outcome:
    scale, seed = options.week(name)
    plan = FaultPlan.from_file(BENCH_DIR / "chaos_plan.json") \
        if name == "cloud_week_faulted" else None
    outcome = Outcome()
    with tempfile.TemporaryDirectory(dir=options.out) as scratch:
        if options.trace:
            return _trace_cloud(options, name, scale, seed, plan,
                                Path(scratch))
        setup = HostTimer()
        for repeat in range(SETUP_REPEATS):
            trace_dir = Path(scratch) / f"week{repeat}"
            with setup.measure():
                workload = _generate(scale, seed)
                save_workload(workload, trace_dir, trace_format="columnar")
            tasks = len(workload.requests)
            del workload

        passes = HostTimer()
        summaries = []
        while True:
            with passes.measure():
                result, summary, injector = _cloud_pass(trace_dir, scale,
                                                        plan)
            outcome.attempted += 1
            summaries.append(summary)
            if injector is not None and not outcome.gate(
                    "faults_impacted", injector.impacts > 0):
                outcome.failed += 1
            if not passes.another(options.seconds):
                break
            result = injector = None
        # Read before the digest, whose payload is the benchmark's own.
        outcome.peak_rss_mb = _peak_rss_mb()
        outcome.gate("passes_identical",
                     all(summary == summaries[0] for summary in summaries))
        _check_digest(outcome, name, scale, options.seed, result)
    return _replay_outcome(outcome, setup, passes, tasks, scale=scale,
                           week_seed=seed)


def _trace_cloud(options: Options, name: str, scale: float, seed: int,
                 plan: Optional[FaultPlan], scratch: Path) -> Outcome:
    outcome = Outcome()
    save_workload(_generate(scale, seed), scratch / "untraced",
                  trace_format="columnar")
    gc.collect()
    started = time.perf_counter()
    _result, untraced_summary, _injector = _cloud_pass(
        scratch / "untraced", scale, plan)
    untraced = time.perf_counter() - started
    del _result, _injector

    registry = MetricsRegistry()
    tracer = Tracer(registry)
    trace_dir = scratch / "traced"
    gc.collect()
    with tracer.span("bench.trace"):
        with tracer.span("workload.generate"):
            workload = _generate(scale, seed)
        with tracer.span("traceio.write"):
            save_workload(workload, trace_dir, trace_format="columnar")
        tasks = len(workload.requests)
        del workload
        started = time.perf_counter()
        result, summary, injector = _cloud_pass(trace_dir, scale, plan,
                                                registry, tracer)
        traced = time.perf_counter() - started
    outcome.attempted = 2
    outcome.gate("traced_matches_untraced", summary == untraced_summary)
    _check_digest(outcome, name, scale, options.seed, result)
    outcome.layers = {
        "workload.generate_s": tracer.seconds("workload.generate"),
        "workload.requests": float(tasks),
        "traceio.write_s": tracer.seconds("traceio.write"),
        "traceio.read_s": tracer.seconds("traceio.read"),
        "traceio.bytes": float(sum(path.stat().st_size
                                   for path in trace_dir.iterdir())),
        **_cloud_layers(registry, tracer, result),
        "analysis.reduce_s": tracer.seconds("analysis.reduce"),
        **_bench_layers(tracer, traced, untraced),
    }
    if injector is not None:
        board = injector.scoreboard()
        outcome.gate("faults_impacted", board["impacts"] > 0)
        outcome.layers.update({f"faults.{key}": float(value)
                               for key, value in board.items()})
        outcome.layers["faults.recovery_ratio"] = \
            board["recoveries"] / board["impacts"] if board["impacts"] \
            else 0.0
    write_jsonl(tracer.registry, options.trace_path(name))
    return outcome


def cloud_week(options: Options) -> Outcome:
    return _cloud(options, "cloud_week")


def cloud_week_faulted(options: Options) -> Outcome:
    return _cloud(options, "cloud_week_faulted")


# -- experiments_pass ------------------------------------------------------


def _experiments_ok(outcome: Outcome, options: Options, scale: float,
                    context: ExperimentContext, reports: list,
                    claims: list) -> bool:
    """Gate one pass; its digest covers every measured value and claim."""
    held = sum(claim.holds for claim in claims)
    outcome.info.update(drivers=len(reports), claims=len(claims),
                        claims_held=held)
    digest = golden.digest(
        [[report.experiment_id,
          [[row.quantity, row.measured_value]
           for row in report.comparisons]] for report in reports]
        + [[claim.claim, claim.holds] for claim in claims])
    ok = [outcome.gate("no_driver_failures", not context.failures),
          outcome.gate("every_driver_reported", len(reports) == len(ORDER)),
          outcome.gate("passes_identical",
                       outcome.digest in (None, digest))]
    outcome.digest = digest
    if options.seed == DEFAULT_SEED:
        ok.append(outcome.gate(
            "pinned_digest",
            digest == PINNED_DIGESTS[("experiments_pass", scale)]))
        # The headline claims are a property of the default seed at the
        # workload's scale: other seeds, and scale 0.002, hold 10-12 of
        # them, so there they are only recorded.
        if not options.smoke:
            ok.append(outcome.gate("claims_hold", held == len(claims)))
    return all(ok)


def experiments_pass(options: Options) -> Outcome:
    scale, seed = options.week("experiments_pass")
    if options.trace:
        return _trace_experiments(options, scale, seed)
    outcome = Outcome()
    # The pass takes only the scale and seed, so its set-up is starting
    # the program: the interpreter and the drivers' imports.
    setup = HostTimer()
    for _ in range(SETUP_REPEATS):
        with setup.measure(sampled=False):
            subprocess.run([sys.executable, "-c",
                            "import repro.experiments.runner, "
                            "repro.experiments.scorecard"],
                           cwd=options.root, check=True,
                           env=serving.program_env(options.root),
                           stdout=subprocess.DEVNULL)
    passes = HostTimer()
    while True:
        with passes.measure():
            context = ExperimentContext(scale=scale, seed=seed)
            reports = run_all(context)
            claims = evaluate_claims(context)
        outcome.attempted += 1
        outcome.failed += not _experiments_ok(outcome, options, scale,
                                              context, reports, claims)
        tasks = len(context.workload.requests)
        del context, reports, claims
        if not passes.another(options.seconds):
            break
    outcome.peak_rss_mb = _peak_rss_mb()
    # One task is one whole pass: its AP and ODR replays use fixed
    # 1000-request samples, so its cost does not follow the week's size.
    return _replay_outcome(outcome, setup, passes, 1, scale=scale,
                           week_seed=seed, week_tasks=tasks)


def _trace_experiments(options: Options, scale: float,
                       seed: int) -> Outcome:
    outcome = Outcome()
    gc.collect()
    started = time.perf_counter()
    context = ExperimentContext(scale=scale, seed=seed)
    reports = run_all(context)
    claims = evaluate_claims(context)
    untraced = time.perf_counter() - started
    outcome.failed += not _experiments_ok(outcome, options, scale, context,
                                          reports, claims)
    del context, reports, claims

    registry = MetricsRegistry()
    tracer = Tracer(registry)
    context = ExperimentContext(scale=scale, seed=seed, metrics=registry)
    # Build the shared artefacts in the order the drivers would, each in
    # its own span, so the drivers' spans hold only their own analysis.
    gc.collect()
    started = time.perf_counter()
    with tracer.span("bench.trace"):
        with tracer.span("workload.generate"):
            context.warm("workload")
        with tracer.span("cloud.run"):
            context.warm("cloud_result")
        with tracer.span("ap.replay"):
            context.warm("ap_report")
        with tracer.span("core.odr_replay"):
            context.warm("odr_result", "cloud_only_result",
                         "ap_only_result")
        with tracer.span("experiments.drivers"):
            reports = run_all(context)
        with tracer.span("experiments.claims"):
            claims = evaluate_claims(context)
    traced = time.perf_counter() - started
    outcome.attempted = 2
    outcome.failed += not _experiments_ok(outcome, options, scale, context,
                                          reports, claims)
    outcome.layers = {
        "workload.generate_s": tracer.seconds("workload.generate"),
        "workload.requests": float(len(context.workload.requests)),
        **_cloud_layers(registry, tracer, context.cloud_result),
        "ap.replay_s": tracer.seconds("ap.replay"),
        "core.odr_replay_s": tracer.seconds("core.odr_replay"),
        "analysis.reduce_s": tracer.seconds("experiments.drivers"),
        **{f"experiments.{driver}_s": context.timings.get(driver, 0.0)
           for driver in ORDER},
        "experiments.claims_s": tracer.seconds("experiments.claims"),
        **_bench_layers(tracer, traced, untraced),
    }
    write_jsonl(tracer.registry, options.trace_path("experiments_pass"))
    return outcome


# -- serve_decide ----------------------------------------------------------


def _decide_us(app: OdrWebApp, paths: list[str],
               wrap: Callable[[], Any]) -> float:
    """Mean microseconds of ``app.handle`` over ``paths``."""
    started = time.perf_counter()
    for path in paths:
        with wrap():
            app.handle(path)
    return (time.perf_counter() - started) / len(paths) * 1e6


@dataclass
class _Served:
    """The load phases of every boot, pooled."""

    phase_a: serving.OpenLoop = field(
        default_factory=lambda: serving.OpenLoop(OPEN_LOOP_RPS))
    #: One entry per closed-loop window, paired with ``capacity.scaled``.
    completed: list[int] = field(default_factory=list)
    capacity: HostTimer = field(
        default_factory=lambda: HostTimer(WINDOW_SAMPLES))
    peak_rss_mb: list[float] = field(default_factory=list)
    server_cpu: float = 0.0
    client_cpu: float = 0.0
    #: Scrapes of the last boot, read by the traced run (one boot).
    scrapes: dict[str, Any] = field(default_factory=dict)
    probe: Optional[serving.OpenLoop] = None


def serve_decide(options: Options) -> Outcome:
    scale, seed = options.week("serve_decide")
    outcome = Outcome()
    tracer = Tracer(MetricsRegistry() if options.trace else NOOP)
    # Each boot serves its share of every phase, so the metrics pool the
    # boots as well as the host's moments.
    boots = 1 if options.trace else SETUP_REPEATS
    warm_s = 0.1 * options.seconds / boots
    phase_s = 0.45 * options.seconds / boots
    served = _Served()
    with tracer.span("bench.trace"):
        with tracer.span("workload.generate"):
            paths = workload_paths(_generate(scale, seed))
        setup = HostTimer()
        # The server (which inherits the pin) and its client share one
        # vCPU.  The two vCPUs share a core, so pinned the closed loop
        # lost no rate, and the host took less time from a guest keeping
        # one vCPU busy than two: capacity and p50 spread half as much.
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        # The client's collector pauses would delay sends and be charged
        # to the server; the load loops allocate nothing cyclic.
        gc.freeze()
        gc.disable()
        try:
            for _ in range(boots):
                with tracer.span("serve.boot"), setup.measure(sampled=False):
                    server = serving.ServerProcess(options.root, paths[0])
                with server, serving.Client(server.port, paths) as client:
                    _serve_boot(options, tracer, server, client, warm_s,
                                phase_s, served, outcome)
        finally:
            gc.enable()
            gc.unfreeze()
            os.sched_setaffinity(0, cpus)
        if options.trace:
            app = OdrWebApp(policies=ResiliencePolicies())
            _decide_us(app, paths[:200], nullcontext)   # warm-up
            with tracer.span("core.decide"):
                bare = _decide_us(app, paths[:DECIDE_SAMPLE], nullcontext)
                spanned = _decide_us(
                    app, paths[DECIDE_SAMPLE:2 * DECIDE_SAMPLE],
                    lambda: tracer.span("core.decide_call"))

    phase_a, capacity = served.phase_a, served.capacity
    lags_ms = [lag * 1e3 for lag in phase_a.lags]
    outcome.setup_s = setup.scaled
    outcome.tasks_per_s = median([
        completed / seconds
        for completed, seconds in zip(served.completed, capacity.scaled)])
    # Latency is not scaled: sampling would delay the open loop's sends,
    # and p50 did not follow the host's speed (scaling widened its spread).
    outcome.latencies_ms = [latency * 1e3 for latency in phase_a.latencies]
    outcome.peak_rss_mb = median(served.peak_rss_mb)
    outcome.info.update(
        scale=scale, week_seed=seed, paths=len(paths), boots=boots,
        samples=phase_a.sent, closed_loop_requests=served.completed,
        setup_raw_s=setup.raw, closed_loop_cpu_s=capacity.raw,
        max_lag_ms=max(lags_ms), speed_ms=setup.speed_ms + capacity.speed_ms,
        client_cpu_ms_per_req=served.client_cpu / phase_a.sent * 1e3)
    if max(lags_ms) > LAG_FLAG_MS:
        outcome.flags.append(f"loadgen lag {max(lags_ms):.1f} ms > "
                             f"{LAG_FLAG_MS:g} ms")
    if not options.trace:
        return outcome

    scrapes = served.scrapes
    before, after = scrapes["metrics_before"], scrapes["metrics_after"]

    def delta(name: str, labels: str = "") -> float:
        return serving.prom_value(after, name, labels) \
            - serving.prom_value(before, name, labels)

    decide = 'endpoint="/decide"'
    server_ms = delta("repro_serve_latency_seconds_sum", decide) \
        / delta("repro_serve_latency_seconds_count", decide) * 1e3
    client_ms = sum(latency - lag for latency, lag
                    in zip(phase_a.latencies, phase_a.lags)) \
        / phase_a.sent * 1e3
    batches = delta("repro_serve_batch_size_count")
    statz, statz_after = scrapes["statz"], scrapes["statz_after"]
    outcome.layers = {
        "workload.generate_s": tracer.seconds("workload.generate"),
        "workload.requests": float(len(paths)),
        "serve.server_ms": server_ms,
        "serve.outside_ms": client_ms - server_ms,
        "serve.cpu_ms_per_req": served.server_cpu / phase_a.sent * 1e3,
        "serve.admitted": float(statz_after["admitted"]
                                - statz["admitted"]),
        "serve.rejected": float(statz_after["sheds"] - statz["sheds"]
                                + statz_after["shed_other"]
                                - statz["shed_other"]),
        "serve.batch_mean": delta("repro_serve_batch_size_sum") / batches
        if batches else 0.0,
        "serve.p99_ms": percentile(outcome.latencies_ms, 99)[0],
        "serve.p99_ms_1600rps":
            percentile(served.probe.latencies, 99)[0] * 1e3,
        "core.decide_us": bare,
        "loadgen.max_lag_ms": max(lags_ms),
        "loadgen.cpu_ms_per_req": outcome.info["client_cpu_ms_per_req"],
        "host.calib_ms": calibrate_ms(),
        # The replays trace whole passes; here the traced unit is one
        # in-process decision, so the overhead is that of its span.
        "bench.trace_overhead_pct": 100.0 * (spanned - bare) / bare,
        "bench.residual_s": tracer.residual("bench.trace"),
    }
    write_jsonl(tracer.registry, options.trace_path("serve_decide"))
    return outcome


def _serve_boot(options: Options, tracer: Tracer,
                server: serving.ServerProcess, client: serving.Client,
                warm_s: float, phase_s: float, served: _Served,
                outcome: Outcome) -> None:
    """One boot's warm-up, open loop (phase A), closed-loop windows
    (phase B) and, traced, the knee probe; gates every response and the
    boot's admission count."""
    scrapes = served.scrapes
    with tracer.span("serve.warmup"):
        serving.open_loop(client.send, OPEN_LOOP_RPS, warm_s)
    client.offset = int(OPEN_LOOP_RPS * warm_s)
    scrapes["statz"] = json.loads(client.get("/statz"))
    gets = client.gets
    if options.trace:
        scrapes["metrics_before"] = client.get("/metrics").decode()
    server_cpu, client_cpu = server.cpu_seconds(), time.process_time()
    with tracer.span("serve.open_loop"):
        phase_a = serving.open_loop(client.send, OPEN_LOOP_RPS, phase_s)
    served.server_cpu += server.cpu_seconds() - server_cpu
    served.client_cpu += time.process_time() - client_cpu
    if options.trace:
        scrapes["metrics_after"] = client.get("/metrics").decode()
    served.phase_a.latencies += phase_a.latencies
    served.phase_a.lags += phase_a.lags
    served.phase_a.failed += phase_a.failed
    client.offset += phase_a.sent
    sent, failed = phase_a.sent, phase_a.failed
    with tracer.span("serve.closed_loop"):
        for _ in range(CAPACITY_WINDOWS):
            with served.capacity.measure(sampled=False,
                                         cpu_clock=server.cpu_seconds):
                completed, lost = serving.closed_loop(
                    client.send, phase_s / CAPACITY_WINDOWS)
            served.completed.append(completed)
            client.offset += completed + lost
            sent += completed + lost
            failed += lost
    if options.trace:
        with tracer.span("serve.probe_1600rps"):
            served.probe = serving.open_loop(client.send, PROBE_RPS,
                                             min(3.0, phase_s))
        sent += served.probe.sent
        failed += served.probe.failed
    outcome.attempted += sent
    outcome.failed += failed
    scrapes["statz_after"] = json.loads(client.get("/statz"))
    outcome.gate("statz_admitted_matches_sent",
                 scrapes["statz_after"]["admitted"]
                 - scrapes["statz"]["admitted"]
                 == sent + client.gets - gets)
    served.peak_rss_mb.append(server.peak_rss_mb())


#: Workload name -> function, in the order of BENCHMARK.json.
WORKLOADS: dict[str, Callable[[Options], Outcome]] = {
    "cloud_week": cloud_week,
    "cloud_week_faulted": cloud_week_faulted,
    "experiments_pass": experiments_pass,
    "serve_decide": serve_decide,
}
