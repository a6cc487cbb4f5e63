"""The benchmark runner behind ``python -m repro.perf``.

For each canonical stage (:data:`repro.perf.stages.STAGES`) the harness

1. builds the stage's inputs untimed,
2. times the frozen pre-optimisation baseline (where one exists) and
   the live optimised path, best-of-``repeats`` wall-clock each,
3. profiles one optimised run with :mod:`cProfile` and keeps the top-N
   cumulative-time lines,

and writes the whole thing to ``BENCH_perf.json`` -- the artefact the
regression guard (``benchmarks/test_bench_perf_guard.py``) and CI read.

Timing discipline: thunks are warmed once before timing (so import
costs, lru_caches and allocator warm-up are excluded), the GC is
disabled around each timed run, and best-of-N is reported (the usual
choice for wall-clock microbenchmarks: the minimum is the least noisy
estimator of the achievable time).
"""

from __future__ import annotations

import cProfile
import gc
import io
import json
import platform
import pstats
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

from repro.perf.stages import STAGES, Stage, StagePlan

#: Default best-of-N repeats (full vs smoke runs).
FULL_REPEATS = 3
SMOKE_REPEATS = 1

#: cProfile lines kept per stage.
PROFILE_TOP = 12


@dataclass
class StageResult:
    """Measured numbers for one stage at one scale."""

    name: str
    title: str
    scale: float
    repeats: int
    optimized_seconds: float
    baseline_seconds: Optional[float] = None
    note: str = ""
    profile_top: list[str] = field(default_factory=list)

    @property
    def speedup(self) -> Optional[float]:
        """Baseline/optimized wall-clock ratio (>1 means faster now)."""
        if self.baseline_seconds is None or self.optimized_seconds <= 0:
            return None
        return self.baseline_seconds / self.optimized_seconds

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "title": self.title,
            "scale": self.scale,
            "repeats": self.repeats,
            "baseline_seconds": self.baseline_seconds,
            "optimized_seconds": self.optimized_seconds,
            "speedup": self.speedup,
            "note": self.note,
            "profile_top": self.profile_top,
        }


@dataclass
class BenchReport:
    """One harness invocation's worth of stage results."""

    smoke: bool
    stages: list[StageResult] = field(default_factory=list)

    def stage(self, name: str) -> StageResult:
        for result in self.stages:
            if result.name == name:
                return result
        raise KeyError(name)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": "repro.perf/bench-report/v1",
            "mode": "smoke" if self.smoke else "full",
            "python": platform.python_version(),
            "platform": platform.platform(),
            "stages": [result.to_dict() for result in self.stages],
        }

    def render(self) -> str:
        """Human-readable table for terminal output."""
        lines = [
            f"repro.perf ({'smoke' if self.smoke else 'full'} mode, "
            f"python {platform.python_version()})",
            f"{'stage':<20} {'scale':>6} {'baseline':>9} "
            f"{'optimized':>9} {'speedup':>8}",
        ]
        for result in self.stages:
            baseline = (f"{result.baseline_seconds:8.3f}s"
                        if result.baseline_seconds is not None else
                        f"{'-':>9}")
            speedup = (f"{result.speedup:7.2f}x"
                       if result.speedup is not None else f"{'-':>8}")
            lines.append(
                f"{result.name:<20} {result.scale:>6g} {baseline} "
                f"{result.optimized_seconds:8.3f}s {speedup}")
        return "\n".join(lines)


def _time_once(thunk: Callable[[], object]) -> float:
    """Wall-clock seconds for one run, with the GC parked outside it."""
    timer = time.perf_counter
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = timer()
        thunk()
        return timer() - start
    finally:
        if gc_was_enabled:
            gc.enable()


def _time_best_of(thunk: Callable[[], object], repeats: int) -> float:
    """Best-of-``repeats`` wall-clock seconds for one thunk.

    The first (untimed) call warms caches; the GC stays off during the
    timed window so collection pauses land between runs, not inside.
    """
    thunk()
    return min(_time_once(thunk) for _ in range(repeats))


def _time_pair_best_of(baseline: Callable[[], object],
                       optimized: Callable[[], object],
                       repeats: int) -> tuple[float, float]:
    """Best-of-``repeats`` for two thunks, repetitions interleaved.

    Timing baseline and optimized back-to-back inside each repetition
    (rather than all of one, then all of the other) means slow drifts
    in machine speed -- thermal throttling, a neighbour tenant waking
    up -- hit both sides of the reported ratio alike instead of landing
    wholly on whichever thunk ran later.
    """
    baseline()
    optimized()
    best_baseline = float("inf")
    best_optimized = float("inf")
    for _ in range(repeats):
        best_baseline = min(best_baseline, _time_once(baseline))
        best_optimized = min(best_optimized, _time_once(optimized))
    return best_baseline, best_optimized


def _repo_root() -> Path:
    """The checkout root, derived from this module's location.

    ``src/repro/perf/harness.py`` -> three parents up.  Used to strip
    machine-specific absolute prefixes from profile lines so the
    committed ``BENCH_perf.json`` is reproducible across checkouts.
    """
    return Path(__file__).resolve().parents[3]


def _relativize(line: str) -> str:
    """Rewrite absolute repo paths in a pstats line to repo-relative."""
    root = str(_repo_root())
    if root in line:
        line = line.replace(root + "/", "").replace(root, ".")
    return line


def _profile_top(thunk: Callable[[], object], top: int) -> list[str]:
    """Top-``top`` cumulative-time lines of one profiled run.

    File paths are rewritten repo-relative (``src/repro/...``) so the
    lines that land in ``BENCH_perf.json`` carry no absolute paths.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        thunk()
    finally:
        profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    lines = buffer.getvalue().splitlines()
    # Drop the pstats preamble; keep from the column header on.
    for index, line in enumerate(lines):
        if line.lstrip().startswith("ncalls"):
            lines = lines[index:]
            break
    return [_relativize(line.rstrip())
            for line in lines if line.strip()][:top + 1]


def _run_stage(stage: Stage, smoke: bool, repeats: int,
               profile_top: int) -> StageResult:
    scale = stage.scale_for(smoke)
    with tempfile.TemporaryDirectory(prefix=f"perf-{stage.name}-") as tmp:
        plan: StagePlan = stage.build(scale, Path(tmp))
        baseline_seconds = None
        if plan.baseline is not None:
            baseline_seconds, optimized_seconds = _time_pair_best_of(
                plan.baseline, plan.optimized, repeats)
        else:
            optimized_seconds = _time_best_of(plan.optimized, repeats)
        top = (_profile_top(plan.optimized, profile_top)
               if profile_top > 0 else [])
    return StageResult(name=stage.name, title=stage.title, scale=scale,
                       repeats=repeats, optimized_seconds=optimized_seconds,
                       baseline_seconds=baseline_seconds, note=plan.note,
                       profile_top=top)


def run_benchmarks(smoke: bool = False, repeats: Optional[int] = None,
                   profile_top: int = PROFILE_TOP,
                   stage_names: Optional[Iterable[str]] = None,
                   progress: bool = False) -> BenchReport:
    """Run the selected stages and return their measurements.

    ``stage_names`` defaults to every canonical stage in pipeline
    order; unknown names raise ``KeyError`` up front rather than after
    minutes of benchmarking.
    """
    if repeats is None:
        repeats = SMOKE_REPEATS if smoke else FULL_REPEATS
    if stage_names is None:
        selected = list(STAGES.values())
    else:
        selected = [STAGES[name] for name in stage_names]
    report = BenchReport(smoke=smoke)
    for stage in selected:
        if progress:
            print(f"[repro.perf] {stage.name} "
                  f"(scale={stage.scale_for(smoke):g}) ...",
                  file=sys.stderr, flush=True)
        report.stages.append(
            _run_stage(stage, smoke, repeats, profile_top))
    return report


def write_report(report: BenchReport, path: str | Path) -> Path:
    """Atomically write the report as indented JSON; returns the path."""
    from repro.recovery.atomic import atomic_write_text
    return atomic_write_text(
        Path(path), json.dumps(report.to_dict(), indent=2) + "\n")
