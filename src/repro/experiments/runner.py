"""Run every registered experiment and render EXPERIMENTS.md.

Usage::

    python -m repro experiments --scale 0.01 --output EXPERIMENTS.md

:func:`run_all` runs the drivers in one process against one shared
:class:`~repro.experiments.context.ExperimentContext`.  :func:`run_parallel`
(``--jobs``, ``--run-dir``) runs them in driver groups instead.
Several drivers *mutate* shared artefacts (the ODR replays write into
the cloud's content database), so drivers cannot be scattered across
processes one by one.  The registry is partitioned into :data:`GROUPS`
with disjoint artefact needs; each group gets a fresh context in its
own worker and rebuilds exactly the artefacts it reads.  Because a
group's results never depend on any other group, the merged document
is independent of ``--jobs``, so the number of workers is a pure
wall-clock knob.  The cost of isolation is rebuild work: the workload
(and for most groups the cloud run) is re-simulated per group.
"""

from __future__ import annotations

import functools
import time
import traceback
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from repro.experiments import REGISTRY, default_context
from repro.experiments.base import ExperimentReport
from repro.experiments.context import ExperimentContext, \
    ExperimentFailure
from repro.obs import NOOP, span
from repro.obs.registry import AnyRegistry

if TYPE_CHECKING:
    from repro.recovery.durable import RecoveryConfig

#: Paper-section ordering for the document.
ORDER = [
    "workload_stats", "fig05", "fig06_07", "fig08", "fig09", "fig10",
    "fig11", "cloud_text", "table1", "fig13_14", "ap_failures",
    "table2", "fig16", "fig17", "backend_matrix",
]


def run_all(context: ExperimentContext | None = None
            ) -> list[ExperimentReport]:
    """Execute every registered experiment against one shared context.

    Each driver runs inside a tracing span; its wall-clock seconds land
    in ``context.timings`` and (when the context carries a live
    registry) in ``repro_experiments_wall_seconds`` gauges, alongside
    the peak simulation heap depth exposed as
    ``context.peak_heap_depth``.
    """
    context = context or default_context()
    missing = sorted(set(REGISTRY) - set(ORDER))
    reports = []
    for experiment_id in ORDER + missing:
        try:
            with span(context.metrics, "experiment", id=experiment_id):
                started = time.perf_counter()
                report = REGISTRY[experiment_id](context)
                elapsed = time.perf_counter() - started
        except Exception as error:   # noqa: BLE001 - degrade, not die
            # One broken driver must not take down the whole document:
            # record it, keep going, and let main() exit non-zero.
            context.failures.append(ExperimentFailure(
                experiment_id=experiment_id,
                error=f"{type(error).__name__}: {error}",
                traceback=traceback.format_exc()))
            context.metrics.counter("repro_experiments_failures_total",
                                    experiment=experiment_id).inc()
            continue
        context.timings[experiment_id] = elapsed
        context.metrics.gauge("repro_experiments_wall_seconds",
                              experiment=experiment_id).set(elapsed)
        reports.append(report)
    return reports


def render_experiments_md(reports: list[ExperimentReport],
                          scale: float,
                          failures: Sequence[ExperimentFailure] = ()
                          ) -> str:
    lines = [
        "# EXPERIMENTS -- paper vs measured",
        "",
        "Reproduction of every table and figure in \"Offline Downloading"
        " in China: A Comparative Study\" (IMC 2015).",
        "",
        "All rows below were produced by `python -m repro "
        f"experiments --scale {scale}` -- a synthetic week "
        f"at {scale:.0%} of the real trace's dimensions, simulated "
        "end-to-end (no numbers are hard-coded into the pipeline; the "
        "`paper=` column comes from `repro.paper`, the `measured=` "
        "column from the simulation).",
        "",
        "Scale-free quantities (ratios, shares, medians of per-flow "
        "distributions) compare directly; bandwidth totals are rescaled "
        "to paper units by the population scale factor.",
        "",
        "## Known divergences and why",
        "",
        "* **Cloud failure levels** (paper 8.7% overall / 13% unpopular /"
        " 16.4% no-cache). The paper's trio of cache statistics (89% "
        "request-level hits, 8.7% with-cache and 16.4% no-cache "
        "failures) is mutually over-determined under any mechanistic "
        "cache model: with an 89% hit ratio, failures can only occur on "
        "the 11% of misses, which caps the with-cache failure ratio "
        "well below 8.7% unless per-miss failure approaches 80%. The "
        "simulator matches the hit ratio, the popularity-failure "
        "correlation (Fig. 10), and the cache's *halving* of the "
        "failure ratio; the absolute failure levels land lower "
        "(~3% / ~9% / ~7%).",
        "* **Pre-download near-zero share** (paper 21%, measured "
        "~25-30%). The cloud's attempt population is miss-biased toward "
        "dead-source files; the production system's attempt mix was "
        "shaped by years of cache history we cannot observe.",
        "* **Fetch/e2e delay means** (paper 27 / 68 min). The paper's "
        "fetch trace records 'finish/pause' times, so user-paused slow "
        "fetches truncate their recorded delays; the simulator lets "
        "slow fetches run to completion, lengthening the mean (medians "
        "agree).",
        "* **Fig. 6/7 fit coefficients**. Absolute Zipf/SE intercepts "
        "depend on the trace's absolute dimensions; at reduced scale we "
        "reproduce the comparative claim (SE beats Zipf, flattened "
        "head) and report our own coefficients.",
        "* **ISP-barrier share** (paper 9.6%, measured ~10-14%). At "
        "reduced scale the per-ISP upload pools hold few concurrent "
        "flows, so admission granularity produces extra overflow onto "
        "cross-ISP paths during peaks; the artefact shrinks as "
        "``--scale`` grows.",
        "* **B3 under ODR** (paper 13%, measured ~4%). The paper quotes "
        "the cloud's production unpopular-failure level; our replay "
        "runs after the simulated week, when the cache already covers "
        "most sampled files, so ODR's measured unpopular failure is "
        "even lower.",
        "",
    ]
    for report in reports:
        lines.append(f"## {report.experiment_id}: {report.title}")
        lines.append("")
        lines.append("```")
        lines.append(report.render())
        lines.append("```")
        lines.append("")
    for failure in failures:
        lines.append(f"## {failure.experiment_id}: FAILED")
        lines.append("")
        lines.append(f"This experiment raised `{failure.error}` and "
                     "produced no results; the rest of the document "
                     "is unaffected.")
        lines.append("")
        lines.append("```")
        lines.append(failure.traceback.rstrip())
        lines.append("```")
        lines.append("")
    return "\n".join(lines)


#: Driver groups with disjoint mutable-artefact footprints.  Order maps
#: group name -> (experiment ids in document order, context artefacts the
#: group warms up front).  ``claims`` re-evaluates the scorecard claims
#: on a fresh context (the sequential path evaluates them on the shared,
#: already-replayed context; a fresh context is the reproducible
#: definition).
GROUPS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "workload": (("workload_stats", "fig05", "fig06_07"),
                 ("workload",)),
    "cloud": (("fig08", "fig09", "fig10", "fig11", "cloud_text"),
              ("cloud_result",)),
    "ap": (("table1", "fig13_14", "ap_failures", "table2"),
           ("cloud_result", "ap_report")),
    "odr": (("fig16", "fig17"),
            ("cloud_result", "ap_report", "odr_result")),
    # The backend matrix replays the context's week (read only) with
    # databases of its own, so it needs nothing but the workload.
    "backends": (("backend_matrix",), ("workload",)),
    "claims": ((), ("cloud_result",)),
}


def check_group_coverage() -> None:
    """Assert GROUPS and the document ORDER cover the same registry.

    Raises at run (and test) time when an experiment is registered but
    not grouped, grouped twice, or grouped but unknown -- the drift guard
    that keeps the parallel document identical to the sequential one.
    """
    grouped: list[str] = []
    for ids, _warm in GROUPS.values():
        grouped.extend(ids)
    duplicates = sorted({eid for eid in grouped
                         if grouped.count(eid) > 1})
    if duplicates:
        raise RuntimeError(f"experiments grouped twice: {duplicates}")
    missing = sorted(set(ORDER) - set(grouped))
    if missing:
        raise RuntimeError(
            f"experiments not covered by runner.GROUPS: {missing}")
    unknown = sorted(set(grouped) - set(REGISTRY))
    if unknown:
        raise RuntimeError(f"GROUPS references unknown experiments: "
                           f"{unknown}")
    ungrouped = sorted(set(REGISTRY) - set(grouped) - set(ORDER))
    if ungrouped:
        raise RuntimeError(
            f"registered experiments outside ORDER and GROUPS: "
            f"{ungrouped}")


class GroupResult(NamedTuple):
    """One group's reports (document order), timings and failures, and
    for the ``claims`` group the headline claims."""

    reports: list[tuple[str, ExperimentReport]]
    timings: dict[str, float]
    failures: list[ExperimentFailure]
    claims: Optional[list] = None


def run_group(group: str, *, scale: float, seed: int) -> GroupResult:
    """Build a fresh context and run one group's drivers in order."""
    context = ExperimentContext(scale=scale, seed=seed)
    ids, warm = GROUPS[group]
    context.warm(*warm)
    result = GroupResult(reports=[], timings={}, failures=[])
    for experiment_id in ids:
        t0 = time.perf_counter()
        try:
            report = REGISTRY[experiment_id](context)
        except Exception as error:   # noqa: BLE001 - degrade, not die
            # Mirror the sequential runner: one broken driver becomes a
            # failure entry and the rest of the group still runs.
            result.failures.append(ExperimentFailure(
                experiment_id=experiment_id,
                error=f"{type(error).__name__}: {error}",
                traceback=traceback.format_exc()))
            continue
        result.timings[experiment_id] = time.perf_counter() - t0
        result.reports.append((experiment_id, report))
    if group == "claims":
        from repro.experiments.scorecard import evaluate_claims
        result = result._replace(claims=evaluate_claims(context))
    return result


def run_parallel(scale: float, seed: int, *, jobs: int = 1,
                 metrics: AnyRegistry = NOOP,
                 recovery: Optional[RecoveryConfig] = None
                 ) -> tuple[list[ExperimentReport], list,
                            dict[str, float],
                            list[ExperimentFailure]]:
    """Run every experiment via the group partition.

    Returns ``(reports in document order, headline claims, timings,
    failures)``.  The output is independent of ``jobs``; with
    ``jobs <= 1`` the groups run inline (no processes), which is also
    the reference behaviour the invariance tests compare against.

    The groups run on :func:`~repro.recovery.durable.durable_map`.
    With ``recovery`` each finished group is checkpointed into the run
    directory (``group-<name>``), so a crashed or interrupted document
    build resumes by recomputing only the groups that never completed
    -- the completed sections come back bit-identical from their
    checkpoints.
    """
    from repro.recovery.durable import durable_map
    check_group_coverage()
    results = durable_map(
        [f"group-{group}" for group in GROUPS], list(GROUPS),
        functools.partial(run_group, scale=scale, seed=seed),
        jobs=jobs, metrics=metrics, recovery=recovery,
        identity={"kind": "experiment-groups", "scale": scale,
                  "seed": seed, "groups": list(GROUPS)}).results

    by_id: dict[str, ExperimentReport] = {}
    timings: dict[str, float] = {}
    claims: list = []
    failures: list[ExperimentFailure] = []
    for result in results:
        for experiment_id, report in result.reports:
            by_id[experiment_id] = report
        timings.update(result.timings)
        failures.extend(result.failures)
        if result.claims is not None:
            claims = result.claims
    failures.sort(key=lambda failure: failure.experiment_id)
    ordered = [by_id[experiment_id] for experiment_id in ORDER
               if experiment_id in by_id]
    extras = [by_id[experiment_id] for experiment_id in sorted(by_id)
              if experiment_id not in ORDER]
    return ordered + extras, claims, timings, failures
