"""Parallel experiment runner: independent driver groups in processes.

The sequential runner executes all drivers against one shared
:class:`~repro.experiments.context.ExperimentContext`; several drivers
*mutate* shared artefacts (the ODR replays write into the cloud's
content database), so drivers cannot be scattered across processes
one-by-one.  Instead the registry is partitioned into **groups** with
disjoint artefact needs; each group gets a fresh context in its own
process and rebuilds exactly the artefacts it reads.  Because a group's
results never depend on any other group, the merged document is
independent of ``--jobs`` -- the ``--jobs`` path (including ``--jobs 1``)
always routes through this runner so the number of workers is a pure
wall-clock knob.

The cost of isolation is rebuild work: the workload (and for most
groups the cloud run) is re-simulated per group.  That overhead is
bounded by the group count and amortises at the full-trace scales this
subsystem exists for.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Optional

from repro.experiments.base import ExperimentReport
from repro.experiments.context import ExperimentContext, \
    ExperimentFailure
from repro.obs.registry import AnyRegistry, NOOP
from repro.recovery.durable import RecoveryConfig
from repro.scale.executor import durable_run

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
    from repro.experiments import REGISTRY
    from repro.experiments.runner import ORDER
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
            f"experiments not covered by scale.runner.GROUPS: {missing}")
    unknown = sorted(set(grouped) - set(REGISTRY))
    if unknown:
        raise RuntimeError(f"GROUPS references unknown experiments: "
                           f"{unknown}")
    ungrouped = sorted(set(REGISTRY) - set(grouped) - set(ORDER))
    if ungrouped:
        raise RuntimeError(
            f"registered experiments outside ORDER and GROUPS: "
            f"{ungrouped}")


@dataclass(frozen=True)
class GroupTask:
    """Spawn-safe payload: one driver group at one (scale, seed)."""

    group: str
    scale: float
    seed: int


@dataclass
class GroupResult:
    """One group's reports (document order) and timings."""

    group: str
    reports: list[tuple[str, ExperimentReport]]
    timings: dict[str, float]
    claims: Optional[list] = None
    failures: list[ExperimentFailure] = field(default_factory=list)


def run_group(task: GroupTask) -> GroupResult:
    """Build a fresh context and run one group's drivers in order."""
    from repro.experiments import REGISTRY
    context = ExperimentContext(scale=task.scale, seed=task.seed)
    ids, warm = GROUPS[task.group]
    context.warm(*warm)
    result = GroupResult(group=task.group, reports=[], timings={})
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
    if task.group == "claims":
        from repro.experiments.scorecard import evaluate_claims
        result.claims = evaluate_claims(context)
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

    With ``recovery`` each finished group is checkpointed into the run
    directory (``group-<name>``), so a crashed or interrupted document
    build resumes by recomputing only the groups that never completed
    -- the completed sections come back bit-identical from their
    checkpoints.
    """
    from repro.experiments.runner import ORDER
    check_group_coverage()
    tasks = [GroupTask(group=group, scale=scale, seed=seed)
             for group in GROUPS]
    results, _info = durable_run(
        [f"group-{task.group}" for task in tasks], tasks, run_group,
        jobs=jobs, metrics=metrics, recovery=recovery,
        identity={"kind": "experiment-groups", "scale": scale,
                  "seed": seed, "groups": list(GROUPS)})

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
