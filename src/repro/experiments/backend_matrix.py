"""Backend matrix: the registry's (backend set, policy) combinations.

The paper evaluates two offline-downloading families (cloud, smart AP)
and one combination rule (ODR).  The ``repro.backends`` registry
generalises that into composable backends and policies; this driver
replays the first rows of the context's week through every shipped
combination and reports how much cloud traffic each one removes
relative to the cloud-only baseline, alongside its completion-delay
quantiles.

The matrix is the repo's own extension (D2D and cooperative AP caching
are designed in the spirit of the related work, not measured by the
paper), so the only paper-anchored row is ODR's bandwidth reduction --
the rest of the scorecard is rendered as a table.
"""

from __future__ import annotations

from repro import paper
from repro.experiments.base import ExperimentReport, register
from repro.experiments.context import ExperimentContext, default_context

#: Trace rows replayed per combination -- enough for stable shares at
#: documentation scale while staying a small fraction of the runner's
#: wall clock.
MATRIX_LIMIT = 400


@register("backend_matrix")
def run(context: ExperimentContext | None = None) -> ExperimentReport:
    context = context or default_context()
    from repro.backends.replay import compare, format_scorecard

    scorecard = compare(scale=context.scale, seed=context.seed,
                        limit=MATRIX_LIMIT, workload=context.workload)
    report = ExperimentReport(
        experiment_id="backend_matrix",
        title="Multi-backend ODR: (backend set, policy) comparison")

    by_name = {row["name"]: row for row in scorecard["combos"]}
    odr = by_name.get("cloud+ap/odr")
    if odr is not None:
        report.add("ODR cloud bandwidth reduction",
                   paper.ODR_BANDWIDTH_REDUCTION,
                   odr["cloud_bytes_saved_vs_baseline"])
    report.table = format_scorecard(scorecard)
    report.data = {"digest": scorecard["digest"],
                   "combos": scorecard["combos"]}
    return report
