"""Figure 10: request popularity vs pre-downloading failure ratio."""

from __future__ import annotations

import numpy as np

from repro import paper
from repro.analysis.tables import TextTable
from repro.experiments.base import ExperimentReport, register
from repro.experiments.context import ExperimentContext, default_context
from repro.workload.popularity import PopularityClass


@register("fig10")
def run(context: ExperimentContext | None = None) -> ExperimentReport:
    context = context or default_context()
    result = context.cloud_result
    by_class = result.failure_ratio_by_class()
    scatter = result.failure_ratio_by_demand()

    report = ExperimentReport(
        experiment_id="fig10",
        title="Request popularity vs pre-download failure ratio")
    report.add("unpopular failure ratio (cloud)",
               paper.CLOUD_UNPOPULAR_FAILURE_RATIO,
               by_class.get(PopularityClass.UNPOPULAR, 0.0))
    report.add("overall failure ratio (cloud)",
               paper.CLOUD_FAILURE_RATIO, result.request_failure_ratio)

    # Bucket the scatter like the figure's x-axis.
    buckets = [(0, 7), (7, 28), (28, 84), (84, 10 ** 9)]
    table = TextTable(["popularity bucket", "requests",
                       "failure ratio"], ["", "d", ".4f"])
    monotone: list[float] = []
    counts = result.demand_bucket_counts(buckets)
    for (low, high), (total, failed) in zip(buckets, counts):
        ratio = failed / total if total else 0.0
        label = f"[{low}, {'inf' if high >= 10**9 else high})"
        table.add_row(label, total, ratio)
        monotone.append(ratio)
    report.table = table.render()
    report.data["scatter"] = scatter
    report.data["bucket_ratios"] = monotone
    report.data["decreasing"] = all(
        a >= b - 1e-9 for a, b in zip(monotone, monotone[1:]))
    return report
