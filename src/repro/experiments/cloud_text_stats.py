"""Section 4 text statistics: caching, failures, traffic, impediments."""

from __future__ import annotations

from repro import paper
from repro.analysis.tables import TextTable
from repro.experiments.base import ExperimentReport, register
from repro.experiments.context import ExperimentContext, default_context
from repro.workload.popularity import PopularityClass


@register("cloud_text")
def run(context: ExperimentContext | None = None) -> ExperimentReport:
    context = context or default_context()
    result = context.cloud_result

    report = ExperimentReport(
        experiment_id="cloud_text",
        title="Cloud system text statistics (section 4)")
    report.add("cache hit ratio", paper.CACHE_HIT_RATIO,
               result.cache_hit_ratio)
    report.add("request-level failure ratio", paper.CLOUD_FAILURE_RATIO,
               result.request_failure_ratio)
    import numpy as np
    columns = context.workload.request_columns()
    no_cache = result.fleet.no_cache_failure_ratio(
        map(columns.files.rows().__getitem__, columns.file_rows.tolist()),
        np.random.default_rng(context.seed + 1))
    report.add("failure ratio without the storage pool",
               paper.CLOUD_FAILURE_RATIO_NO_CACHE, no_cache)
    report.add("unpopular failure ratio",
               paper.CLOUD_UNPOPULAR_FAILURE_RATIO,
               result.failure_ratio_by_class().get(
                   PopularityClass.UNPOPULAR, 0.0))
    report.add("pre-download traffic overhead",
               paper.P2P_TRAFFIC_OVERALL, result.fleet.traffic_overhead)
    report.add("user-side traffic overhead",
               (paper.HTTP_OVERHEAD_LOW + paper.HTTP_OVERHEAD_HIGH) / 2,
               result.user_traffic_overhead())
    report.add("impeded fetch share", paper.IMPEDED_FETCH_SHARE,
               result.impeded_fetch_share)
    breakdown = result.impeded_breakdown()
    report.add("impeded by ISP barrier", paper.IMPEDED_BY_ISP_BARRIER,
               breakdown.get("isp_barrier", 0.0))
    report.add("impeded by low access bandwidth",
               paper.IMPEDED_BY_LOW_ACCESS_BW,
               breakdown.get("low_access_bandwidth", 0.0))
    report.add("fetch rejection ratio", paper.FETCH_REJECTION_RATIO,
               result.rejection_ratio)

    table = TextTable(["impediment cause", "share"], ["", ".4f"])
    for cause, share in breakdown.items():
        table.add_row(cause, share)
    report.table = table.render()
    report.data["breakdown"] = breakdown
    return report
