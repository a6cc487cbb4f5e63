"""The reproduction scorecard: one number (and one table) for "how close".

Aggregates every paper-vs-measured comparison the drivers produce into
per-experiment and overall statistics, checks the paper's *headline
qualitative claims* -- the findings that must hold regardless of
absolute calibration (who wins, in which direction, by roughly what
factor) -- and runs the *paper checks*: per-experiment bounds on each
figure's and table's own report (:data:`ROW_CHECKS`,
:data:`SHAPE_CHECKS`).  The checks read only the reports the drivers
returned; they run no simulation.  Every bound holds at the default
scale (0.02) and seed.

Usage::

    python -m repro.experiments.scorecard --scale 0.02
"""

from __future__ import annotations

import argparse
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from repro.analysis.tables import TextTable
from repro.experiments import REGISTRY, default_context
from repro.experiments.base import ExperimentReport
from repro.experiments.context import DEFAULT_SCALE, ExperimentContext
from repro.experiments.fig11_bandwidth import BIN_WIDTH
from repro.experiments.runner import ORDER, run_all
from repro.paper import PaperComparison
from repro.sim.clock import DAY, HOUR, MINUTE, kbps
from repro.transfer.source import CAUSE_INSUFFICIENT_SEEDS


@dataclass
class HeadlineClaim:
    """One qualitative finding of the paper and whether it reproduced."""

    claim: str
    holds: bool


@dataclass
class Scorecard:
    """Aggregated reproduction quality."""

    reports: list[ExperimentReport]
    claims: list[HeadlineClaim]

    @property
    def checks(self) -> list[HeadlineClaim]:
        """The paper checks on :attr:`reports`."""
        return evaluate_checks(self.reports)

    @property
    def all_errors(self) -> np.ndarray:
        return np.array([
            row.relative_error
            for report in self.reports
            for row in report.comparisons
            if np.isfinite(row.relative_error)])

    @property
    def median_relative_error(self) -> float:
        return float(np.median(self.all_errors))

    @property
    def share_within_25_percent(self) -> float:
        errors = self.all_errors
        return float((errors <= 0.25).mean())

    @property
    def claims_held(self) -> int:
        return sum(1 for claim in self.claims if claim.holds)

    def render(self) -> str:
        table = TextTable(["experiment", "rows", "median err",
                           "worst err"], ["", "d", ".1%", ".1%"])
        for report in self.reports:
            errors = [row.relative_error for row in report.comparisons
                      if np.isfinite(row.relative_error)]
            if not errors:
                continue
            table.add_row(report.experiment_id, len(errors),
                          float(np.median(errors)), max(errors))
        lines = [table.render(), ""]
        lines.append(f"overall: {len(self.all_errors)} comparisons, "
                     f"median relative error "
                     f"{self.median_relative_error:.1%}, "
                     f"{self.share_within_25_percent:.0%} within 25%")
        lines.append("")
        lines.append(f"headline claims: {self.claims_held}/"
                     f"{len(self.claims)} hold")
        lines.extend(_listed(self.claims))
        checks = self.checks
        lines.append("")
        lines.append(f"paper checks: {sum(c.holds for c in checks)}/"
                     f"{len(checks)} hold")
        lines.extend(_listed(checks))
        return "\n".join(lines)


def _listed(claims: list[HeadlineClaim]) -> list[str]:
    return [f"  [{'+' if claim.holds else '!'}] {claim.claim}"
            for claim in claims]


def evaluate_claims(context: ExperimentContext) -> list[HeadlineClaim]:
    """The paper's qualitative findings, checked against the simulation."""
    cloud = context.cloud_result
    ap = context.ap_report
    odr = context.odr_result
    claims: list[HeadlineClaim] = []

    fetch = cloud.fetch_speed_cdf()
    pre = cloud.attempt_speed_cdf()
    claims.append(HeadlineClaim(
        "cloud fetching is ~an order of magnitude faster than "
        "pre-downloading (7-11x)",
        5.0 <= fetch.median / max(pre.median, 1.0) <= 25.0))

    by_class = cloud.failure_ratio_by_class()
    from repro.workload.popularity import PopularityClass
    claims.append(HeadlineClaim(
        "pre-download failures concentrate on unpopular files",
        by_class.get(PopularityClass.UNPOPULAR, 0.0) >
        3 * by_class.get(PopularityClass.POPULAR, 0.0)))

    claims.append(HeadlineClaim(
        "a large minority (~28%) of cloud fetches are impeded",
        0.15 <= cloud.impeded_fetch_share <= 0.45))

    highly = cloud.bandwidth_series(only_highly_popular=True)
    total = cloud.bandwidth_series()
    claims.append(HeadlineClaim(
        "highly popular files burn ~40% of cloud upload bandwidth",
        0.25 <= float(highly.sum() / total.sum()) <= 0.55))

    claims.append(HeadlineClaim(
        "the cloud rejects a small share of fetches at peak (~1.5%)",
        0.0 < cloud.rejection_ratio <= 0.05))

    claims.append(HeadlineClaim(
        "smart APs fail on ~42% of unpopular files",
        0.30 <= ap.unpopular_failure_ratio <= 0.55))

    claims.append(HeadlineClaim(
        "insufficient seeds cause the great majority of AP failures",
        ap.failure_cause_breakdown().get("insufficient_seeds", 0.0) >
        0.7))

    claims.append(HeadlineClaim(
        "ODR roughly halves (or better) the impeded-fetch share",
        odr.impeded_share < cloud.impeded_fetch_share / 2))

    reduction = odr.cloud_bandwidth_reduction(
        context.cloud_only_result)
    claims.append(HeadlineClaim(
        "ODR cuts cloud upload bandwidth by ~35%",
        0.25 <= reduction <= 0.45))

    claims.append(HeadlineClaim(
        "ODR eliminates write-path-limited downloads (Bottleneck 4)",
        odr.write_path_limited_share == 0.0))

    claims.append(HeadlineClaim(
        "ODR collapses unpopular-file failures vs smart APs",
        odr.unpopular_failure_ratio < ap.unpopular_failure_ratio / 2))

    fig0607 = REGISTRY["fig06_07"](context)
    claims.append(HeadlineClaim(
        "the SE model fits popularity better than Zipf",
        bool(fig0607.data["se_beats_zipf"])))

    return claims


#: Paper checks on the drivers' own rows: experiment id -> (row
#: quantity, bound) pairs.  A float bound is a ceiling on the row's
#: relative error against the paper; a ``(low, high)`` pair is an open
#: range for its measured value, ``None`` leaving that side unbounded.
ROW_CHECKS: dict[str, tuple[tuple[str, float | tuple], ...]] = {
    "workload_stats": (
        ("video request share", 0.10),
        ("software request share", 0.30),
        ("unpopular file share", 0.03),
        ("unpopular request share", 0.12),
        # A heavy-tailed per-file demand: +-25% per-seed wobble.
        ("highly popular request share", 0.25),
        ("BitTorrent share", 0.10),
    ),
    "fig05": (
        ("median file size (MB)", 0.10),
        ("mean file size (MB)", 0.10),
        ("share below 8 MB", 0.10),
        ("max file size (GB)", 0.05),
    ),
    "fig06_07": (
        ("Zipf slope a1", (0.7, 1.4)),
        ("Zipf fit avg relative error", (None, 0.5)),
        ("SE fit avg relative error", (None, 0.5)),
    ),
    "fig08": (
        ("fetch median (KBps)", 0.25),
        ("fetch mean (KBps)", 0.25),
        ("pre-download median (KBps)", 0.60),
        ("e2e median (KBps)", 0.30),
        ("fetch/pre median speed-up", (5.0, None)),
    ),
    "fig09": (
        ("pre-download median (min)", 0.40),
        ("fetch median (min)", 0.50),
        ("e2e median (min)", 0.50),
        ("pre/fetch median delay ratio", (4.0, None)),
    ),
    "fig11": (
        ("peak burden (Gbps, rescaled)", (30.0, 45.0)),
        ("highly popular share of burden", (0.25, 0.55)),
        ("fetch rejection ratio", (0.001, 0.05)),
    ),
    "cloud_text": (
        ("cache hit ratio", 0.05),
        ("pre-download traffic overhead", 0.10),
        ("user-side traffic overhead", 0.02),
        ("impeded fetch share", 0.25),
        ("impeded by ISP barrier", 0.40),
    ),
    "fig13_14": (
        ("AP speed median (KBps)", 0.40),
        ("AP speed mean (KBps)", 0.40),
        ("AP delay median (min)", 0.45),
        ("AP delay mean (min)", 0.40),
    ),
    "ap_failures": (
        ("overall failure ratio", 0.35),
        ("unpopular failure ratio", 0.30),
        ("failures from insufficient seeds", (0.7, None)),
    ),
    "table2": (
        ("Newifi NTFS flash replayed max (MBps)", 0.03),
    ),
    "fig16": (
        ("B1 ODR impeded share", (None, 0.13)),
        ("B2 cloud bandwidth reduction", (0.25, 0.45)),
        # Back under the 30 Gbps purchased capacity.
        ("B2 projected peak burden (Gbps)", (None, 30.0)),
    ),
    "fig17": (
        ("ODR fetch median (KBps)", 0.20),
        ("ODR fetch mean (KBps)", 0.20),
        # The testbed line caps ODR's max at ~2.37 MBps.
        ("ODR fetch max (MBps)", 0.05),
        ("median improvement over Xuanfeng", (1.1, None)),
    ),
    # The Fig. 16 B2 range, on the backend registry's ODR combination.
    "backend_matrix": (
        ("ODR cloud bandwidth reduction", (0.25, 0.45)),
    ),
}


def _row_check(row: PaperComparison, bound: float | tuple
               ) -> tuple[str, bool]:
    if not isinstance(bound, tuple):
        return (f"{row.quantity} within {bound:.0%} of the paper",
                row.relative_error < bound)
    low, high = bound
    value = row.measured_value
    text = row.quantity
    if low is not None:
        text = f"{low:g} < {text}"
    if high is not None:
        text = f"{text} < {high:g}"
    return text, ((low is None or low < value)
                  and (high is None or value < high))


def _measured(report: ExperimentReport) -> dict[str, float]:
    return {row.quantity: row.measured_value for row in report.comparisons}


def _fig06_07(report: ExperimentReport) -> Iterator[tuple[str, bool]]:
    yield ("SE fits the popularity curve better than Zipf",
           report.data["se_beats_zipf"])
    yield "the SE exponent c is positive", report.data["se"].c > 0


def _fig09(report: ExperimentReport) -> Iterator[tuple[str, bool]]:
    pre, fetch, e2e = (report.data[key] for key in ("pre", "fetch", "e2e"))
    # 89% cache hits: most tasks skip the pre-download wait.
    yield ("the e2e median tracks fetch, not pre-download",
           abs(e2e.median - fetch.median) < abs(e2e.median - pre.median))


def _fig10(report: ExperimentReport) -> Iterator[tuple[str, bool]]:
    ratios = report.data["bucket_ratios"]
    yield "unpopular files fail (> 2%)", ratios[0] > 0.02
    yield ("unpopular files fail > 3x the highly popular",
           ratios[0] > 3 * ratios[-1])
    yield ("failure falls with popularity",
           report.data["decreasing"] or ratios[0] >= max(ratios[1:]))


def _fig11(report: ExperimentReport) -> Iterator[tuple[str, bool]]:
    series = report.data["total_series_gbps"]
    day = int(DAY / BIN_WIDTH)
    yield ("the burden peaks on day 4 or later",
           report.data["peak_day"] >= 4)
    day_three = series[2 * day:3 * day]
    yield ("day 3 peaks above 1.5x its trough (diurnal)",
           day_three.max() > 1.5 * day_three.min())
    yield ("day 7 averages above 1.2x day 1 (rising trend)",
           series[6 * day:].mean() > 1.2 * series[:day].mean())


def _cloud_text(report: ExperimentReport) -> Iterator[tuple[str, bool]]:
    rows = _measured(report)
    # The paper's cache halves it (16.4% -> 8.7%).
    yield ("the cache cuts the failure ratio by >= 40%",
           rows["request-level failure ratio"]
           < 0.6 * rows["failure ratio without the storage pool"])


def _table1(report: ExperimentReport) -> Iterator[tuple[str, bool]]:
    yield "every row equals the paper", report.worst_relative_error() == 0.0
    yield ("the table names the three APs and both SoCs",
           all(name in report.table for name in (
               "HiWiFi", "MiWiFi", "Newifi", "MT7620A", "Broadcom4709")))


def _fig13_14(report: ExperimentReport) -> Iterator[tuple[str, bool]]:
    speed, delay = report.data["ap_speed"], report.data["ap_delay"]
    per_ap = report.data["per_ap"]
    yield ("> 10% of AP speeds are below 5 KBps (fat low tail)",
           speed.probability_below(kbps(5.0)) > 0.10)
    yield ("AP speeds stop at the 2.375 MBps line",
           speed.max <= 2.375e6 + 1e-6)
    yield ("Newifi (NTFS flash) stops at 0.94 MBps",
           per_ap["Newifi"].max <= 0.94e6)
    yield ("HiWiFi (1S) tops Newifi",
           per_ap["HiWiFi (1S)"].max > per_ap["Newifi"].max)
    yield ("the AP delay mean is > 2.5x its median (heavy tail)",
           delay.mean > 2.5 * delay.median)
    yield ("AP delays bunch at the 1 h stagnation give-up",
           delay.probability_below(1.26 * HOUR)
           > delay.probability_below(0.9 * HOUR))
    yield ("20 min < AP delay median < 4 h",
           20 * MINUTE < delay.median < 4 * HOUR)


def _ap_failures(report: ExperimentReport) -> Iterator[tuple[str, bool]]:
    causes = report.data["causes"]
    yield ("insufficient seeds is the top failure cause",
           causes[CAUSE_INSUFFICIENT_SEEDS] == max(causes.values()))


def _table2(report: ExperimentReport) -> Iterator[tuple[str, bool]]:
    yield ("every analytic cell is within 6% of the paper",
           all(row.relative_error < 0.06 for row in report.comparisons
               if "replayed" not in row.quantity))
    rows = _measured(report)
    flash = "Newifi + USB flash drive"
    hdd = "Newifi + USB hard disk drive"

    def speed(device: str, filesystem: str) -> float:
        return rows[f"{device} / {filesystem} max speed"]

    yield ("NTFS is the slowest filesystem on the flash drive",
           speed(flash, "ntfs") < min(speed(flash, "fat"),
                                      speed(flash, "ext4")))
    yield ("the USB HDD is at least as fast as the flash drive on "
           "every filesystem",
           all(speed(hdd, fs) >= speed(flash, fs)
               for fs in ("fat", "ntfs", "ext4")))


def _fig16(report: ExperimentReport) -> Iterator[tuple[str, bool]]:
    rows = _measured(report)
    yield ("ODR more than halves the impeded share (B1)",
           rows["B1 ODR impeded share"]
           < rows["B1 baseline impeded share (cloud)"] / 2)
    yield ("ODR more than halves the AP unpopular failure (B3)",
           rows["B3 ODR unpopular failure"]
           < rows["B3 baseline unpopular failure (APs)"] / 2)
    yield ("ODR has no write-path-limited downloads (B4)",
           rows["B4 ODR write-path-limited share"] == 0.0)
    yield "< 2% wrong decisions", report.data["wrong_decisions"] < 0.02


def _fig17(report: ExperimentReport) -> Iterator[tuple[str, bool]]:
    odr, xuanfeng = report.data["odr_cdf"], report.data["xuanfeng_cdf"]
    # Thinner, not halved: cloud->AP staging for slow-line users still
    # shows its WAN leg here (Fig. 16's B1 is what collapses).
    yield ("ODR's share below 125 KBps is < 0.75x Xuanfeng's",
           odr.probability_below(125e3)
           < 0.75 * xuanfeng.probability_below(125e3))


#: Paper checks that read several rows or the report's ``data``:
#: experiment id -> function yielding (check, holds) pairs.
SHAPE_CHECKS = {
    "fig06_07": _fig06_07,
    "fig09": _fig09,
    "fig10": _fig10,
    "fig11": _fig11,
    "cloud_text": _cloud_text,
    "table1": _table1,
    "fig13_14": _fig13_14,
    "ap_failures": _ap_failures,
    "table2": _table2,
    "fig16": _fig16,
    "fig17": _fig17,
}


def evaluate_checks(reports: Iterable[ExperimentReport]
                    ) -> list[HeadlineClaim]:
    """The paper checks of ``reports``, in report order.  An experiment
    whose driver failed has no report and so no checks; a check whose
    row or data entry is missing raises ``KeyError`` rather than being
    skipped."""
    checks: list[HeadlineClaim] = []
    for report in reports:
        experiment_id = report.experiment_id
        rows = {row.quantity: row for row in report.comparisons}
        results = [_row_check(rows[quantity], bound) for quantity, bound
                   in ROW_CHECKS.get(experiment_id, ())]
        shape = SHAPE_CHECKS.get(experiment_id)
        if shape is not None:
            results.extend(shape(report))
        checks.extend(HeadlineClaim(f"{experiment_id}: {text}", bool(holds))
                      for text, holds in results)
    return checks


def build_scorecard(context: ExperimentContext | None = None
                    ) -> Scorecard:
    context = context or default_context()
    reports = run_all(context)
    return Scorecard(reports=reports, claims=evaluate_claims(context))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    args = parser.parse_args(argv)
    scorecard = build_scorecard(default_context(scale=args.scale))
    print(scorecard.render())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
