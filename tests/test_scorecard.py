"""Tests for the reproduction scorecard -- the regression guard."""

import numpy as np
import pytest

from repro.experiments.base import ExperimentReport
from repro.experiments.context import ExperimentContext
from repro.experiments.runner import ORDER
from repro.experiments.scorecard import (
    ROW_CHECKS,
    SHAPE_CHECKS,
    build_scorecard,
    evaluate_checks,
)


@pytest.fixture(scope="module")
def scorecard():
    return build_scorecard(ExperimentContext(scale=0.005, seed=20150222))


class TestScorecard:
    def test_covers_every_experiment(self, scorecard):
        assert len(scorecard.reports) == 15
        assert len(scorecard.all_errors) > 60

    def test_median_relative_error_band(self, scorecard):
        # The guard: reproduction quality must not silently regress.
        assert scorecard.median_relative_error < 0.30

    def test_majority_of_rows_within_25_percent(self, scorecard):
        assert scorecard.share_within_25_percent > 0.5

    def test_headline_claims_mostly_hold(self, scorecard):
        # At this reduced test scale a couple of claims can wobble
        # (rejections are peak-driven); the bulk must hold.
        assert len(scorecard.claims) == 12
        assert scorecard.claims_held >= 10

    def test_render_lists_claims_and_table(self, scorecard):
        text = scorecard.render()
        assert "headline claims" in text
        assert "median relative error" in text
        assert "table2" in text


@pytest.fixture(scope="module")
def default_scorecard(default_context):
    return build_scorecard(default_context)


class TestPaperChecks:
    """The per-experiment paper checks, at the scale they are set for."""

    def test_every_experiment_has_a_check(self):
        assert [eid for eid in ORDER
                if eid not in ROW_CHECKS and eid not in SHAPE_CHECKS] == []

    def test_every_row_check_names_a_row_of_its_report(
            self, default_scorecard):
        assert [report.experiment_id for report in
                default_scorecard.reports] == ORDER
        for report in default_scorecard.reports:
            rows = {row.quantity for row in report.comparisons}
            for quantity, _bound in ROW_CHECKS.get(report.experiment_id,
                                                   ()):
                assert quantity in rows, (report.experiment_id, quantity)

    def test_every_check_holds_at_the_default_scale(
            self, default_scorecard):
        assert [check.claim for check in default_scorecard.checks
                if not check.holds] == []

    def test_se_fits_the_head_no_worse_than_zipf(self, default_context,
                                                 default_scorecard):
        # Figs. 6 vs 7: Zipf overshoots the most popular file.  The
        # report carries the fits but not the curve, so this reads the
        # week's top demand.
        fits = default_scorecard.reports[ORDER.index("fig06_07")].data
        head = default_context.workload.catalog.demands().max()
        rank_one = np.array([1])
        assert abs(fits["se"].predict(rank_one)[0] - head) <= \
            abs(fits["zipf"].predict(rank_one)[0] - head)

    def test_a_missing_row_is_not_skipped(self):
        report = ExperimentReport(experiment_id="fig05", title="")
        report.add("median file size (MB)", 115.0, 111.8)
        with pytest.raises(KeyError, match="mean file size"):
            evaluate_checks([report])

    def test_render_lists_the_checks_under_the_claims(
            self, default_scorecard):
        text = default_scorecard.render()
        claims_at = text.index("headline claims")
        checks_at = text.index(f"paper checks: {len(default_scorecard.checks)}"
                               f"/{len(default_scorecard.checks)} hold")
        assert claims_at < checks_at
        assert "fig11: 30 < peak burden (Gbps, rescaled) < 45" in text
