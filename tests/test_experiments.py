"""Tests for the experiment drivers and the runner."""

import pytest

from repro.experiments import REGISTRY, default_context
from repro.experiments.base import ExperimentReport
from repro.experiments.context import ExperimentContext
from repro.experiments.runner import ORDER, render_experiments_md, run_all
from repro.paper import PaperComparison


@pytest.fixture(scope="module")
def context():
    # A small context shared by every driver test in this module.
    return ExperimentContext(scale=0.004)


class TestRegistry:
    def test_every_paper_artefact_has_a_driver(self):
        expected = {
            "workload_stats", "fig05", "fig06_07", "fig08", "fig09",
            "fig10", "fig11", "cloud_text", "table1", "fig13_14",
            "ap_failures", "table2", "fig16", "fig17",
            "backend_matrix",
        }
        assert expected == set(REGISTRY)

    def test_order_covers_registry(self):
        assert set(ORDER) == set(REGISTRY)


class TestDrivers:
    @pytest.mark.parametrize("experiment_id", sorted(
        ["workload_stats", "fig05", "fig06_07", "table1", "table2"]))
    def test_cheap_drivers_produce_reports(self, context, experiment_id):
        report = REGISTRY[experiment_id](context)
        assert isinstance(report, ExperimentReport)
        assert report.experiment_id == experiment_id
        assert report.comparisons
        rendered = report.render()
        assert report.title in rendered
        assert "paper=" in rendered

    def test_fig05_matches_size_targets(self, context):
        report = REGISTRY["fig05"](context)
        rows = {row.quantity: row for row in report.comparisons}
        assert rows["median file size (MB)"].relative_error < 0.15
        assert rows["share below 8 MB"].relative_error < 0.15

    def test_fig06_07_se_beats_zipf(self, context):
        report = REGISTRY["fig06_07"](context)
        assert report.data["se_beats_zipf"]

    def test_table2_reproduces_the_matrix(self, context):
        report = REGISTRY["table2"](context)
        matrix_rows = [row for row in report.comparisons
                       if "max speed" in row.quantity
                       and "replayed" not in row.quantity]
        assert len(matrix_rows) == 8
        for row in matrix_rows:
            assert row.relative_error < 0.05

    def test_table1_is_exact(self, context):
        report = REGISTRY["table1"](context)
        assert report.worst_relative_error() == 0.0


class TestPaperComparison:
    def test_relative_error(self):
        row = PaperComparison("q", 100.0, 90.0)
        assert row.relative_error == pytest.approx(0.1)

    def test_zero_paper_value(self):
        assert PaperComparison("q", 0.0, 0.0).relative_error == 0.0
        assert PaperComparison("q", 0.0, 1.0).relative_error == \
            float("inf")

    def test_format_row_contains_both_values(self):
        text = PaperComparison("quantity", 1.0, 2.0, "KBps").format_row()
        assert "quantity" in text and "KBps" in text


class TestContextCaching:
    def test_default_context_is_memoised(self):
        assert default_context(0.004) is default_context(0.004)
        assert default_context(0.004) is not default_context(0.0041)

    def test_workload_built_lazily_once(self, context):
        assert context.workload is context.workload


class TestRunnerRendering:
    def test_render_includes_every_report(self, context):
        reports = [REGISTRY["table1"](context),
                   REGISTRY["fig05"](context)]
        document = render_experiments_md(reports, scale=0.004)
        assert "## table1" in document and "## fig05" in document
        assert "paper vs measured" in document


class TestGracefulDegradation:
    """A broken driver becomes a failure entry; the run continues."""

    def test_run_all_survives_a_raising_driver(self, monkeypatch):
        import repro.experiments.runner as runner_module
        calls = []

        def good(ctx):
            calls.append("good")
            return ExperimentReport(experiment_id="good_exp",
                                    title="Good", comparisons=[
                                        PaperComparison(
                                            "metric", 1.0, 1.0)])

        def bad(ctx):
            raise RuntimeError("driver exploded")

        monkeypatch.setattr(runner_module, "REGISTRY",
                            {"bad_exp": bad, "good_exp": good})
        monkeypatch.setattr(runner_module, "ORDER",
                            ["bad_exp", "good_exp"])
        context = ExperimentContext(scale=0.004)
        reports = run_all(context)
        assert [r.experiment_id for r in reports] == ["good_exp"]
        assert calls == ["good"]
        assert len(context.failures) == 1
        failure = context.failures[0]
        assert failure.experiment_id == "bad_exp"
        assert "RuntimeError: driver exploded" in failure.error
        assert "driver exploded" in failure.traceback

    def test_failures_render_into_the_document(self, monkeypatch):
        from repro.experiments.context import ExperimentFailure
        failure = ExperimentFailure(
            experiment_id="fig99", error="ValueError: nope",
            traceback="Traceback ...\nValueError: nope")
        document = render_experiments_md([], scale=0.004,
                                         failures=[failure])
        assert "## fig99: FAILED" in document
        assert "ValueError: nope" in document

    def test_group_runner_collects_failures(self, monkeypatch):
        import repro.scale.runner as scale_runner
        import repro.experiments as experiments_module

        def bad(ctx):
            raise ValueError("group driver broke")

        registry = dict(experiments_module.REGISTRY)
        registry["fig05"] = bad
        monkeypatch.setattr(experiments_module, "REGISTRY", registry)
        task = scale_runner.GroupTask(group="workload", scale=0.004,
                                      seed=20150222)
        result = scale_runner.run_group(task)
        ran = [experiment_id for experiment_id, _ in result.reports]
        assert "fig05" not in ran
        assert "workload_stats" in ran and "fig06_07" in ran
        assert [f.experiment_id for f in result.failures] == ["fig05"]
        assert "group driver broke" in result.failures[0].error


class TestDriversReadRequestColumns:
    """The drivers that walk every request read the request columns, so
    a generated week (a view over its columns) and the same week held
    as a list of records give identical reports and samples."""

    @pytest.fixture(scope="class")
    def contexts(self):
        from repro.workload.generator import GeneratedRequests, Workload
        viewed = ExperimentContext(scale=0.002)
        week = viewed.workload
        assert isinstance(week.requests, GeneratedRequests)
        listed = ExperimentContext(
            scale=0.002,
            _workload=Workload(week.config, week.catalog, week.users,
                               list(week.requests)),
            _cloud_result=viewed.cloud_result)
        return viewed, listed

    @pytest.mark.parametrize("experiment_id",
                             ["workload_stats", "cloud_text"])
    def test_same_report(self, contexts, experiment_id):
        viewed, listed = contexts
        reports = [REGISTRY[experiment_id](context)
                   for context in (viewed, listed)]
        assert reports[0].comparisons == reports[1].comparisons
        assert reports[0].data == reports[1].data

    def test_same_benchmark_sample(self, contexts):
        viewed, listed = contexts
        assert viewed.sample == listed.sample
        assert len(viewed.sample) == 1000
