"""Integration tests for the section 6 replay evaluation."""

import pytest

from repro.core import (
    AlwaysHybridStrategy,
    AmsStrategy,
    CloudOnlyStrategy,
    OdrMiddleware,
    OdrStrategy,
    ReplayEvaluator,
    SmartApOnlyStrategy,
)
from repro.core.decision import Action


@pytest.fixture(scope="module")
def evaluator(workload, cloud):
    return ReplayEvaluator(workload.catalog, cloud.database)


@pytest.fixture(scope="module")
def odr_result(evaluator, benchmark_sample, cloud):
    strategy = OdrStrategy(OdrMiddleware(cloud.database))
    return evaluator.replay(benchmark_sample, strategy)


@pytest.fixture(scope="module")
def cloud_only_result(evaluator, benchmark_sample, cloud):
    return evaluator.replay(benchmark_sample,
                            CloudOnlyStrategy(cloud.database))


@pytest.fixture(scope="module")
def ap_only_result(evaluator, benchmark_sample):
    return evaluator.replay(benchmark_sample, SmartApOnlyStrategy())


class TestReplayShape:
    def test_one_outcome_per_request(self, odr_result, benchmark_sample):
        assert len(odr_result.outcomes) == len(benchmark_sample)

    def test_route_mix_sums_to_one(self, odr_result):
        assert sum(odr_result.route_mix().values()) == pytest.approx(1.0)

    def test_odr_uses_multiple_routes(self, odr_result):
        mix = odr_result.route_mix()
        assert mix.get("cloud", 0.0) > 0.2
        assert mix.get("smart_ap", 0.0) + \
            mix.get("user_device", 0.0) > 0.2

    def test_wan_speed_capped_by_testbed_line(self, odr_result):
        for outcome in odr_result.outcomes:
            assert outcome.wan_speed <= 2.375e6 + 1e-6

    def test_failed_outcomes_have_zero_speed_in_cdf(self, odr_result):
        cdf = odr_result.fetch_speed_cdf()
        failures = sum(1 for o in odr_result.outcomes if not o.success)
        assert cdf.probability_at_most(0.0) * len(cdf) >= failures

    def test_empty_replay_rejected(self, evaluator, cloud):
        with pytest.raises(ValueError):
            evaluator.replay([], CloudOnlyStrategy(cloud.database))


class TestBottleneckImprovements:
    """ODR vs the baselines -- the Figure 16 story."""

    def test_b1_odr_beats_cloud_only(self, odr_result,
                                     cloud_only_result):
        assert odr_result.impeded_share < \
            cloud_only_result.impeded_share

    def test_b2_odr_saves_cloud_bandwidth(self, odr_result,
                                          cloud_only_result):
        reduction = odr_result.cloud_bandwidth_reduction(
            cloud_only_result)
        assert 0.20 <= reduction <= 0.50   # paper: 35%

    def test_b3_odr_beats_ap_only_on_unpopular(self, odr_result,
                                               ap_only_result):
        assert ap_only_result.unpopular_failure_ratio > 0.25
        assert odr_result.unpopular_failure_ratio < \
            ap_only_result.unpopular_failure_ratio / 2

    def test_b4_odr_avoids_write_path_limits(self, odr_result,
                                             ap_only_result):
        assert odr_result.write_path_limited_share == 0.0
        assert ap_only_result.write_path_limited_share > 0.03

    def test_odr_fetch_speed_improves_on_cloud(self, odr_result,
                                               cloud_only_result):
        assert odr_result.fetch_speed_cdf().median > \
            cloud_only_result.fetch_speed_cdf().median

    def test_wrong_decisions_are_rare(self, odr_result):
        assert odr_result.wrong_decision_share < 0.02   # paper: <1%

    def test_ap_only_burns_no_cloud_bandwidth(self, ap_only_result,
                                              cloud_only_result):
        assert ap_only_result.cloud_bandwidth_bytes < \
            0.1 * cloud_only_result.cloud_bandwidth_bytes


class TestOtherBaselines:
    def test_always_hybrid_hits_b4(self, evaluator, benchmark_sample,
                                   cloud, odr_result):
        result = evaluator.replay(benchmark_sample,
                                  AlwaysHybridStrategy(cloud.database))
        assert result.write_path_limited_share > 0.03
        mix = result.route_mix()
        assert mix.get("cloud+ap", 0.0) > 0.8
        # Staging everything through the cloud forgoes ODR's B2 saving.
        assert odr_result.cloud_bandwidth_bytes < \
            0.75 * result.cloud_bandwidth_bytes

    def test_ams_ignores_b1_and_b4(self, evaluator, benchmark_sample,
                                   cloud, odr_result):
        result = evaluator.replay(benchmark_sample,
                                  AmsStrategy(cloud.database))
        assert result.write_path_limited_share > 0.0
        assert result.impeded_share >= odr_result.impeded_share
