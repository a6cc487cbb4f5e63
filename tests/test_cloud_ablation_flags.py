"""Tests for the cloud's ablation switches (cache / privileged paths)."""

import pytest

from repro.cloud import CloudConfig, XuanfengCloud
from repro.netsim.isp import ISP, MAJOR_ISPS
from repro.sim.clock import kbps
from repro.workload import WorkloadConfig, WorkloadGenerator

SMALL = WorkloadConfig(scale=0.002, seed=11)


@pytest.fixture(scope="module")
def small_workload():
    return WorkloadGenerator(SMALL).generate()


class TestCacheSwitch:
    def test_cache_off_means_no_hits_and_more_failures(self,
                                                       small_workload):
        on = XuanfengCloud(CloudConfig(scale=SMALL.scale)) \
            .run(small_workload)
        off = XuanfengCloud(CloudConfig(scale=SMALL.scale,
                                        collaborative_cache=False)) \
            .run(small_workload)
        assert off.cache_hit_ratio == 0.0
        # The paper's counterfactual: the pool halves failures (8.7%
        # with it, 16.4% without).
        assert off.request_failure_ratio > 1.8 * on.request_failure_ratio
        # Every request pays a pre-download attempt without the cache.
        assert off.fleet.attempts >= len(small_workload.requests)
        assert on.fleet.attempts < 0.5 * off.fleet.attempts
        assert off.fleet.traffic_bytes > 3.0 * on.fleet.traffic_bytes


class TestPrivilegedPathSwitch:
    def test_isp_blind_selection_ignores_the_home_group(self):
        config = CloudConfig(scale=0.01, privileged_paths=False)
        from repro.cloud.upload import UploadingServers
        uploads = UploadingServers(config)
        candidates = uploads.candidate_groups(ISP.CERNET)
        assert len(candidates) == 2
        # Headroom order, not home-first: CERNET's tiny pool is never
        # the most-headroom group at rest.
        assert candidates[0] is not ISP.CERNET

    def test_isp_blind_cloud_degrades_fetches(self, workload,
                                              cloud_result):
        # The shared week: at scale 0.002 the ISP-blind cloud's impeded
        # share is only ~1.3x the aware one's.
        blind = XuanfengCloud(CloudConfig(scale=cloud_result.config.scale,
                                          privileged_paths=False)) \
            .run(workload)
        assert blind.impeded_fetch_share > \
            1.5 * cloud_result.impeded_fetch_share
        assert blind.fetch_speed_cdf().median < \
            0.6 * cloud_result.fetch_speed_cdf().median
