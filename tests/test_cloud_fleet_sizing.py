"""Tests for the bounded pre-downloader fleet (VM queueing)."""

import pytest

from repro.cloud import CloudConfig, XuanfengCloud
from repro.workload import WorkloadConfig, WorkloadGenerator
from repro.workload.popularity import PopularityClass

SMALL = WorkloadConfig(scale=0.0015, seed=23)
COLD = {klass: 0.0 for klass in PopularityClass}


@pytest.fixture(scope="module")
def small_workload():
    return WorkloadGenerator(SMALL).generate()


class TestBoundedFleet:
    def test_unbounded_fleet_has_no_vm_queue(self, small_workload):
        cloud = XuanfengCloud(CloudConfig(scale=SMALL.scale))
        cloud.run(small_workload)
        assert cloud._vm_slots is None

    def test_tiny_fleet_queues_and_lengthens_delays(self,
                                                    small_workload):
        roomy = XuanfengCloud(CloudConfig(
            scale=SMALL.scale, precached_probability=COLD))
        roomy_result = roomy.run(small_workload)

        starved = XuanfengCloud(CloudConfig(
            scale=SMALL.scale, precached_probability=COLD,
            predownloader_count=2))
        starved_result = starved.run(small_workload)
        small_result = XuanfengCloud(CloudConfig(
            scale=SMALL.scale, precached_probability=COLD,
            predownloader_count=8)).run(small_workload)

        # The starved fleet really queued work...
        assert starved._vm_slots is not None
        assert starved._vm_slots.peak_queue_length > 0
        assert starved._vm_slots.mean_wait_time > 0.0
        # ...which shows up as longer pre-download delays, lengthening
        # as the fleet shrinks...
        delays = [result.attempt_delay_cdf().mean for result in
                  (starved_result, small_result, roomy_result)]
        assert delays[0] > delays[2]
        assert delays[0] > delays[1] >= delays[2] * 0.95
        # ...while queueing does not change what ultimately succeeds.
        failures = [result.request_failure_ratio for result in
                    (starved_result, small_result, roomy_result)]
        assert max(failures) - min(failures) < 0.05

    def test_fleet_statistics_count_every_attempt(self, small_workload):
        cloud = XuanfengCloud(CloudConfig(
            scale=SMALL.scale, precached_probability=COLD,
            predownloader_count=4))
        cloud.run(small_workload)
        # One VM slot per real pre-download session (coalesced joiners
        # share the owner's session and take no slot).
        assert cloud._vm_slots.total_acquired == cloud.fleet.attempts

    def test_outcomes_are_equivalent_when_fleet_is_large(
            self, small_workload):
        # A fleet far bigger than the concurrency never queues, so the
        # success statistics match the unbounded run.
        bounded = XuanfengCloud(CloudConfig(
            scale=SMALL.scale, predownloader_count=100000))
        result = bounded.run(small_workload)
        assert bounded._vm_slots.mean_wait_time == 0.0
        assert 0.0 <= result.request_failure_ratio <= 0.2
