"""Tests for download sessions and the stagnation-timeout rule."""

import numpy as np
import pytest

from repro.cloud import CloudConfig
from repro.cloud.predownload import PreDownloaderFleet
from repro.sim import Simulator
from repro.sim.clock import HOUR, kbps
from repro.transfer.protocols import Protocol
from repro.transfer.session import (
    DownloadSession,
    MAX_SESSION_DURATION,
    STAGNATION_TIMEOUT,
    SessionLimits,
)
from repro.transfer.source import (
    CAUSE_INSUFFICIENT_SEEDS,
    CLOUD_VANTAGE,
    HOME_VANTAGE,
    HttpFtpSource,
    P2PSwarmSource,
)
from repro.transfer.swarm import Swarm


def reliable_source(rate_median=kbps(200.0)):
    return HttpFtpSource(drop_probability=0.0, rate_median=rate_median,
                         rate_sigma=0.0)


def dead_source():
    return P2PSwarmSource(Swarm("dead", 0.0))


class TestSessionLimits:
    def test_effective_cap_is_min_of_positive_caps(self):
        limits = SessionLimits(rate_caps=(100.0, 50.0, 0.0))
        assert limits.effective_cap == 50.0

    def test_no_caps_means_unbounded(self):
        assert SessionLimits().effective_cap == float("inf")


class TestSuccessfulSession:
    def test_duration_is_size_over_rate(self):
        session = DownloadSession(reliable_source(), 1e6, HOME_VANTAGE,
                                  mid_failure_probability=0.0)
        outcome = session.simulate(np.random.default_rng(0))
        assert outcome.success
        assert outcome.average_rate == pytest.approx(kbps(200.0))
        assert outcome.duration == pytest.approx(1e6 / kbps(200.0))
        assert outcome.bytes_obtained == 1e6
        assert outcome.completed_fraction == 1.0

    def test_rate_caps_bind(self):
        limits = SessionLimits(rate_caps=(kbps(50.0),))
        session = DownloadSession(reliable_source(), 1e6, HOME_VANTAGE,
                                  limits=limits,
                                  mid_failure_probability=0.0)
        outcome = session.simulate(np.random.default_rng(1))
        assert outcome.average_rate == pytest.approx(kbps(50.0))

    def test_peak_rate_at_least_average(self):
        session = DownloadSession(reliable_source(), 1e6, HOME_VANTAGE,
                                  mid_failure_probability=0.0)
        for seed in range(20):
            outcome = session.simulate(np.random.default_rng(seed))
            assert outcome.peak_rate >= outcome.average_rate

    def test_traffic_includes_overhead(self):
        session = DownloadSession(reliable_source(), 1e6, HOME_VANTAGE,
                                  mid_failure_probability=0.0)
        outcome = session.simulate(np.random.default_rng(2))
        assert 1.07e6 <= outcome.traffic <= 1.10e6

    def test_p2p_traffic_is_heavier(self):
        swarm_source = P2PSwarmSource(Swarm("hot", 1000.0))
        session = DownloadSession(swarm_source, 1e6, HOME_VANTAGE,
                                  mid_failure_probability=0.0)
        outcome = session.simulate(np.random.default_rng(3))
        assert outcome.success
        assert 1.5e6 <= outcome.traffic <= 2.5e6


class TestFailures:
    def test_dead_source_stalls_for_the_stagnation_timeout(self):
        session = DownloadSession(dead_source(), 1e8, HOME_VANTAGE)
        outcome = session.simulate(np.random.default_rng(4))
        assert not outcome.success
        assert outcome.failure_cause == CAUSE_INSUFFICIENT_SEEDS
        assert STAGNATION_TIMEOUT <= outcome.duration <= \
            1.25 * STAGNATION_TIMEOUT
        assert outcome.bytes_obtained < 1e6   # a trickle at most

    def test_mid_failure_yields_partial_bytes(self):
        session = DownloadSession(reliable_source(), 1e7, HOME_VANTAGE,
                                  mid_failure_probability=1.0)
        outcome = session.simulate(np.random.default_rng(5))
        assert not outcome.success
        assert 0.0 < outcome.bytes_obtained < 1e7
        assert outcome.duration > STAGNATION_TIMEOUT

    def test_too_slow_to_finish_becomes_a_failure(self):
        # 4 GB at 2 KBps needs ~23 days >> the 7-day session bound.
        session = DownloadSession(reliable_source(kbps(2.0)), 4e9,
                                  HOME_VANTAGE,
                                  mid_failure_probability=0.0)
        outcome = session.simulate(np.random.default_rng(6))
        assert not outcome.success
        assert outcome.duration == pytest.approx(MAX_SESSION_DURATION)
        assert outcome.bytes_obtained < 4e9

    def test_failure_traffic_proportional_to_partial_bytes(self):
        session = DownloadSession(reliable_source(), 1e7, HOME_VANTAGE,
                                  mid_failure_probability=1.0)
        outcome = session.simulate(np.random.default_rng(7))
        fraction = outcome.bytes_obtained / 1e7
        assert outcome.traffic <= 1.10 * 1e7 * fraction + 1.0


class TestValidationAndProcessForm:
    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            DownloadSession(reliable_source(), -1.0, HOME_VANTAGE)

    def test_run_yields_duration_on_the_simulator(self):
        sim = Simulator()
        session = DownloadSession(reliable_source(), 1e6, HOME_VANTAGE,
                                  mid_failure_probability=0.0)
        process = sim.process(session.run(np.random.default_rng(8)))
        sim.run()
        outcome = process.result
        assert outcome.success
        assert sim.now == pytest.approx(outcome.duration)

    def test_simulate_is_deterministic_given_rng(self):
        session = DownloadSession(reliable_source(), 1e6, HOME_VANTAGE)
        a = session.simulate(np.random.default_rng(9))
        b = session.simulate(np.random.default_rng(9))
        assert a.duration == b.duration
        assert a.traffic == b.traffic


class TestStagnationTimeoutSweep:
    """The one-hour rule: a file whose pre-download stagnates for an
    hour "can hardly be successfully pre-downloaded even if the timeout
    threshold is set to be one week".  Stalls come from dead sources, so
    more patience buys no successes; it only wastes more time."""

    TIMEOUTS = (0.25 * HOUR, 1.0 * HOUR, 4.0 * HOUR, 12.0 * HOUR)

    def test_patience_buys_no_successes_only_waste(self,
                                                   default_context):
        # The first 1200 requests of the default scale-0.02 week; those
        # of the shared scale-0.005 week do not order the waste.
        week = default_context.workload
        requests = week.requests[:1200]
        ratios, wasted = [], []
        for timeout in self.TIMEOUTS:
            fleet = PreDownloaderFleet(CloudConfig(
                scale=default_context.scale, stagnation_timeout=timeout))
            limits = SessionLimits(rate_caps=(2.5e6,),
                                   stagnation_timeout=timeout)
            rng = np.random.default_rng(int(timeout))
            failures, waste = 0, 0.0
            for request in requests:
                record = week.catalog[request.file_id]
                outcome = DownloadSession(
                    fleet.source_for(record.file_id, record.protocol,
                                     record.weekly_demand),
                    record.size, CLOUD_VANTAGE, limits=limits) \
                    .simulate(rng)
                if not outcome.success:
                    failures += 1
                    waste += outcome.duration
            ratios.append(failures / len(requests))
            wasted.append(waste / HOUR)
        # Failure ratios stay flat from 15 minutes to 12 hours...
        assert max(ratios) - min(ratios) < 0.05
        # ...but the waste grows with the threshold (sub-linearly: the
        # week-long too-slow-to-finish failures are a constant floor)...
        assert wasted == sorted(wasted)
        assert wasted[-1] > 2.0 * wasted[1]
        # ...so one hour sits at the knee.
        assert wasted[1] < 2.5 * wasted[0]
