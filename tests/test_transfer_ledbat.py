"""Tests for the LEDBAT (RFC 6817) controller and scavenging model."""

import numpy as np
import pytest

from repro.sim.clock import DAY
from repro.transfer.ledbat import (
    BottleneckLink,
    LedbatController,
    MIN_CWND,
    TARGET_DELAY,
    simulate_scavenging,
)


class TestBaseDelayTracking:
    def test_base_delay_is_minimum_observed(self):
        controller = LedbatController()
        for delay in (0.12, 0.08, 0.15):
            controller.on_delay_sample(delay, now=1.0)
        assert controller.base_delay == pytest.approx(0.08)

    def test_base_history_is_windowed_by_minutes(self):
        controller = LedbatController()
        controller.on_delay_sample(0.05, now=0.0)
        # Eleven minutes later the old minimum has aged out of the
        # 10-minute history and a higher floor becomes the base.
        for minute in range(1, 13):
            controller.on_delay_sample(0.09, now=60.0 * minute)
        assert controller.base_delay == pytest.approx(0.09)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            LedbatController().on_delay_sample(-0.1, now=0.0)


class TestWindowDynamics:
    def test_grows_when_queue_below_target(self):
        controller = LedbatController()
        before = controller.cwnd
        for _ in range(50):
            controller.on_delay_sample(0.05, now=0.0)   # no queueing
        assert controller.cwnd > before

    def test_shrinks_when_queue_above_target(self):
        controller = LedbatController(cwnd=50.0)
        controller.on_delay_sample(0.05, now=0.0)       # set base
        for _ in range(200):
            controller.on_delay_sample(0.05 + 3 * TARGET_DELAY, now=1.0)
        assert controller.cwnd < 50.0

    def test_converges_to_capacity_with_bounded_queue(self):
        # Against a fixed-capacity link with no competition, LEDBAT
        # should saturate the link while holding the standing queue
        # below (at most near) the 100 ms target.
        link = BottleneckLink(capacity=1e6, propagation_delay=0.02)
        result = simulate_scavenging(link, [0.0] * 3000, step=0.05)
        tail = result.ledbat_rate_series[-100:]
        # Utilises essentially the whole idle link...
        assert np.mean(tail) > 0.9e6
        # ...with a positive but bounded standing queue.
        queueing = link.one_way_delay() - link.propagation_delay
        assert 0.0 < queueing < 1.5 * TARGET_DELAY

    def test_loss_halves_the_window(self):
        controller = LedbatController(cwnd=40.0)
        controller.on_loss()
        assert controller.cwnd == 20.0
        for _ in range(20):
            controller.on_loss()
        assert controller.cwnd == MIN_CWND

    def test_window_never_below_minimum(self):
        controller = LedbatController()
        controller.on_delay_sample(0.01, now=0.0)
        for _ in range(500):
            controller.on_delay_sample(5.0, now=1.0)
        assert controller.cwnd >= MIN_CWND

    def test_sending_rate_follows_window(self):
        controller = LedbatController(cwnd=10.0, rtt_estimate=0.1)
        assert controller.sending_rate() == \
            pytest.approx(10.0 * controller.mss / 0.1)


class TestBottleneckLink:
    def test_queue_grows_when_overloaded(self):
        link = BottleneckLink(capacity=1e6)
        link.advance(foreground_rate=1.5e6, ledbat_rate=0.0, dt=1.0)
        assert link.queue_bytes == pytest.approx(0.5e6)
        assert link.one_way_delay() > link.propagation_delay

    def test_queue_drains_when_idle(self):
        link = BottleneckLink(capacity=1e6, queue_bytes=0.5e6)
        link.advance(0.0, 0.0, dt=1.0)
        assert link.queue_bytes == 0.0

    def test_overflow_reports_loss(self):
        link = BottleneckLink(capacity=1e5, max_queue_bytes=1e5)
        assert link.advance(1e6, 0.0, dt=1.0)
        assert link.queue_bytes == 1e5

    def test_dt_validation(self):
        with pytest.raises(ValueError):
            BottleneckLink(capacity=1e6).advance(0.0, 0.0, dt=0.0)


class TestScavenging:
    def test_ledbat_yields_to_foreground_bursts(self):
        """The property the paper wants for seeding traffic: use idle
        capacity, get out of the way when users arrive."""
        link = BottleneckLink(capacity=1e6, propagation_delay=0.02)
        idle = [0.0] * 1500
        busy = [0.95e6] * 1500
        profile = idle + busy + idle
        result = simulate_scavenging(link, profile, step=0.05)
        rates = np.array(result.ledbat_rate_series)
        idle_rate = rates[1000:1500].mean()
        busy_rate = rates[2500:3000].mean()
        recovery_rate = rates[-300:].mean()
        assert idle_rate > 0.7e6           # scavenges the idle link
        assert busy_rate < 0.35 * idle_rate  # yields under load
        assert recovery_rate > 0.6e6       # and comes back afterwards
        # Foreground keeps the lion's share while busy.
        assert result.foreground_share_when_busy > 0.7

    def test_queueing_delay_stays_bounded(self):
        link = BottleneckLink(capacity=1e6, propagation_delay=0.02)
        result = simulate_scavenging(link, [0.3e6] * 2000, step=0.05)
        assert result.mean_queueing_delay < 3 * TARGET_DELAY

    def test_seeding_scavenges_the_weeks_troughs(self, cloud_result):
        """Section 6.1's LEDBAT seeding on the cloud's upload links: the
        simulated week's day-6 burden, each 5-minute bin compressed to
        one second of fluid simulation (the diurnal shape is what
        matters)."""
        capacity = cloud_result.config.scaled_upload_capacity
        series = cloud_result.bandwidth_series(300.0)
        bins_per_day = int(DAY / 300.0)
        profile = np.repeat(series[5 * bins_per_day:6 * bins_per_day], 10)
        link = BottleneckLink(capacity=capacity, propagation_delay=0.03,
                              max_queue_bytes=0.5 * capacity)
        result = simulate_scavenging(link, list(profile), step=0.1)
        rates = np.array(result.ledbat_rate_series)
        busy = profile > 0.8 * capacity
        idle_rate = rates[profile < 0.5 * capacity].mean()
        # Scavenges real bandwidth off-peak...
        assert idle_rate > 0.2 * capacity
        # ...yields hard when the fetch traffic peaks...
        assert busy.any()
        assert rates[busy].mean() < 0.5 * idle_rate
        # ...and never builds a painful standing queue.
        assert result.mean_queueing_delay < 0.4
