"""Tests for the BBA-0 rate map and streaming-verdict refinement."""

import numpy as np
import pytest

from repro.core.bba import (
    BbaConfig,
    DEFAULT_LADDER,
    simulate_playback,
    streaming_verdict,
)
from repro.paper import IMPEDED_FETCH_THRESHOLD
from repro.sim.clock import kbps


class TestRateMap:
    def test_reservoir_pins_minimum_rate(self):
        config = BbaConfig()
        assert config.rate_for_buffer(0.0) == DEFAULT_LADDER[0]
        assert config.rate_for_buffer(config.reservoir) == \
            DEFAULT_LADDER[0]

    def test_cushion_pins_maximum_rate(self):
        config = BbaConfig()
        full = config.reservoir + config.cushion
        assert config.rate_for_buffer(full) == DEFAULT_LADDER[-1]
        assert config.rate_for_buffer(full + 50) == DEFAULT_LADDER[-1]

    def test_map_is_monotone_and_on_the_ladder(self):
        config = BbaConfig()
        previous = 0.0
        for buffer_level in np.linspace(0, 80, 200):
            rate = config.rate_for_buffer(buffer_level)
            assert rate in config.ladder
            assert rate >= previous
            previous = rate

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BbaConfig(ladder=())
        with pytest.raises(ValueError):
            BbaConfig(ladder=(2.0, 1.0))
        with pytest.raises(ValueError):
            BbaConfig(reservoir=0.0)


class TestPlayback:
    def test_fast_link_plays_at_top_rate_without_stalls(self):
        result = simulate_playback([kbps(400.0)] * 600)
        assert result.rebuffer_seconds == 0.0
        assert result.mean_bitrate > 0.8 * DEFAULT_LADDER[-1]
        assert result.played_seconds > 500

    def test_steady_slow_link_degrades_instead_of_stalling(self):
        # 100 KBps is 'impeded' by the hard 125 KBps rule, yet BBA plays
        # it smoothly at a lower rung.
        result = simulate_playback([kbps(100.0)] * 900)
        assert result.rebuffer_ratio < 0.02
        assert result.mean_bitrate < DEFAULT_LADDER[-1]
        assert result.mean_bitrate >= DEFAULT_LADDER[0]

    def test_starving_link_rebuffers(self):
        result = simulate_playback([kbps(10.0)] * 900)
        assert result.rebuffer_ratio > 0.3 or result.played_seconds == 0

    def test_bursty_profile_switches_bitrates(self):
        profile = ([kbps(400.0)] * 120 + [kbps(40.0)] * 120) * 3
        result = simulate_playback(profile)
        assert result.bitrate_switches >= 2

    def test_startup_counts_before_playback(self):
        result = simulate_playback([kbps(50.0)] * 300)
        assert result.startup_delay > 0.0

    def test_step_validation(self):
        with pytest.raises(ValueError):
            simulate_playback([1.0], step=0.0)


class TestStreamingVerdict:
    def test_steady_sub_threshold_is_viable_under_bba(self):
        assert streaming_verdict([kbps(100.0)] * 900)

    def test_dead_link_is_not_viable(self):
        assert not streaming_verdict([0.001] * 300)

    def test_fast_link_is_viable(self):
        assert streaming_verdict([kbps(500.0)] * 600)

    def test_bba_refines_the_hard_threshold(self):
        """The paper's point: a buffer-based policy reverses some of
        ODR's hard-coded verdicts -- a steady 100 KBps flow is viable,
        while an intermittent flow with a *higher* average can fail."""
        steady_slow = [kbps(100.0)] * 900            # avg 100 KBps
        bursty = ([kbps(800.0)] * 45 + [0.0] * 255) * 3   # avg 120 KBps
        hard_rule = lambda profile: np.mean(profile) >= kbps(125.0)
        assert not hard_rule(steady_slow) and \
            streaming_verdict(steady_slow)
        assert not streaming_verdict(bursty, rebuffer_tolerance=0.02)

    def test_bba_rescues_impeded_fetches_of_the_week(self, cloud_result):
        """Section 6.1 on the simulated week's fetch speeds: BBA-0 plays
        a meaningful share of the 'impeded' fetches at a lower rung and
        almost never rejects one the hard rule passes."""
        rng = np.random.default_rng(99)
        speeds = [record.average_speed
                  for record in cloud_result.fetch_records
                  if not record.rejected][:1500]
        verdicts = []
        for speed in speeds:
            # A mildly bursty per-second profile around the flow's mean.
            profile = speed * rng.uniform(0.7, 1.3, size=240)
            verdicts.append((speed >= IMPEDED_FETCH_THRESHOLD,
                             streaming_verdict(profile)))
        hard_ok = sum(1 for hard, _bba in verdicts if hard)
        bba_ok = sum(1 for _hard, bba in verdicts if bba)
        rescued = sum(1 for hard, bba in verdicts if bba and not hard)
        lost = sum(1 for hard, bba in verdicts if hard and not bba)
        assert lost < 0.02 * len(verdicts)
        assert bba_ok > hard_ok
        assert rescued > 0.05 * len(verdicts)
