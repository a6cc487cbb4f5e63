"""Tests for the pre-staging (water-filling) scheduler."""

import numpy as np
import pytest

from repro.analysis.timeseries import bin_rate_series
from repro.core.prestaging import (
    DeferrableFlow,
    PrestagingScheduler,
    deferrable_from_flows,
)
from repro.sim.clock import HOUR


class TestDeferrableFlow:
    def test_validation(self):
        with pytest.raises(ValueError):
            DeferrableFlow("f", volume_bytes=0.0, release_time=0.0,
                           deadline=10.0)
        with pytest.raises(ValueError):
            DeferrableFlow("f", volume_bytes=1.0, release_time=10.0,
                           deadline=5.0)


class TestWaterFilling:
    def test_fills_the_trough_first(self):
        # Series: high, low, high. A flow windowed over all three bins
        # should pour into the middle.
        scheduler = PrestagingScheduler([10.0, 1.0, 10.0], bin_width=1.0)
        flow = DeferrableFlow("f", volume_bytes=4.0, release_time=0.0,
                              deadline=3.0)
        result = scheduler.schedule([flow])
        assert result.scheduled_series[1] == pytest.approx(5.0)
        assert result.scheduled_series[0] == pytest.approx(10.0)
        assert result.scheduled_series[2] == pytest.approx(10.0)

    def test_levels_rise_evenly_past_the_first_step(self):
        scheduler = PrestagingScheduler([0.0, 2.0, 4.0], bin_width=1.0)
        flow = DeferrableFlow("f", volume_bytes=6.0, release_time=0.0,
                              deadline=3.0)
        result = scheduler.schedule([flow])
        # Pour 6 B: level ends at 4 exactly (bins 0 and 1 fill to 4).
        assert result.scheduled_series == pytest.approx([4.0, 4.0, 4.0])

    def test_overflow_spreads_evenly_when_window_is_level(self):
        scheduler = PrestagingScheduler([5.0, 5.0], bin_width=1.0)
        flow = DeferrableFlow("f", volume_bytes=4.0, release_time=0.0,
                              deadline=2.0)
        result = scheduler.schedule([flow])
        assert result.scheduled_series == pytest.approx([7.0, 7.0])

    def test_volume_is_conserved(self):
        rng = np.random.default_rng(0)
        base = rng.uniform(0, 10, 48)
        scheduler = PrestagingScheduler(base, bin_width=300.0)
        flows = [DeferrableFlow(f"f{i}",
                                volume_bytes=rng.uniform(1e3, 1e5),
                                release_time=rng.uniform(0, 6000),
                                deadline=rng.uniform(8000, 14000))
                 for i in range(20)]
        result = scheduler.schedule(flows)
        poured = (result.scheduled_series - result.baseline_series) \
            .sum() * 300.0
        assert poured == pytest.approx(
            sum(flow.volume_bytes for flow in flows), rel=1e-6)

    def test_window_is_respected(self):
        scheduler = PrestagingScheduler([0.0] * 10, bin_width=1.0)
        flow = DeferrableFlow("f", volume_bytes=5.0, release_time=3.0,
                              deadline=6.0)
        result = scheduler.schedule([flow])
        for index, value in enumerate(result.scheduled_series):
            if index < 3 or index >= 6:
                assert value == 0.0

    def test_peak_reduction_on_a_diurnal_profile(self):
        # A peaky inelastic series plus elastic flows released at the
        # peak but deferrable to the trough: the peak must drop.
        base = np.array([2.0, 10.0, 2.0, 1.0] * 6)
        scheduler = PrestagingScheduler(base, bin_width=1.0)
        naive = base.copy()
        flows = []
        for i, peak_bin in enumerate(range(1, 24, 4)):
            flows.append(DeferrableFlow(
                f"f{i}", volume_bytes=3.0,
                release_time=float(peak_bin),
                deadline=float(min(peak_bin + 4, 24))))
            naive[peak_bin] += 3.0
        result = scheduler.schedule(flows)
        assert result.scheduled_peak < naive.max()
        assert result.peak_reduction >= 0.0

    def test_out_of_series_window_rejected(self):
        scheduler = PrestagingScheduler([1.0, 1.0], bin_width=1.0)
        flow = DeferrableFlow("f", volume_bytes=1.0, release_time=50.0,
                              deadline=60.0)
        with pytest.raises(ValueError):
            scheduler.schedule([flow])

    def test_scheduler_validation(self):
        with pytest.raises(ValueError):
            PrestagingScheduler([], bin_width=1.0)
        with pytest.raises(ValueError):
            PrestagingScheduler([1.0], bin_width=0.0)


class TestWaterFillingProperties:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(base=st.lists(st.floats(min_value=0.0, max_value=20.0),
                         min_size=4, max_size=30),
           volumes=st.lists(st.floats(min_value=0.1, max_value=50.0),
                            min_size=1, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_never_worse_than_uniform_spreading(self, base, volumes):
        """Water-filling a flow over its window never yields a higher
        peak than spreading the same volume uniformly over the window
        (the naive schedule)."""
        import numpy as np
        scheduler = PrestagingScheduler(base, bin_width=1.0)
        flows = [DeferrableFlow(f"f{i}", volume_bytes=v,
                                release_time=0.0,
                                deadline=float(len(base)))
                 for i, v in enumerate(volumes)]
        result = scheduler.schedule(flows)
        uniform = np.asarray(base) + sum(volumes) / len(base)
        assert result.scheduled_peak <= uniform.max() + 1e-6

    @given(base=st.lists(st.floats(min_value=0.0, max_value=20.0),
                         min_size=4, max_size=30),
           volume=st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=80, deadline=None)
    def test_single_flow_reaches_the_exact_water_level(self, base,
                                                       volume):
        import numpy as np
        scheduler = PrestagingScheduler(base, bin_width=1.0)
        flow = DeferrableFlow("f", volume_bytes=volume,
                              release_time=0.0,
                              deadline=float(len(base)))
        result = scheduler.schedule([flow])
        series = result.scheduled_series
        # Volume conserved exactly...
        poured = (series - np.asarray(base)).sum()
        assert poured == pytest.approx(volume, rel=1e-6)
        # ...and the filled bins share one level: every raised bin sits
        # at the max of the raised set.
        raised = series[series > np.asarray(base) + 1e-9]
        if len(raised) > 1:
            assert raised.max() - raised.min() < 1e-6


class TestFlowAdapter:
    def test_adapts_cloud_fetch_flows(self):
        from repro.cloud.system import FetchFlow
        flows = [FetchFlow(start=0.0, end=100.0, rate=1e5,
                           highly_popular=False),
                 FetchFlow(start=50.0, end=50.0, rate=1e5,
                           highly_popular=True),
                 FetchFlow(start=900.0, end=950.0, rate=1e5,
                           highly_popular=False)]
        deferrables, leftovers = deferrable_from_flows(
            flows, horizon=1000.0, slack=600.0)
        assert len(deferrables) == 1     # zero-duration flow dropped...
        assert deferrables[0].volume_bytes == pytest.approx(1e7)
        assert deferrables[0].deadline == 600.0
        # ...and the late flow whose window spills the horizon is a
        # leftover, not clipped.
        assert len(leftovers) == 1
        assert leftovers[0].start == 900.0

    def test_half_elastic_week_flattens_the_peak(self, cloud_result):
        """Pre-staging on the simulated week: every second fetch may
        wait 8 h.  The series is padded by one slack window past the
        week, so late-week deferrals land in next week's trough instead
        of being clipped."""
        width, slack = 300.0, 8 * HOUR
        flows = [flow for flow in cloud_result.flows if not flow.rejected]
        padded_horizon = cloud_result.horizon + slack
        week_bins = int(cloud_result.horizon / width)
        deferrables, leftovers = deferrable_from_flows(
            flows[::2], padded_horizon, slack)
        inelastic = bin_rate_series(
            [(flow.start, flow.end, flow.rate)
             for flow in flows[1::2] + leftovers], width, padded_horizon)
        scheduled = PrestagingScheduler(inelastic, width) \
            .schedule(deferrables)
        naive_peak = bin_rate_series(
            [(flow.start, flow.end, flow.rate) for flow in flows],
            width, cloud_result.horizon).max()
        series = scheduled.scheduled_series
        # The within-week peak drops materially...
        assert series[:week_bins].max() < 0.85 * naive_peak
        # ...without exporting a new peak into the spill window...
        assert series[week_bins:].max() < naive_peak
        # ...while moving exactly the elastic volume.
        poured = (series - scheduled.baseline_series).sum() * width
        expected = sum(flow.volume_bytes for flow in deferrables)
        assert abs(poured - expected) / expected < 1e-6
