"""Tests for the analysis toolkit: CDFs, fitting, stats, tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    CDF,
    TextTable,
    average_relative_error,
    bin_rate_series,
    empirical_cdf,
    fit_se,
    fit_zipf,
    peak_of_series,
    summarize,
)
from repro.analysis import timeseries
from repro.analysis.stats import share_below


class TestCDF:
    def test_basic_quantities(self):
        cdf = empirical_cdf([3, 1, 2, 4])
        assert cdf.min == 1 and cdf.max == 4
        assert cdf.median == 2.5
        assert cdf.mean == 2.5
        assert len(cdf) == 4

    def test_probability_below_and_at_most(self):
        cdf = empirical_cdf([1, 2, 2, 3])
        assert cdf.probability_below(2) == 0.25
        assert cdf.probability_at_most(2) == 0.75
        assert cdf.probability_below(0) == 0.0
        assert cdf.probability_at_most(10) == 1.0

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf([])

    def test_quantile_validation(self):
        cdf = empirical_cdf([1, 2])
        with pytest.raises(ValueError):
            cdf.quantile(1.5)

    def test_points_are_monotone(self):
        cdf = empirical_cdf(np.random.default_rng(0).random(100))
        points = cdf.points(20)
        assert len(points) == 20
        values = [value for value, _q in points]
        assert values == sorted(values)

    def test_points_need_two(self):
        with pytest.raises(ValueError):
            empirical_cdf([1.0]).points(1)

    def test_describe_formats_like_the_paper(self):
        text = empirical_cdf([1000.0, 2000.0]).describe(scale=1000.0,
                                                        unit=" KBps")
        assert "Min: 1 KBps" in text and "Max: 2 KBps" in text

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                    min_size=1, max_size=200),
           st.floats(min_value=-1e6, max_value=1e6))
    @settings(max_examples=100, deadline=None)
    def test_probability_below_is_a_monotone_cdf(self, sample, point):
        cdf = empirical_cdf(sample)
        p = cdf.probability_below(point)
        assert 0.0 <= p <= cdf.probability_at_most(point) <= 1.0
        assert cdf.min <= cdf.median <= cdf.max


class TestFitting:
    def test_zipf_fit_recovers_exact_power_law(self):
        ranks = np.arange(1, 500)
        popularity = np.exp(14.0) * ranks ** -1.05
        fit = fit_zipf(ranks, popularity)
        assert fit.a == pytest.approx(1.05, abs=1e-6)
        assert fit.b == pytest.approx(14.0, abs=1e-6)
        assert fit.average_relative_error < 1e-9

    def test_se_fit_recovers_exact_se_curve(self):
        ranks = np.arange(1, 500)
        popularity = (1.1 - 0.01 * np.log(ranks)) ** 100
        fit = fit_se(ranks, popularity, c=0.01)
        assert fit.a == pytest.approx(0.01, abs=1e-6)
        assert fit.b == pytest.approx(1.1, abs=1e-6)
        assert fit.average_relative_error < 1e-9

    def test_se_scans_c_grid(self):
        ranks = np.arange(1, 300)
        popularity = (1.2 - 0.02 * np.log(ranks)) ** (1 / 0.02)
        fit = fit_se(ranks, popularity)
        assert fit.c == pytest.approx(0.02)

    def test_se_beats_zipf_on_flattened_heads(self):
        # A bounded head (fetch-at-most-once) breaks the pure power law.
        ranks = np.arange(1, 2000)
        popularity = (1.13 - 0.01 * np.log(ranks)) ** 100
        zipf = fit_zipf(ranks, popularity)
        se = fit_se(ranks, popularity)
        assert se.average_relative_error < zipf.average_relative_error

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_zipf(np.array([1, 2]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            fit_zipf(np.array([0, 1, 2]), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            average_relative_error(np.array([1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            fit_se(np.arange(1, 10), np.ones(9), c=-0.1)

    def test_relative_error_definition(self):
        error = average_relative_error(np.array([100.0, 200.0]),
                                       np.array([110.0, 180.0]))
        assert error == pytest.approx((0.1 + 0.1) / 2)


class TestStats:
    def test_summarize(self):
        stats = summarize([1, 2, 3, 4, 5])
        assert stats.count == 5
        assert stats.minimum == 1 and stats.maximum == 5
        assert stats.median == 3 and stats.mean == 3
        assert stats.p25 == 2 and stats.p75 == 4
        assert stats.as_dict()["p90"] == pytest.approx(4.6)

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_share_below(self):
        assert share_below([1, 2, 3, 4], 3) == 0.5
        with pytest.raises(ValueError):
            share_below([], 1)


class TestTimeseries:
    def test_bin_rate_series_integrates_exactly(self):
        flows = [(0.0, 10.0, 5.0), (5.0, 15.0, 3.0)]
        series = bin_rate_series(flows, bin_width=5.0, horizon=20.0)
        assert series == pytest.approx([5.0, 8.0, 3.0, 0.0])

    def test_flows_clipped_to_horizon(self):
        series = bin_rate_series([(-5.0, 25.0, 2.0)], bin_width=10.0,
                                 horizon=20.0)
        assert series == pytest.approx([2.0, 2.0])

    def test_degenerate_flows_ignored(self):
        series = bin_rate_series([(5.0, 5.0, 2.0), (3.0, 1.0, 2.0),
                                  (0.0, 10.0, 0.0)],
                                 bin_width=10.0, horizon=10.0)
        assert series == pytest.approx([0.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            bin_rate_series([], 0.0, 10.0)
        with pytest.raises(ValueError):
            peak_of_series(np.array([]))

    def test_peak_of_series(self):
        index, value = peak_of_series(np.array([1.0, 9.0, 3.0]))
        assert (index, value) == (1, 9.0)


def _reference_bin_rate_series(flows, bin_width, horizon):
    """The per-(flow, bin) loop the numpy kernel replaced, verbatim."""
    if bin_width <= 0 or horizon <= 0:
        raise ValueError("bin_width and horizon must be positive")
    n_bins = int(np.ceil(horizon / bin_width))
    totals = np.zeros(n_bins)
    for start, end, rate in flows:
        if end <= start or rate <= 0:
            continue
        start = max(float(start), 0.0)
        end = min(float(end), horizon)
        if end <= start:
            continue
        first = int(start / bin_width)
        last = min(int((end - 1e-12) / bin_width), n_bins - 1)
        for index in range(first, last + 1):
            lo = max(start, index * bin_width)
            hi = min(end, (index + 1) * bin_width)
            totals[index] += rate * max(0.0, hi - lo)
    return totals / bin_width


def _random_flows(seed, count, bin_width, horizon):
    """Seeded flows mixing every case the kernel must treat like the
    loop: negative starts, ends past the horizon or infinite, zero or
    negative rates, zero-length and inverted flows, bin-aligned edges,
    and flows spanning more than 1,000 bins."""
    rng = np.random.default_rng(seed)
    starts = rng.uniform(-0.1 * horizon, 1.05 * horizon, count)
    lengths = rng.exponential(3 * bin_width, count)
    kind = rng.integers(0, 10, count)
    lengths[kind == 0] = 0.0
    lengths[kind == 1] *= -1.0
    # Few long flows: the reference loop walks every bin of each.
    long = (kind == 2) & (rng.random(count) < 0.1)
    lengths[long] = rng.uniform(1000, 1500, long.sum()) * bin_width
    aligned = kind == 3
    starts[aligned] = np.floor(starts[aligned] / bin_width) * bin_width
    lengths[aligned] = np.ceil(lengths[aligned] / bin_width) * bin_width
    lengths[kind == 4] = 1e-13
    ends = starts + lengths
    ends[long & (rng.random(count) < 0.5)] = np.inf
    rates = rng.lognormal(13.0, 1.5, count)
    rates[rng.random(count) < 0.03] = 0.0
    rates[rng.random(count) < 0.03] *= -1.0
    return [(float(start), float(end), float(rate))
            for start, end, rate in zip(starts, ends, rates)]


class TestBinningKernelMatchesLoop:
    """The numpy kernel sums each bin exactly as the loop did."""

    @pytest.mark.parametrize("seed,bin_width,horizon,count", [
        (1, 300.0, 604800.0, 3 * timeseries.CHUNK_FLOWS // 2),
        (2, 7.3, 20000.0, 2 * timeseries.CHUNK_FLOWS + 17),
        (3, 60.0, 3600.0, 500),
        (4, 1.0, 2500.0, 300),
    ])
    def test_random_flows_are_bit_identical(self, seed, bin_width,
                                            horizon, count):
        flows = _random_flows(seed, count, bin_width, horizon)
        spans = sum(max(0.0, min(end, horizon) - max(start, 0.0))
                    for start, end, rate in flows) / bin_width
        assert spans > count  # most flows cross bin edges
        expected = _reference_bin_rate_series(flows, bin_width, horizon)
        assert bin_rate_series(flows, bin_width, horizon).tobytes() \
            == expected.tobytes()

    def test_more_flows_than_one_chunk(self):
        flows = _random_flows(5, timeseries.CHUNK_FLOWS + 1, 300.0,
                              86400.0)
        expected = _reference_bin_rate_series(flows, 300.0, 86400.0)
        assert bin_rate_series(flows, 300.0, 86400.0).tobytes() \
            == expected.tobytes()

    def test_generator_and_array_inputs(self):
        flows = _random_flows(6, 400, 7.3, 1000.0)
        expected = _reference_bin_rate_series(flows, 7.3, 1000.0)
        from_generator = bin_rate_series(
            (flow for flow in flows), 7.3, 1000.0)
        from_array = bin_rate_series(np.array(flows), 7.3, 1000.0)
        assert from_generator.tobytes() == expected.tobytes()
        assert from_array.tobytes() == expected.tobytes()

    def test_edge_flows(self):
        width, horizon = 10.0, 100.0
        flows = [(-5.0, np.inf, 1.5), (-20.0, -1.0, 2.0),
                 (30.0, 30.0, 3.0), (40.0, 20.0, 3.0), (0.0, 50.0, 0.0),
                 (0.0, 50.0, -4.0), (30.0, 30.0 + 1e-13, 2.0),
                 (0.0, 1e-13, 2.0), (99.999999, 250.0, 7.0),
                 (100.0, 120.0, 1.0), (20.0, 40.0, 0.25),
                 (3, 17, 2)]
        expected = _reference_bin_rate_series(flows, width, horizon)
        assert bin_rate_series(flows, width, horizon).tobytes() \
            == expected.tobytes()

    def test_empty_input(self):
        expected = _reference_bin_rate_series([], 300.0, 3600.0)
        for flows in ([], iter(()), np.empty((0, 3))):
            series = bin_rate_series(flows, 300.0, 3600.0)
            assert series.tobytes() == expected.tobytes()
            assert len(series) == 12


class TestTextTable:
    def test_render_alignment_and_formats(self):
        table = TextTable(["name", "value"], ["", ".2f"])
        table.add_row("alpha", 1.234)
        table.add_row("b", 10.0)
        rendered = table.render()
        lines = rendered.splitlines()
        assert len(lines) == 4
        assert "1.23" in rendered and "10.00" in rendered

    def test_cell_count_checked(self):
        table = TextTable(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            TextTable([])
        with pytest.raises(ValueError):
            TextTable(["a"], ["", ""])
