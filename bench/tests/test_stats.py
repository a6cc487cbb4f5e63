import math
import statistics
import threading
import time

import pytest

from serving import open_loop
from stats import due_anchored, median, percentile, quartiles, spread


def test_quartiles_match_the_standard_library():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    q1, mid, q3 = quartiles(values)
    assert [q1, mid, q3] == statistics.quantiles(values, n=4)
    assert mid == median(values) == statistics.median(values)


def test_quartiles_of_one_value_collapse_to_it():
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert spread([2.5]) == 0.0


def test_spread_is_the_quartile_distance_over_the_median():
    values = [9.0, 10.0, 10.0, 10.0, 11.0]
    q1, mid, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / mid)


def test_median_stays_defined_with_misses():
    assert median([1.0, 2.0, math.inf]) == 2.0
    assert math.isinf(median([1.0, math.inf, math.inf]))


def test_quartiles_reject_an_empty_sample():
    with pytest.raises(ValueError):
        quartiles([])


def test_percentile_is_nearest_rank_and_counts_samples_beyond():
    samples = [float(value) for value in range(1, 1001)]
    assert percentile(samples, 99) == (990.0, 10)
    assert percentile(samples, 50) == (500.0, 500)
    assert percentile(samples, 100) == (1000.0, 0)


def test_percentile_counts_only_samples_strictly_beyond_ties():
    assert percentile([1.0, 2.0, 2.0, 2.0, 3.0], 60) == (2.0, 1)


def test_percentile_of_few_samples_is_their_tail():
    assert percentile([3.0, 1.0, 2.0], 99) == (3.0, 0)


def test_misses_land_in_the_tail():
    samples = [1.0] * 98 + [math.inf] * 2
    value, beyond = percentile(samples, 99)
    assert math.isinf(value) and beyond == 0


def test_due_anchored_latency_counts_the_wait_before_sending():
    latency, lag = due_anchored(due=10.0, sent=10.5, done=10.6)
    assert latency == pytest.approx(0.6)
    assert lag == pytest.approx(0.5)
    assert due_anchored(due=10.0, sent=9.999, done=10.1)[1] == 0.0


def test_open_loop_charges_a_stall_to_the_requests_it_delays():
    # One connection at 100 rps; request 0 stalls for 50 ms, so the
    # next four, due 10..40 ms, wait behind it.
    stalled = threading.Event()

    def send(slot, index):
        if index == 0:
            time.sleep(0.05)
            stalled.set()
        return True

    result = open_loop(send, rate=100.0, duration=0.1, threads=1)
    assert result.sent == 10 and result.failed == 0
    assert stalled.is_set()
    assert result.latencies[1] >= 0.035
    assert result.lags[1] >= 0.035
    assert min(result.latencies) >= 0.0


def test_open_loop_failures_are_misses():
    result = open_loop(lambda slot, index: index % 2 == 0, rate=1000.0,
                       duration=0.01, threads=2)
    assert result.sent == 10 and result.failed == 5
    assert sum(math.isinf(value) for value in result.latencies) == 5
