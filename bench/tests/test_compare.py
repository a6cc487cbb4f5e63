import pytest

from compare import compare, verdict

STEADY = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8]


def test_same_numbers_are_unchanged():
    assert verdict(100.0, STEADY, 100.0, STEADY, 0.1, "lower")[0] \
        == "unchanged"


def test_a_small_drift_inside_the_bound_is_unchanged():
    change = [value * 1.05 for value in STEADY]
    assert verdict(100.0, STEADY, 105.0, change, 0.1, "lower")[0] \
        == "unchanged"


def test_worse_by_more_than_the_bound_regresses():
    change = [value * 1.2 for value in STEADY]
    assert verdict(100.0, STEADY, 120.0, change, 0.1, "lower")[0] \
        == "regressed"


def test_higher_is_better_flips_the_direction():
    change = [value * 1.2 for value in STEADY]
    assert verdict(100.0, STEADY, 120.0, change, 0.1, "higher")[0] \
        == "improved"
    change = [value * 0.8 for value in STEADY]
    assert verdict(100.0, STEADY, 80.0, change, 0.1, "higher")[0] \
        == "regressed"


def test_better_by_more_than_the_bound_improves():
    change = [value * 0.8 for value in STEADY]
    assert verdict(100.0, STEADY, 80.0, change, 0.1, "lower")[0] \
        == "improved"


def test_a_spread_wider_than_the_bound_is_unresolved():
    noisy = [70.0, 130.0, 90.0, 110.0, 80.0, 120.0]
    outcome, note = verdict(100.0, noisy, 95.0, noisy, 0.1, "lower")
    assert outcome == "unresolved"
    assert "spread" in note


def test_wide_spread_still_improves_when_every_round_is_better():
    base = [100.0, 130.0, 115.0, 101.0]
    change = [60.0, 90.0, 75.0, 61.0]
    assert verdict(115.0, base, 75.0, change, 0.1, "lower")[0] \
        == "improved"


def test_pairs_need_nine_in_ten_wins():
    base = [100.0 + index for index in range(10)]
    change = [value - 20.0 for value in base]
    assert verdict(104.5, base, 84.5, change, 0.25, "lower",
                   pairs=True) == ("improved", "10/10 pairs won")
    change[0] = change[1] = 200.0
    outcome, note = verdict(104.5, base, 86.5, change, 0.25, "lower",
                            pairs=True)
    assert outcome != "improved" and "8/10 pairs won" in note


def test_pairs_need_at_least_ten_pairs():
    base = [100.0, 101.0, 102.0]
    change = [50.0, 51.0, 52.0]
    outcome, note = verdict(101.0, base, 51.0, change, 0.1, "lower",
                            pairs=True)
    assert outcome == "unchanged" and "fewer than 10" in note


def _report(value, correct=True):
    rounds = [value * factor for factor in (0.99, 1.0, 1.01, 1.0)]
    return {"workloads": {"w": {"correct": correct, "metrics": {
        "x_ms": {"value": value, "rounds": rounds}}}}}


CATALOGUE = {"end_to_end": [
    {"name": "x_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}


@pytest.mark.parametrize("change, correct, passed", [
    (10.0, True, True), (15.0, True, False), (10.0, False, False)])
def test_compare_fails_on_regression_or_a_failed_gate(change, correct,
                                                      passed):
    lines, ok = compare(_report(10.0), _report(change, correct),
                        CATALOGUE)
    assert ok is passed
    assert any(line.startswith("w ") for line in lines[1:])
