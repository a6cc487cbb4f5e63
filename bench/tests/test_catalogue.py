import json
import re
from pathlib import Path

from run import end_to_end

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
CATALOGUE = json.loads((ROOT / "BENCHMARK.json").read_text())


def _specs():
    return CATALOGUE["end_to_end"] + CATALOGUE["per_layer"]


def test_catalogue_has_exactly_the_documented_keys():
    assert set(CATALOGUE) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert CATALOGUE["paths"] == ["bench"]


def test_every_name_matches_the_metric_name_pattern_and_is_unique():
    names = [spec["name"] for spec in _specs()] \
        + [workload["name"] for workload in CATALOGUE["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name) and len(name) <= 64, name
        assert name[0].isalnum(), name


def test_units_and_directions_are_well_formed():
    for spec in _specs():
        assert UNIT.match(spec["unit"]), spec
        assert spec["better"] in ("lower", "higher"), spec
    for spec in CATALOGUE["end_to_end"]:
        assert 0 < spec["bound"] <= 0.25, spec
    setup = next(spec for spec in CATALOGUE["end_to_end"]
                 if spec["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(spec["bound"]
                                 for spec in CATALOGUE["end_to_end"])


def test_a_run_reports_exactly_the_catalogued_end_to_end_metrics():
    detail = {"setup_s": [1.0, 2.0, 3.0], "latencies_ms": [5.0, 6.0],
              "tasks_per_s": 10.0, "peak_rss_mb": 50.0}
    assert set(end_to_end(detail)) == \
        {spec["name"] for spec in CATALOGUE["end_to_end"]}
