"""Bench: the hot-path regression guard (``repro.perf``).

Runs the ``repro.perf`` harness in smoke mode (small scales, one
repeat), writes the ``BENCH_perf.json`` artifact, and asserts
conservative speedup floors of the optimised stages over their frozen
pre-optimisation baselines:

* workload generation >= 1.5x (smoke runs measure ~3.4x),
* engine same-instant dispatch >= 1.3x (~2.7x),
* cloud replay >= 1.8x (~3.4x smoke, >= 4x full),
* task state machine vs generators >= 1.2x (~1.7x),
* trace round-trip >= 1.3x (~2.7x),
* columnar read vs JSONL parse >= 1.8x (~4x smoke, ~7x full).

The floors sit well below the measured ratios so noisy shared CI
runners do not flap; a real regression (e.g. un-vectorising a sampler,
re-introducing the per-event lambda, or parsing the columnar file row
by row) drops the ratio to ~1.0 and trips them regardless of runner
speed.

Set ``REPRO_PERF_OUT`` to also keep the report at a stable path (CI
uploads it as an artifact).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.perf import run_benchmarks, write_report
from repro.perf.stages import STAGES

GENERATE_FLOOR = 1.5
ENGINE_FLOOR = 1.3
CLOUD_FLOOR = 1.8
FAST_TASKS_FLOOR = 1.2
TRACE_FLOOR = 1.3
COLUMNAR_FLOOR = 1.8


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    report = run_benchmarks(smoke=True, profile_top=8)
    out = os.environ.get("REPRO_PERF_OUT")
    path = (Path(out) if out
            else tmp_path_factory.mktemp("perf") / "BENCH_perf.json")
    write_report(report, path)
    print()
    print(report.render())
    return report


def test_report_covers_every_stage(report):
    assert [result.name for result in report.stages] == list(STAGES)
    for result in report.stages:
        assert result.optimized_seconds > 0


def test_generate_speedup_floor(report):
    assert report.stage("workload_generate").speedup >= GENERATE_FLOOR


def test_engine_dispatch_speedup_floor(report):
    assert report.stage("engine_dispatch").speedup >= ENGINE_FLOOR


def test_cloud_replay_speedup_floor(report):
    assert report.stage("cloud_replay").speedup >= CLOUD_FLOOR


def test_fast_tasks_speedup_floor(report):
    assert report.stage("cloud_fast_tasks").speedup >= FAST_TASKS_FLOOR


def test_trace_roundtrip_speedup_floor(report):
    assert report.stage("trace_roundtrip").speedup >= TRACE_FLOOR


def test_trace_columnar_speedup_floor(report):
    assert report.stage("trace_columnar").speedup >= COLUMNAR_FLOOR


def test_tripwire_stages_are_timed_without_baseline(report):
    for name in ("cloud_replay_faulted", "ap_replay", "odr_replay"):
        result = report.stage(name)
        assert result.baseline_seconds is None
        assert result.speedup is None
        assert result.note    # the missing baseline is documented


def test_profile_top_is_captured(report):
    for result in report.stages:
        assert result.profile_top, f"no profile lines for {result.name}"
        assert result.profile_top[0].lstrip().startswith("ncalls")
