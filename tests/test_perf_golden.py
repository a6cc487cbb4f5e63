"""The live code against the golden digests.

Every scenario in :mod:`repro.perf.golden` is recomputed from the live
code and must match its digest in ``tests/data/golden_digests.json``.
Each digest was pinned at a parent commit from the implementation the
live code replaced -- the scalar samplers and line-at-a-time trace IO,
the single-heap engine, the generator-coroutine cloud tasks -- and
checked equal to the live output there, so no replacement changed an
output byte.  The ``BufferedIndexPicker`` tests pin the chunked index
draws against the scalar draws they replace.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.perf import golden
from repro.workload.generator import (
    PICK_RETRIES,
    BufferedIndexPicker,
    pick_distinct_index,
)

DIGEST_FILE = Path(__file__).parent / "data" / "golden_digests.json"
PINNED = json.loads(DIGEST_FILE.read_text())


def test_every_scenario_is_pinned():
    assert sorted(PINNED) == sorted(golden.SCENARIOS)


@pytest.mark.parametrize("name", sorted(golden.SCENARIOS))
def test_live_output_matches_pinned_digest(name):
    assert golden.SCENARIOS[name]() == PINNED[name], (
        f"live output of {name!r} diverged from its pinned golden "
        f"digest")


# -- BufferedIndexPicker: bit-identical to the scalar draws -----------------


def test_buffered_picker_matches_scalar_integers_stream():
    scalar_rng = np.random.default_rng(7)
    buffered_rng = np.random.default_rng(7)
    picker = BufferedIndexPicker(1000, buffered_rng, chunk=16)
    scalar = [int(scalar_rng.integers(1000)) for _ in range(100)]
    buffered = [picker.pick() for _ in range(100)]
    assert buffered == scalar


def test_buffered_picker_distinct_matches_pick_distinct_index():
    scalar_rng = np.random.default_rng(11)
    buffered_rng = np.random.default_rng(11)
    picker = BufferedIndexPicker(5, buffered_rng, chunk=8)
    scalar_seen: set[int] = set()
    buffered_seen: set[int] = set()
    # A 5-user universe forces heavy retry traffic, exercising the
    # fall-through (give up after PICK_RETRIES) branch as well.
    scalar = [pick_distinct_index(5, scalar_seen, scalar_rng)
              for _ in range(60)]
    buffered = [picker.pick_distinct(buffered_seen) for _ in range(60)]
    assert buffered == scalar
    assert buffered_seen == scalar_seen


def test_buffered_picker_retry_budget_matches_scalar():
    # With every index already seen, both sides burn PICK_RETRIES
    # rejected draws and then return one final unconditional draw.
    scalar_rng = np.random.default_rng(13)
    buffered_rng = np.random.default_rng(13)
    seen = set(range(4))
    picker = BufferedIndexPicker(4, buffered_rng, chunk=3)
    draws = [int(scalar_rng.integers(4))
             for _ in range(PICK_RETRIES + 1)]
    assert picker.pick_distinct(set(seen)) == draws[-1]


def test_buffered_picker_rejects_empty_universe():
    with pytest.raises(ValueError):
        BufferedIndexPicker(0, np.random.default_rng(1))
