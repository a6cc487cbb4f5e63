"""The columnar trace format (:mod:`repro.workload.columnar`).

Layers of proof:

* **Round-trips.**  For every pinned record type, a columnar write/read
  cycle returns records equal to the originals -- and equal to what the
  JSONL path returns for the same rows -- under both the memory-mapped
  and the buffered reader.
* **Bytes.**  The three ``.col`` files ``save_workload`` writes for the
  golden week, and a later multi-week week's request file, hash to
  pinned SHA-256 digests.
* **Structure.**  Wrong record type, truncated files and random-access
  ``take`` behave as documented.
* **The mapped week.**  ``load_workload`` of a columnar trace returns
  the requests as a :class:`ColumnarRows` view: its length, indexing,
  slices, iteration and request columns equal the generated week's,
  and the load allocates O(files + users) objects, not one per request.
* **Golden replays.**  A cloud replay driven from a workload saved and
  re-loaded in columnar form, and a sharded (``jobs=2``) zero-copy AP
  replay fed row indices into a memory-mapped ``.col`` trace, both
  reproduce the pinned pre-optimisation golden digests bit for bit.
"""

from __future__ import annotations

import gc
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.perf import golden
from repro.workload.columnar import (
    RECORD_TYPES,
    ColumnarFormatError,
    ColumnarRows,
    ColumnarTrace,
    is_columnar,
    open_columnar,
    write_blocks,
    write_columnar,
)
from repro.workload.generator import WorkloadConfig, WorkloadGenerator
from repro.workload.records import (
    FetchRecord,
    PreDownloadRecord,
    RequestRecord,
    User,
)
from repro.workload.traceio import (
    load_workload,
    read_jsonl,
    save_workload,
    write_jsonl,
)

DIGEST_FILE = Path(__file__).parent / "data" / "golden_digests.json"
PINNED = json.loads(DIGEST_FILE.read_text())


@pytest.fixture(scope="module")
def workload():
    config = WorkloadConfig(scale=golden.GOLDEN_SCALE,
                            seed=golden.GOLDEN_SEED)
    return WorkloadGenerator(config).generate()


@pytest.fixture(scope="module")
def cloud_result(workload):
    from repro.cloud import CloudConfig, XuanfengCloud
    return XuanfengCloud(
        CloudConfig(scale=golden.GOLDEN_SCALE)).run(workload)


@pytest.fixture(scope="module")
def records_by_type(workload, cloud_result):
    """Real rows of every pinned record type, from one golden replay."""
    return {
        "CatalogFile": list(workload.catalog),
        "User": list(workload.users),
        "RequestRecord": list(workload.requests),
        "PreDownloadRecord": [task.pre_record
                              for task in cloud_result.tasks],
        "FetchRecord": [task.fetch_record for task in cloud_result.tasks
                        if task.fetch_record is not None],
    }


# -- round-trips ------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(RECORD_TYPES))
def test_columnar_roundtrip_matches_jsonl(name, records_by_type, tmp_path):
    record_type = RECORD_TYPES[name]
    records = records_by_type[name]
    assert records, f"fixture produced no {name} rows"

    col_path = tmp_path / f"{name}.col"
    jsonl_path = tmp_path / f"{name}.jsonl"
    write_columnar(col_path, records, record_type)
    write_jsonl(jsonl_path, iter(records))

    mapped = _read(col_path, record_type)
    buffered = _read(col_path, record_type, mmap=False)
    via_jsonl = read_jsonl(jsonl_path, record_type)

    assert mapped == records
    assert buffered == records
    assert via_jsonl == records
    assert [r.to_dict() for r in mapped] == \
        [r.to_dict() for r in via_jsonl]


def _read(path, record_type, mmap=True):
    """Every row of a ``.col`` file."""
    return list(ColumnarRows(open_columnar(path, record_type, mmap)))


def test_optional_fields_roundtrip_none_and_values(tmp_path):
    # Exercise the null masks deterministically: optional floats
    # (access_bandwidth) and optional strings (failure_cause) both as
    # None and as values, in one column each.
    fetches = [
        FetchRecord("t1", "u1", "1.2.3.4", None, 0.0, 9.5,
                    100.0, 107.0, 10.0, 12.0, False),
        FetchRecord("t2", "u2", "5.6.7.8", 2.0e6, 1.0, 1.0,
                    0.0, 0.0, 0.0, 0.0, True),
    ]
    pres = [
        PreDownloadRecord("t1", "f1", 0.0, 3.0, 50.0, 55.0, False,
                          16.0, 20.0, True, None),
        PreDownloadRecord("t2", "f2", 1.0, 4.0, 0.0, 10.0, False,
                          0.0, 0.0, False, "source-dried-up"),
    ]
    for records, record_type in ((fetches, FetchRecord),
                                 (pres, PreDownloadRecord)):
        path = tmp_path / f"{record_type.__name__}.col"
        write_columnar(path, records, record_type)
        assert _read(path, record_type) == records
        assert _read(path, record_type, mmap=False) == records


# -- pinned bytes -------------------------------------------------------------

#: SHA-256 of the ``.col`` files ``save_workload`` writes for the golden
#: week, pinned from the writer that encoded every column from record
#: objects.
COLUMNAR_BYTES = {
    "catalog.col":
        "da5a36bc78c3e07d85fe0dd383287ec635049eee2463aa643326761869c43094",
    "users.col":
        "9b686170d80ddad6360c5bed76fdf6e89c83ec1d8e29691bf58c47b414a94f7b",
    "requests.col":
        "13c3ae43771d6ef3679519c5f7084e684759bd29edaae020e744bc0668478740",
}
#: ``requests.col`` of the second week of a ``MultiWeekGenerator`` at the
#: golden scale and seed (task prefix ``w2t``; its catalog holds files
#: whose demand decayed to zero, which no request names).
SECOND_WEEK_REQUESTS = \
    "41edf8cf33db14eeb2e57e26322e1811c3718f785e26cf655e6100f0a5fb3d0f"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_saved_week_bytes_are_pinned(workload, tmp_path):
    save_workload(workload, tmp_path, trace_format="columnar")
    assert {name: _sha256(tmp_path / name)
            for name in COLUMNAR_BYTES} == COLUMNAR_BYTES


def test_second_week_request_bytes_are_pinned(tmp_path):
    from repro.workload.multiweek import MultiWeekGenerator
    config = WorkloadConfig(scale=golden.GOLDEN_SCALE,
                            seed=golden.GOLDEN_SEED)
    _first, second = MultiWeekGenerator(config).weeks(2)
    assert second.requests[0].task_id.startswith("w2t")
    save_workload(second, tmp_path, trace_format="columnar")
    assert _sha256(tmp_path / "requests.col") == SECOND_WEEK_REQUESTS


# -- structural behaviour ---------------------------------------------------


def test_record_type_mismatch_raises(workload, tmp_path):
    path = tmp_path / "requests.col"
    write_columnar(path, workload.requests[:4], RequestRecord)
    with pytest.raises(ColumnarFormatError):
        open_columnar(path, User)


def test_is_columnar_detects_format(workload, tmp_path):
    col_path = tmp_path / "requests.col"
    jsonl_path = tmp_path / "requests.jsonl"
    write_columnar(col_path, workload.requests[:4], RequestRecord)
    write_jsonl(jsonl_path, iter(workload.requests[:4]))
    assert is_columnar(col_path)
    assert not is_columnar(jsonl_path)


def test_truncated_file_raises(workload, tmp_path):
    path = tmp_path / "requests.col"
    write_columnar(path, workload.requests[:16], RequestRecord)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])
    with pytest.raises(ColumnarFormatError):
        ColumnarTrace(path)


def test_take_decodes_selected_rows_in_order(workload, tmp_path):
    records = workload.requests[:10]
    path = tmp_path / "requests.col"
    write_columnar(path, records, RequestRecord)
    trace = ColumnarTrace(path)
    assert len(trace) == len(records)
    assert trace.take([7, 0, 7, 3]) == \
        [records[7], records[0], records[7], records[3]]
    assert trace.take(range(2, 5)) == records[2:5]
    assert [trace.row(index) for index in (9, 0, 4)] == \
        [records[9], records[0], records[4]]
    assert trace.value("task_id", 6) == records[6].task_id


# -- the mapped week ----------------------------------------------------------


@pytest.fixture(scope="module")
def mapped(workload, tmp_path_factory):
    """The golden week saved columnar and loaded back."""
    directory = tmp_path_factory.mktemp("mapped")
    save_workload(workload, directory, trace_format="columnar")
    return load_workload(directory, trace_format="columnar")


class TestMappedRequests:
    def test_requests_are_a_view(self, mapped):
        assert isinstance(mapped.requests, ColumnarRows)

    def test_len_and_indexing(self, workload, mapped):
        expected = workload.requests
        requests = mapped.requests
        count = len(expected)
        assert len(requests) == count
        for index in (0, 1, count // 2, count - 1, -1, -count):
            assert requests[index] == expected[index]
        for index in (count, -count - 1):
            with pytest.raises(IndexError):
                requests[index]

    def test_slices(self, workload, mapped):
        expected = workload.requests
        requests = mapped.requests
        for cut in (slice(3, 40), slice(None, None, 7), slice(-20, None),
                    slice(50, 10, -3), slice(None, None, -1),
                    slice(5, 5), slice(None, 0, -1)):
            view = requests[cut]
            assert isinstance(view, ColumnarRows)
            assert len(view) == len(expected[cut])
            assert list(view) == expected[cut]
        nested = requests[10:5000][::3][-40:]
        assert list(nested) == expected[10:5000][::3][-40:]
        assert nested[-1] == expected[10:5000][::3][-1]

    def test_iteration_spans_several_blocks(self, workload, mapped):
        assert len(workload.requests) > 2 * 4096
        assert list(mapped.requests) == workload.requests

    def test_workload_payload(self, workload, mapped):
        assert golden.workload_payload(mapped) == \
            golden.workload_payload(workload)

    def test_request_columns_equal_the_list_week(self, workload, mapped):
        listed = workload.request_columns()
        viewed = mapped.request_columns()
        assert viewed.times.dtype == np.float64
        assert np.array_equal(viewed.times, listed.times)
        assert np.array_equal(viewed.file_rows, listed.file_rows)
        assert np.array_equal(viewed.user_rows, listed.user_rows)
        assert [record.file_id for record in viewed.files] == \
            [record.file_id for record in listed.files]
        for index in (0, 17, len(workload.requests) - 1):
            request = workload.requests[index]
            assert viewed.task_id(index) == listed.task_id(index) == \
                request.task_id
            assert viewed.files.row(viewed.file_rows[index]).file_id == \
                request.file_id
            assert viewed.users[viewed.user_rows[index]].user_id == \
                request.user_id

    def test_load_allocates_no_object_per_request(self, workload,
                                                  tmp_path):
        save_workload(workload, tmp_path, trace_format="columnar")
        gc.collect()
        before = len(gc.get_objects())
        loaded = load_workload(tmp_path, trace_format="columnar")
        added = len(gc.get_objects()) - before
        assert added < len(loaded.requests)

    def test_resave_copies_the_request_file(self, mapped, tmp_path):
        save_workload(mapped, tmp_path, trace_format="columnar")
        assert (tmp_path / "requests.col").read_bytes() == \
            mapped.requests.trace.path.read_bytes()
        cut = mapped.requests[5:3000:4]
        write_blocks(tmp_path / "cut.col", RequestRecord, cut.blocks())
        write_columnar(tmp_path / "rows.col", list(cut), RequestRecord)
        assert (tmp_path / "cut.col").read_bytes() == \
            (tmp_path / "rows.col").read_bytes()

    def test_jsonl_requests_load_as_a_list(self, workload, tmp_path):
        save_workload(workload, tmp_path)
        assert isinstance(load_workload(tmp_path).requests, list)


# -- golden replays from columnar traces ------------------------------------


def test_cloud_replay_from_columnar_workload_matches_golden(
        workload, tmp_path):
    """Save columnar -> load -> replay == the pinned JSONL-era digest."""
    from repro.cloud import CloudConfig, XuanfengCloud
    save_workload(workload, tmp_path, trace_format="columnar")
    loaded = load_workload(tmp_path, trace_format="columnar")
    result = XuanfengCloud(
        CloudConfig(scale=golden.GOLDEN_SCALE)).run(loaded)
    assert golden.digest(golden.cloud_payload(result)) == \
        PINNED["cloud_replay"]


def test_faulted_cloud_replay_from_columnar_workload_matches_golden(
        workload, tmp_path):
    """Save columnar -> load -> replay under the default chaos plan and
    policies == the pinned faulted digest."""
    from repro.cloud import CloudConfig, XuanfengCloud
    from repro.faults import DEFAULT_POLICIES, FaultInjector
    from repro.faults.plan import default_chaos_plan
    save_workload(workload, tmp_path, trace_format="columnar")
    loaded = load_workload(tmp_path, trace_format="columnar")
    injector = FaultInjector(default_chaos_plan())
    result = XuanfengCloud(
        CloudConfig(scale=golden.GOLDEN_SCALE), faults=injector,
        policies=DEFAULT_POLICIES).run(loaded)
    assert golden.digest([golden.cloud_payload(result),
                          injector.scoreboard()]) == \
        PINNED["cloud_replay_faulted"]


def test_sharded_ap_replay_from_mapped_trace_matches_golden(
        workload, tmp_path):
    """Zero-copy sharded AP replay (``jobs=2``) == the pinned digest.

    The workers receive ``(path, row indices)`` into a shared columnar
    trace, memory-map it, and decode only their own rows; the merged
    report must still match the sequential golden replay bit for bit.
    """
    from repro.scale.pipelines import sharded_ap_replay
    from repro.workload import sample_benchmark_requests
    sample = sample_benchmark_requests(workload, 200)
    trace_path = tmp_path / "sample.col"
    write_columnar(trace_path, sample, RequestRecord)
    report, info = sharded_ap_replay(
        workload.catalog, sample, jobs=2,
        requests_trace=(trace_path, list(range(len(sample)))))
    assert golden.digest(golden.ap_payload(report.results)) == \
        PINNED["ap_replay"]
    assert info.jobs == 2
