"""The columnar trace format (:mod:`repro.workload.columnar`).

Three layers of proof:

* **Round-trips.**  For every pinned record type, a columnar write/read
  cycle returns records equal to the originals -- and equal to what the
  JSONL path returns for the same rows -- under both the memory-mapped
  and the buffered reader.
* **Structure.**  Wrong record type, truncated files and random-access
  ``take`` behave as documented.
* **Golden replays.**  A cloud replay driven from a workload saved and
  re-loaded in columnar form, and a sharded (``jobs=2``) zero-copy AP
  replay fed row indices into a memory-mapped ``.col`` trace, both
  reproduce the pinned pre-optimisation golden digests bit for bit.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.perf import golden
from repro.workload.columnar import (
    RECORD_TYPES,
    ColumnarFormatError,
    ColumnarTrace,
    is_columnar,
    read_columnar,
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

    mapped = read_columnar(col_path, record_type)
    buffered = read_columnar(col_path, record_type, mmap=False)
    via_jsonl = read_jsonl(jsonl_path, record_type)

    assert mapped == records
    assert buffered == records
    assert via_jsonl == records
    assert [r.to_dict() for r in mapped] == \
        [r.to_dict() for r in via_jsonl]


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
        assert read_columnar(path, record_type) == records
        assert read_columnar(path, record_type, mmap=False) == records


# -- structural behaviour ---------------------------------------------------


def test_record_type_mismatch_raises(workload, tmp_path):
    path = tmp_path / "requests.col"
    write_columnar(path, workload.requests[:4], RequestRecord)
    with pytest.raises(ColumnarFormatError):
        read_columnar(path, User)


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
        ColumnarTrace(path).materialize()


def test_take_decodes_selected_rows_in_order(workload, tmp_path):
    records = workload.requests[:10]
    path = tmp_path / "requests.col"
    write_columnar(path, records, RequestRecord)
    trace = ColumnarTrace(path)
    assert len(trace) == len(records)
    assert trace.take([7, 0, 7, 3]) == \
        [records[7], records[0], records[7], records[3]]
    assert trace.materialize(2, 5) == records[2:5]


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
