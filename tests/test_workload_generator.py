"""Tests for arrivals, the workload generator, sampler, and trace IO."""

import gc
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.netsim.isp import ISP
from repro.perf import golden
from repro.sim.clock import DAY, WEEK
from repro.workload import (
    ArrivalProcess,
    WorkloadConfig,
    WorkloadGenerator,
    load_workload,
    sample_benchmark_requests,
    save_workload,
)
from repro.workload.columnar import write_blocks, write_columnar
from repro.workload.generator import GeneratedRequests, Workload
from repro.workload.records import (
    CatalogFile,
    FetchRecord,
    PreDownloadRecord,
    RequestRecord,
)
from repro.workload.traceio import read_jsonl, write_jsonl

PINNED = json.loads(
    (Path(__file__).parent / "data" / "golden_digests.json").read_text())


class TestArrivalProcess:
    def test_exact_count_sorted_in_horizon(self):
        process = ArrivalProcess()
        times = process.sample_times(5000, np.random.default_rng(0))
        assert len(times) == 5000
        assert np.all(np.diff(times) >= 0)
        assert times[0] >= 0.0 and times[-1] <= WEEK

    def test_zero_count(self):
        process = ArrivalProcess()
        assert len(process.sample_times(0, np.random.default_rng(1))) == 0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            ArrivalProcess().sample_times(-1, np.random.default_rng(2))

    def test_growth_loads_the_late_week(self):
        process = ArrivalProcess(growth=0.5, amplitude=0.0)
        times = process.sample_times(20000, np.random.default_rng(3))
        first_half = (times < WEEK / 2).mean()
        assert first_half < 0.47

    def test_intensity_positive(self):
        process = ArrivalProcess()
        grid = np.linspace(0, WEEK, 1000)
        assert np.all(process.intensity(grid) > 0)

    def test_diurnal_peak_in_the_evening(self):
        process = ArrivalProcess(growth=0.0, amplitude=0.5)
        hours = np.arange(24)
        intensity = process.intensity(hours * 3600.0)
        assert 19 <= hours[np.argmax(intensity)] <= 23


class TestWorkloadGenerator:
    def test_dimensions_scale(self, workload):
        config = workload.config
        assert len(workload.catalog) == config.file_count
        assert len(workload.users) == config.user_count
        # Tasks follow total catalog demand.
        assert len(workload.requests) == workload.catalog.total_demand()

    def test_requests_sorted_by_time(self, workload):
        times = [request.request_time for request in workload.requests]
        assert times == sorted(times)

    def test_request_fields_match_catalog(self, workload):
        for request in workload.requests[:300]:
            record = workload.catalog[request.file_id]
            assert request.file_size == record.size
            assert request.protocol is record.protocol
            assert request.file_type is record.file_type
            assert request.source_url == record.source_url

    def test_request_fields_match_user(self, workload):
        users = workload.user_by_id()
        for request in workload.requests[:300]:
            user = users[request.user_id]
            assert request.ip_address == user.ip_address
            assert request.access_bandwidth == user.reported_bandwidth

    def test_fetch_at_most_once_mostly_holds(self, workload):
        pairs = Counter((request.user_id, request.file_id)
                        for request in workload.requests)
        repeats = sum(1 for count in pairs.values() if count > 1)
        assert repeats / len(pairs) < 0.01

    def test_task_ids_unique(self, workload):
        ids = {request.task_id for request in workload.requests}
        assert len(ids) == len(workload.requests)

    def test_determinism(self):
        config = WorkloadConfig(scale=0.001, seed=99)
        first = WorkloadGenerator(config).generate()
        second = WorkloadGenerator(config).generate()
        assert len(first.requests) == len(second.requests)
        for a, b in zip(first.requests[:100], second.requests[:100]):
            assert a.to_dict() == b.to_dict()

    def test_request_class_shares(self, workload):
        shares = workload.request_class_shares()
        assert sum(shares.values()) == pytest.approx(1.0)


@pytest.fixture(scope="module")
def golden_week():
    config = WorkloadConfig(scale=golden.GOLDEN_SCALE,
                            seed=golden.GOLDEN_SEED)
    return WorkloadGenerator(config).generate()


@pytest.fixture(scope="module")
def golden_rows(golden_week):
    """The golden week's requests built one by one, checked against the
    pinned digest of the generator's output."""
    assert golden.digest(golden.workload_payload(golden_week)) == \
        PINNED["workload_sequential"]
    return list(golden_week.requests)


class TestGeneratedRequests:
    """A generated week holds its requests as columns under a read-only
    view that builds each row on access."""

    def test_requests_are_a_view(self, golden_week):
        assert isinstance(golden_week.requests, GeneratedRequests)

    def test_len_and_indexing(self, golden_week, golden_rows):
        requests = golden_week.requests
        count = len(golden_rows)
        assert len(requests) == count
        for index in (0, 1, count // 2, count - 1, -1, -count):
            assert requests[index] == golden_rows[index]
        assert requests[-1].task_id == f"t{count - 1:08d}"
        for index in (count, -count - 1):
            with pytest.raises(IndexError):
                requests[index]

    def test_slices_keep_original_task_ids(self, golden_week,
                                           golden_rows):
        requests = golden_week.requests
        for cut in (slice(3, 40), slice(None, None, 7), slice(-20, None),
                    slice(50, 10, -3), slice(None, None, -1),
                    slice(5, 5), slice(None, 0, -1)):
            view = requests[cut]
            assert isinstance(view, GeneratedRequests)
            assert len(view) == len(golden_rows[cut])
            assert list(view) == golden_rows[cut]
        nested = requests[10:5000][::3][-40:]
        assert list(nested) == golden_rows[10:5000][::3][-40:]
        assert nested[0].task_id == golden_rows[10:5000][::3][-40].task_id
        assert requests[100:][0].task_id == "t00000100"
        assert requests[::-1][0].task_id == golden_rows[-1].task_id

    def test_iteration_spans_several_blocks(self, golden_week,
                                            golden_rows):
        assert len(golden_rows) > 2 * 4096
        assert golden_week.requests == golden_rows
        assert golden_rows == golden_week.requests
        assert golden_week.requests != golden_rows[:-1]

    def test_request_columns_are_the_generated_arrays(self, golden_week,
                                                      golden_rows):
        columns = golden_week.request_columns()
        assert columns is golden_week.requests.columns
        listed = Workload(golden_week.config, golden_week.catalog,
                          golden_week.users,
                          golden_rows).request_columns()
        assert np.array_equal(columns.times, listed.times)
        assert np.array_equal(columns.file_rows, listed.file_rows)
        assert np.array_equal(columns.user_rows, listed.user_rows)
        cut = golden_week.requests[7:900:5].request_columns()
        assert np.array_equal(cut.user_rows, listed.user_rows[7:900:5])
        assert cut.task_id(2) == golden_rows[17].task_id

    def test_jsonl_of_a_slice_is_the_jsonl_of_its_rows(self, golden_week,
                                                       golden_rows,
                                                       tmp_path):
        # The whole view's JSONL bytes and save/load round trip are
        # pinned by the traceio_bytes and traceio_roundtrip goldens.
        cut = slice(-3000, 10, -7)
        write_jsonl(tmp_path / "view.jsonl", golden_week.requests[cut])
        write_jsonl(tmp_path / "rows.jsonl", golden_rows[cut])
        assert (tmp_path / "view.jsonl").read_bytes() == \
            (tmp_path / "rows.jsonl").read_bytes()

    def test_sliced_view_writes_the_bytes_of_its_rows(self, golden_week,
                                                      golden_rows,
                                                      tmp_path):
        cut = slice(40, 4000, 3)
        write_blocks(tmp_path / "view.col", RequestRecord,
                     golden_week.requests[cut].blocks())
        write_columnar(tmp_path / "rows.col", golden_rows[cut],
                       RequestRecord)
        assert (tmp_path / "view.col").read_bytes() == \
            (tmp_path / "rows.col").read_bytes()

    def test_generate_allocates_no_object_per_request(self):
        config = WorkloadConfig(scale=golden.GOLDEN_SCALE,
                                seed=golden.GOLDEN_SEED)
        gc.collect()
        before = len(gc.get_objects())
        week = WorkloadGenerator(config).generate()
        added = len(gc.get_objects()) - before
        assert added < len(week.requests)


class TestSampler:
    def test_sample_is_unicom_with_bandwidth(self, workload,
                                             benchmark_sample):
        users = workload.user_by_id()
        for request in benchmark_sample:
            assert request.access_bandwidth is not None
            assert users[request.user_id].isp is ISP.UNICOM

    def test_sample_size(self, benchmark_sample):
        assert len(benchmark_sample) == 400

    def test_sample_without_replacement_when_possible(self, workload):
        sample = sample_benchmark_requests(workload, 100)
        assert len({request.task_id for request in sample}) == 100

    def test_invalid_count_rejected(self, workload):
        with pytest.raises(ValueError):
            sample_benchmark_requests(workload, 0)

    def test_empty_pool_rejected(self, workload):
        from repro.workload.generator import Workload
        from repro.workload.users import UserPopulation
        empty = Workload(config=workload.config, catalog=workload.catalog,
                         users=UserPopulation(), requests=[])
        with pytest.raises(ValueError):
            sample_benchmark_requests(empty, 10)


class TestTraceIO:
    def test_jsonl_roundtrip_requests(self, workload, tmp_path):
        path = tmp_path / "requests.jsonl"
        rows = workload.requests[:50]
        assert write_jsonl(path, rows) == 50
        loaded = read_jsonl(path, RequestRecord)
        assert [r.to_dict() for r in loaded] == \
            [r.to_dict() for r in rows]

    def test_jsonl_roundtrip_pre_and_fetch_records(self, tmp_path):
        pre = PreDownloadRecord(
            task_id="t1", file_id="f1", start_time=0.0,
            finish_time=60.0, acquired_bytes=100.0, traffic_bytes=110.0,
            cache_hit=False, average_speed=1.7, peak_speed=2.0,
            success=True)
        fetch = FetchRecord(
            task_id="t1", user_id="u1", ip_address="1.2.3.4",
            access_bandwidth=None, start_time=60.0, finish_time=120.0,
            acquired_bytes=100.0, traffic_bytes=108.0,
            average_speed=1.7, peak_speed=2.2, rejected=False)
        path_a, path_b = tmp_path / "pre.jsonl", tmp_path / "fetch.jsonl"
        write_jsonl(path_a, [pre])
        write_jsonl(path_b, [fetch])
        assert read_jsonl(path_a, PreDownloadRecord)[0].to_dict() == \
            pre.to_dict()
        loaded_fetch = read_jsonl(path_b, FetchRecord)[0]
        assert loaded_fetch.access_bandwidth is None
        assert loaded_fetch.delay == 60.0

    def test_workload_save_load_roundtrip(self, tmp_path):
        config = WorkloadConfig(scale=0.0008, seed=5)
        workload = WorkloadGenerator(config).generate()
        directory = save_workload(workload, tmp_path / "trace")
        loaded = load_workload(directory)
        assert loaded.config.scale == config.scale
        assert len(loaded.catalog) == len(workload.catalog)
        assert len(loaded.users) == len(workload.users)
        assert [r.to_dict() for r in loaded.requests] == \
            [r.to_dict() for r in workload.requests]

    def test_gzipped_jsonl_roundtrip(self, tmp_path):
        from repro.workload.records import FileType, Protocol
        records = [RequestRecord(task_id=f"t{i}", user_id="u",
                                 ip_address="1.2.3.4",
                                 access_bandwidth=None,
                                 request_time=float(i), file_id="f",
                                 file_type=FileType.VIDEO,
                                 file_size=100.0,
                                 source_url="http://origin/f",
                                 protocol=Protocol.HTTP)
                   for i in range(50)]
        path = tmp_path / "requests.jsonl.gz"
        assert write_jsonl(path, records) == 50
        # Genuinely gzip on disk (magic bytes), not just a renamed file.
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        loaded = read_jsonl(path, RequestRecord)
        assert [r.to_dict() for r in loaded] == \
            [r.to_dict() for r in records]

    def test_compressed_workload_save_load_roundtrip(self, tmp_path):
        config = WorkloadConfig(scale=0.0008, seed=5)
        workload = WorkloadGenerator(config).generate()
        directory = save_workload(workload, tmp_path / "trace",
                                  compress=True)
        assert (directory / "requests.jsonl.gz").exists()
        assert not (directory / "requests.jsonl").exists()
        assert (directory / "config.json").exists()
        loaded = load_workload(directory)
        assert [r.to_dict() for r in loaded.requests] == \
            [r.to_dict() for r in workload.requests]
        assert {f.file_id for f in loaded.catalog} == \
            {f.file_id for f in workload.catalog}


class TestTraceHardening:
    """Corrupt trace files fail with file:line context or, in lenient
    mode, load partially with the drops counted."""

    @staticmethod
    def _write_rows(path, rows):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(rows) + "\n")

    @staticmethod
    def _good_line(task_id="t-1"):
        from repro.workload.generator import WorkloadConfig, \
            WorkloadGenerator
        workload = WorkloadGenerator(
            WorkloadConfig(scale=0.001, seed=5)).generate()
        row = workload.requests[0].to_dict()
        row["task_id"] = task_id
        return json.dumps(row)

    def test_malformed_json_names_file_and_line(self, tmp_path):
        from repro.workload.traceio import TraceFormatError
        path = tmp_path / "requests.jsonl"
        self._write_rows(path, [self._good_line("t-1"),
                                "{not json", self._good_line("t-3")])
        with pytest.raises(TraceFormatError) as excinfo:
            read_jsonl(path, RequestRecord)
        assert excinfo.value.line == 2
        assert excinfo.value.path == path
        assert "requests.jsonl:2:" in str(excinfo.value)

    def test_missing_field_names_file_and_line(self, tmp_path):
        from repro.workload.traceio import TraceFormatError
        path = tmp_path / "requests.jsonl"
        row = json.loads(self._good_line())
        del row["file_id"]
        self._write_rows(path, [self._good_line(), json.dumps(row)])
        with pytest.raises(TraceFormatError) as excinfo:
            read_jsonl(path, RequestRecord)
        assert excinfo.value.line == 2

    def test_unknown_enum_value_names_file_and_line(self, tmp_path):
        from repro.obs.registry import MetricsRegistry
        from repro.workload.traceio import TraceFormatError
        path = tmp_path / "requests.jsonl"
        row = json.loads(self._good_line("t-2"))
        row["protocol"] = "carrier-pigeon"
        self._write_rows(path, [self._good_line(), json.dumps(row),
                                self._good_line("t-3")])
        with pytest.raises(TraceFormatError) as excinfo:
            read_jsonl(path, RequestRecord)
        assert excinfo.value.line == 2
        loaded = read_jsonl(path, RequestRecord, skip_bad_lines=True,
                            metrics=MetricsRegistry())
        assert [r.task_id for r in loaded] == ["t-1", "t-3"]

    @pytest.mark.parametrize("field, value", [
        ("file_size", "big"), ("request_time", None), ("task_id", None),
        ("source_url", 7), ("access_bandwidth", "fast"),
        ("file_size", True), ("extra", 1)])
    def test_bad_value_or_extra_key_names_file_and_line(
            self, tmp_path, field, value):
        from repro.obs.registry import MetricsRegistry
        from repro.workload.traceio import TraceFormatError
        path = tmp_path / "requests.jsonl"
        row = json.loads(self._good_line("t-2"))
        row[field] = value
        self._write_rows(path, [self._good_line(), json.dumps(row),
                                self._good_line("t-3")])
        with pytest.raises(TraceFormatError) as excinfo:
            read_jsonl(path, RequestRecord)
        assert excinfo.value.line == 2
        assert "requests.jsonl:2:" in str(excinfo.value)
        metrics = MetricsRegistry()
        loaded = read_jsonl(path, RequestRecord, skip_bad_lines=True,
                            metrics=metrics)
        assert [r.task_id for r in loaded] == ["t-1", "t-3"]
        assert metrics.snapshot()[
            'repro_trace_skipped_lines_total{file="requests.jsonl"}'] \
            == 1.0

    def test_bad_catalog_value_names_file_and_line(self, tmp_path):
        from repro.workload.traceio import TraceFormatError, read_table
        workload = WorkloadGenerator(
            WorkloadConfig(scale=0.001, seed=5)).generate()
        rows = [record.to_dict() for record in list(workload.catalog)[:3]]
        rows[1]["weekly_demand"] = 2.5
        path = tmp_path / "catalog.jsonl"
        self._write_rows(path, [json.dumps(row) for row in rows])
        with pytest.raises(TraceFormatError) as excinfo:
            read_table(path, CatalogFile)
        assert excinfo.value.line == 2

    def test_skip_bad_lines_salvages_and_counts(self, tmp_path):
        from repro.obs.registry import MetricsRegistry
        path = tmp_path / "requests.jsonl"
        self._write_rows(path, [self._good_line("t-1"), "oops",
                                self._good_line("t-3"), "{}"])
        metrics = MetricsRegistry()
        loaded = read_jsonl(path, RequestRecord, skip_bad_lines=True,
                            metrics=metrics)
        assert [r.task_id for r in loaded] == ["t-1", "t-3"]
        assert metrics.snapshot()[
            'repro_trace_skipped_lines_total{file="requests.jsonl"}'] \
            == 2.0

    def test_truncated_gzip_raises_trace_format_error(self, tmp_path):
        import gzip as gzip_module
        from repro.workload.traceio import TraceFormatError
        path = tmp_path / "requests.jsonl.gz"
        blob = gzip_module.compress(
            ("\n".join([self._good_line(f"t-{i}") for i in range(50)])
             + "\n").encode())
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(TraceFormatError):
            read_jsonl(path, RequestRecord)

    def test_skip_bad_lines_inside_gzip_salvages_and_counts(
            self, tmp_path):
        import gzip as gzip_module
        from repro.obs.registry import MetricsRegistry
        path = tmp_path / "requests.jsonl.gz"
        text = "\n".join([self._good_line("t-1"), "{corrupt",
                          self._good_line("t-3")]) + "\n"
        path.write_bytes(gzip_module.compress(text.encode()))
        metrics = MetricsRegistry()
        loaded = read_jsonl(path, RequestRecord, skip_bad_lines=True,
                            metrics=metrics)
        assert [r.task_id for r in loaded] == ["t-1", "t-3"]
        assert metrics.snapshot()[
            'repro_trace_skipped_lines_total{file="requests.jsonl.gz"}'] \
            == 1.0

    def test_strict_gzip_error_names_file_and_decompressed_line(
            self, tmp_path):
        import gzip as gzip_module
        from repro.workload.traceio import TraceFormatError
        path = tmp_path / "requests.jsonl.gz"
        text = "\n".join([self._good_line("t-1"), self._good_line("t-2"),
                          "nope"]) + "\n"
        path.write_bytes(gzip_module.compress(text.encode()))
        with pytest.raises(TraceFormatError) as excinfo:
            read_jsonl(path, RequestRecord)
        assert excinfo.value.path == path
        assert excinfo.value.line == 3
        assert "requests.jsonl.gz:3:" in str(excinfo.value)

    def test_lenient_gzip_roundtrip_matches_strict_on_clean_file(
            self, tmp_path):
        import gzip as gzip_module
        path = tmp_path / "requests.jsonl.gz"
        text = "\n".join([self._good_line(f"t-{i}")
                          for i in range(10)]) + "\n"
        path.write_bytes(gzip_module.compress(text.encode()))
        strict = read_jsonl(path, RequestRecord)
        lenient = read_jsonl(path, RequestRecord, skip_bad_lines=True)
        assert [r.to_dict() for r in strict] == \
            [r.to_dict() for r in lenient]

    def test_clean_file_identical_through_hardened_reader(self, tmp_path):
        from repro.obs.registry import MetricsRegistry
        path = tmp_path / "requests.jsonl"
        self._write_rows(path, [self._good_line(f"t-{i}")
                                for i in range(10)])
        strict = read_jsonl(path, RequestRecord)
        metrics = MetricsRegistry()
        lenient = read_jsonl(path, RequestRecord, skip_bad_lines=True,
                             metrics=metrics)
        assert [r.to_dict() for r in strict] == \
            [r.to_dict() for r in lenient]
        assert metrics.snapshot()[
            'repro_trace_skipped_lines_total{file="requests.jsonl"}'] \
            == 0.0
