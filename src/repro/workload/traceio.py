"""Trace (de)serialisation: one file per trace part, JSONL or columnar.

A saved workload is a directory of three JSONL files mirroring the
paper's dataset layout (catalog + users + request trace); pre-download
and fetch traces produced by the simulators use the same helpers.

Files with a ``.gz`` suffix are transparently gzip-compressed -- at
full paper scale (``--scale 1.0``) the request trace alone is millions
of rows, and JSONL compresses ~10x.  ``save_workload(...,
compress=True)`` writes ``*.jsonl.gz``; ``load_workload`` auto-detects
whichever variant is present, including the memory-mapped columnar
``.col`` files of :mod:`repro.workload.columnar` (a columnar request
trace loads as a view over the mapping, not as a list).
"""

from __future__ import annotations

import gzip
import json
from operator import is_
from pathlib import Path
from typing import IO, Iterable, Sequence, Type, TypeVar

from repro.obs.registry import AnyRegistry, NOOP
from repro.sim.collector import paused
from repro.workload.catalog import FileCatalog
from repro.workload.columnar import ColumnarRows, encode_records, \
    is_columnar, open_columnar, read_columnar, write_blocks, \
    write_columnar
from repro.workload.generator import GeneratedRequests, Workload, \
    WorkloadConfig
from repro.workload.records import (
    CatalogFile,
    FetchRecord,
    PreDownloadRecord,
    RequestRecord,
    User,
    _TraceRecord,
)

R = TypeVar("R", bound=_TraceRecord)

CATALOG_FILE = "catalog.jsonl"
USERS_FILE = "users.jsonl"
REQUESTS_FILE = "requests.jsonl"
CONFIG_FILE = "config.json"

#: Rows per write/encode batch.  Large enough to amortise the per-call
#: overhead of ``handle.write`` (one syscall-ish boundary per chunk
#: instead of per row), small enough to keep the join buffer in cache.
_CHUNK_ROWS = 4096


class TraceFormatError(ValueError):
    """A trace row failed to parse or validate.

    Carries the offending file and 1-based line number so a corrupt
    multi-gigabyte trace is diagnosable without bisecting it by hand.
    """

    def __init__(self, path: Path, line: int, cause: Exception):
        super().__init__(f"{path}:{line}: {cause}")
        self.path = path
        self.line = line
        self.cause = cause


def _open_text(path: Path, mode: str) -> IO[str]:
    """Open a trace file for text I/O, gzip-aware by suffix."""
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t")
    return path.open(mode)


def write_jsonl(path: str | Path, records: Iterable[_TraceRecord]) -> int:
    """Write records as one JSON object per line; returns the row count.

    A ``.gz`` suffix selects gzip compression.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    dumps = json.dumps
    chunk: list[str] = []
    append = chunk.append
    with _open_text(path, "w") as handle:
        write = handle.write
        for record in records:
            append(dumps(record.to_dict()))
            count += 1
            if len(chunk) >= _CHUNK_ROWS:
                # One write per chunk; "\n".join + trailing newline is
                # byte-identical to the old per-row write(line + "\n").
                write("\n".join(chunk) + "\n")
                chunk.clear()
        if chunk:
            write("\n".join(chunk) + "\n")
    return count


def read_jsonl(path: str | Path, record_type: Type[R],
               skip_bad_lines: bool = False,
               metrics: AnyRegistry = NOOP) -> list[R]:
    """Read a (possibly gzipped) JSONL trace file back into records.

    A malformed row raises :class:`TraceFormatError` naming the file
    and line.  With ``skip_bad_lines=True`` bad rows are dropped
    instead, counted on the ``repro_trace_skipped_lines_total`` metric
    (labelled by file name), and the rest of the file still loads --
    the degradation mode for salvaging a partially corrupt trace.
    """
    path = Path(path)
    if skip_bad_lines:
        return _read_jsonl_lenient(path, record_type, metrics)
    loads = json.loads
    from_dict = record_type.from_dict
    try:
        with _open_text(path, "r") as handle:
            # Fast path: no per-line bookkeeping (json.loads tolerates
            # surrounding whitespace, so blank-line filtering is the
            # only per-line string work).
            return [from_dict(loads(line)) for line in handle
                    if not line.isspace()]
    except EOFError as error:
        # A truncated gzip stream surfaces as EOFError mid-iteration.
        raise TraceFormatError(path, 0, error) from error
    except (ValueError, KeyError, TypeError):
        # A bad row: re-parse slowly to attribute the file:line.
        return _read_jsonl_strict(path, record_type)


def _read_jsonl_strict(path: Path, record_type: Type[R]) -> list[R]:
    """Slow re-parse that pins the failure to a file:line."""
    loads = json.loads
    from_dict = record_type.from_dict
    records: list[R] = []
    with _open_text(path, "r") as handle:
        for number, line in enumerate(handle, start=1):
            if line.isspace():
                continue
            try:
                records.append(from_dict(loads(line)))
            except (ValueError, KeyError, TypeError) as error:
                raise TraceFormatError(path, number, error) from error
    return records


def _read_jsonl_lenient(path: Path, record_type: Type[R],
                        metrics: AnyRegistry) -> list[R]:
    """Per-line parse that drops and counts malformed rows."""
    loads = json.loads
    from_dict = record_type.from_dict
    records: list[R] = []
    skipped = metrics.counter("repro_trace_skipped_lines_total",
                              file=path.name)
    with _open_text(path, "r") as handle:
        try:
            for line in handle:
                if line.isspace():
                    continue
                try:
                    records.append(from_dict(loads(line)))
                except (ValueError, KeyError, TypeError):
                    skipped.inc()
        except EOFError:
            # Truncated gzip: salvage everything decoded so far and
            # count the cut-off as one skipped line.
            skipped.inc()
    return records


def _columnar_name(name: str) -> str:
    """``catalog.jsonl`` -> ``catalog.col``."""
    return name[:-len(".jsonl")] + ".col" if name.endswith(".jsonl") \
        else name + ".col"


def _resolve_trace(directory: Path, name: str,
                   trace_format: str = "auto") -> Path:
    """Find one trace part in a saved-workload directory.

    With the default ``trace_format="auto"`` the columnar variant
    (``name.col``) wins when present, then ``name``, then ``name.gz``.
    An explicit ``"columnar"`` or ``"jsonl"`` only accepts that format.
    """
    columnar = directory / _columnar_name(name)
    plain = directory / name
    compressed = directory / (name + ".gz")
    if trace_format == "columnar":
        candidates = [columnar]
    elif trace_format == "jsonl":
        candidates = [plain, compressed]
    else:
        candidates = [columnar, plain, compressed]
    for candidate in candidates:
        if candidate.exists():
            return candidate
    wanted = " or ".join(candidate.name for candidate in candidates)
    raise FileNotFoundError(f"{directory / name}: none of {wanted} found")


def read_trace(path: str | Path, record_type: Type[R],
               skip_bad_lines: bool = False,
               metrics: AnyRegistry = NOOP) -> list[R]:
    """Read one trace file, columnar or JSONL, detected by content.

    ``.col`` files dispatch to :func:`read_columnar`
    (``skip_bad_lines`` does not apply to them -- a columnar file is
    validated structurally, not row by row); everything else goes
    through :func:`read_jsonl`.
    """
    path = Path(path)
    if is_columnar(path):
        return read_columnar(path, record_type)
    return read_jsonl(path, record_type, skip_bad_lines=skip_bad_lines,
                      metrics=metrics)


def _same_rows(rows: Sequence, others: Sequence) -> bool:
    """Whether two sequences hold the same objects, row for row."""
    return len(rows) == len(others) and all(map(is_, rows, others))


def save_workload(workload: Workload, directory: str | Path,
                  compress: bool = False,
                  trace_format: str = "jsonl") -> Path:
    """Persist a workload as a directory of trace files + config.

    ``trace_format="jsonl"`` (default) writes the three JSONL traces;
    with ``compress=True`` they become ``*.jsonl.gz`` (the config stays
    plain JSON for greppability).  ``trace_format="columnar"`` writes
    memory-mappable ``*.col`` files instead (see
    :mod:`repro.workload.columnar`), which do not support ``compress``.
    A generated or mapped week writes its request file from its columns
    (:func:`~repro.workload.columnar.write_blocks`), building no row;
    the bytes are the same as encoding every row.  A generated week
    over the workload's own catalog and users takes its file and user
    fields from the columns just written for those, encoding each once.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if trace_format == "columnar":
        if compress:
            raise ValueError(
                "columnar traces do not support compress=True "
                "(the fixed-width blocks must stay memory-mappable)")
        catalog = list(workload.catalog)
        files = encode_records(catalog, CatalogFile)
        users = encode_records(workload.users, User)
        write_blocks(directory / _columnar_name(CATALOG_FILE), CatalogFile,
                     files)
        write_blocks(directory / _columnar_name(USERS_FILE), User, users)
        requests = workload.requests
        path = directory / _columnar_name(REQUESTS_FILE)
        if isinstance(requests, GeneratedRequests):
            columns = requests.columns
            write_blocks(path, RequestRecord, requests.blocks(
                files if _same_rows(columns.files, catalog) else None,
                users if _same_rows(columns.users, workload.users)
                else None))
        elif isinstance(requests, ColumnarRows):
            write_blocks(path, RequestRecord, requests.blocks())
        else:
            write_columnar(path, requests, RequestRecord)
    elif trace_format == "jsonl":
        suffix = ".gz" if compress else ""
        write_jsonl(directory / (CATALOG_FILE + suffix),
                    iter(workload.catalog))
        write_jsonl(directory / (USERS_FILE + suffix), workload.users)
        write_jsonl(directory / (REQUESTS_FILE + suffix),
                    workload.requests)
    else:
        raise ValueError(f"unknown trace_format {trace_format!r}")
    config = {"scale": workload.config.scale, "seed": workload.config.seed,
              "horizon": workload.config.horizon}
    (directory / CONFIG_FILE).write_text(json.dumps(config, indent=2))
    return directory


def load_workload(directory: str | Path,
                  trace_format: str = "auto") -> Workload:
    """Load a workload previously written by :func:`save_workload`.

    Detects per file which variant is present (columnar beats plain
    beats gzipped); ``trace_format="columnar"``/``"jsonl"`` restricts
    the search to that format.  The catalog and users are read into
    objects.  A columnar request trace is memory-mapped, not parsed:
    ``requests`` is a read-only :class:`ColumnarRows` view that builds
    each row on access, and a replay reads its columns as arrays
    (:meth:`Workload.request_columns`).  A JSONL request trace loads
    as a list.
    """
    directory = Path(directory)
    raw_config = json.loads((directory / CONFIG_FILE).read_text())
    config = WorkloadConfig(scale=raw_config["scale"],
                            seed=raw_config["seed"],
                            horizon=raw_config["horizon"])
    catalog = FileCatalog()
    # The week is one large acyclic object graph (repro.sim.collector).
    with paused():
        for record in read_trace(
                _resolve_trace(directory, CATALOG_FILE, trace_format),
                CatalogFile):
            catalog.files[record.file_id] = record
        users = read_trace(
            _resolve_trace(directory, USERS_FILE, trace_format), User)
        path = _resolve_trace(directory, REQUESTS_FILE, trace_format)
        requests: Sequence[RequestRecord] = \
            ColumnarRows(open_columnar(path, RequestRecord)) \
            if is_columnar(path) else read_jsonl(path, RequestRecord)
    return Workload(config=config, catalog=catalog, users=users,
                    requests=requests)
