"""Trace (de)serialisation: one file per trace part, JSONL or columnar.

A saved workload is a directory of three JSONL files mirroring the
paper's dataset layout (catalog + users + request trace); pre-download
and fetch traces produced by the simulators use the same helpers.

Files with a ``.gz`` suffix are transparently gzip-compressed -- at
full paper scale (``--scale 1.0``) the request trace alone is millions
of rows, and JSONL compresses ~10x.  ``save_workload(...,
compress=True)`` writes ``*.jsonl.gz``; ``load_workload`` auto-detects
whichever variant is present, including the memory-mapped columnar
``.col`` files of :mod:`repro.workload.columnar` (a columnar week
loads as views over the mappings, not as lists).
"""

from __future__ import annotations

import gzip
import json
from operator import itemgetter
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, Sequence, Type, \
    TypeVar

from repro.obs.registry import AnyRegistry, NOOP
from repro.sim.collector import paused
from repro.workload.catalog import FileCatalog
from repro.workload.columnar import SCHEMAS, ColumnarRows, ColumnTable, \
    _encode_column, _enum_lookup, is_columnar, open_columnar, \
    write_blocks, write_columnar
from repro.workload.generator import GeneratedRequests, Workload, \
    WorkloadConfig
from repro.workload.records import (
    CatalogFile,
    RequestRecord,
    User,
    _TraceRecord,
)
from repro.workload.users import UserPopulation

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
    return [record_type(*row) for row in _parse_jsonl(
        Path(path), record_type, skip_bad_lines, metrics)]


#: The JSON types a value of each non-enum column kind may have.
_JSON_TYPES: dict[str, tuple[type, ...]] = {
    "str": (str,), "ostr": (str, type(None)), "f8": (int, float),
    "of8": (int, float, type(None)), "i8": (int,), "b1": (bool,)}


def _parse_jsonl(path: Path, record_type: Type[_TraceRecord],
                 skip_bad_lines: bool = False,
                 metrics: AnyRegistry = NOOP) -> Iterator[list]:
    """The rows of a JSONL trace file: each line's field values in
    schema order, enum values as members.  A line is bad when it is not
    a JSON object of exactly the schema's fields, a value has the wrong
    JSON type, or an enum value is unknown."""
    schema = SCHEMAS[record_type.__name__]
    fields = itemgetter(*(name for name, _kind in schema))
    checks = [(name, kind, (str,) if kind.startswith("enum:")
               else _JSON_TYPES[kind]) for name, kind in schema]
    enums = [(index, name, {value.decode(): member for value, member
                            in _enum_lookup(kind).items()})
             for index, (name, kind) in enumerate(schema)
             if kind.startswith("enum:")]

    def parse(raw: Any) -> list:
        if type(raw) is not dict or len(raw) != len(schema):
            raise ValueError(f"not an object of the {len(schema)} "
                             f"{record_type.__name__} fields")
        row = list(fields(raw))
        for value, (name, kind, allowed) in zip(row, checks):
            if type(value) not in allowed:
                raise TypeError(f"{name}: {value!r} is not {kind}")
        for index, name, members in enums:
            if row[index] not in members:
                raise ValueError(f"{name}: unknown value {row[index]!r}")
            row[index] = members[row[index]]
        return row

    skipped = metrics.counter("repro_trace_skipped_lines_total",
                              file=path.name) if skip_bad_lines else None
    loads = json.loads
    try:
        with _open_text(path, "r") as handle:
            for number, line in enumerate(handle, start=1):
                if line.isspace():
                    continue
                try:
                    row = parse(loads(line))
                except (ValueError, KeyError, TypeError) as error:
                    if skipped is None:
                        raise TraceFormatError(path, number, error) \
                            from error
                    skipped.inc()
                    continue
                yield row
    except EOFError as error:
        # A truncated gzip stream surfaces as EOFError mid-iteration:
        # strictly an error, leniently one more skipped line.
        if skipped is None:
            raise TraceFormatError(path, 0, error) from error
        skipped.inc()


def read_table(path: str | Path,
               record_type: Type[_TraceRecord]) -> ColumnTable:
    """Read one trace file as columns, columnar (mapped) or JSONL
    (parsed), detected by content."""
    path = Path(path)
    if is_columnar(path):
        return open_columnar(path, record_type)
    columns = list(zip(*_parse_jsonl(path, record_type))) or \
        [()] * len(SCHEMAS[record_type.__name__])
    return ColumnTable(record_type.__name__, {
        name: _encode_column(kind, list(column)) for (name, kind), column
        in zip(SCHEMAS[record_type.__name__], columns)})


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


def save_workload(workload: Workload, directory: str | Path,
                  compress: bool = False,
                  trace_format: str = "jsonl") -> Path:
    """Persist a workload as a directory of trace files + config.

    ``trace_format="jsonl"`` (default) writes the three JSONL traces;
    with ``compress=True`` they become ``*.jsonl.gz`` (the config stays
    plain JSON for greppability).  ``trace_format="columnar"`` writes
    memory-mappable ``*.col`` files instead (see
    :mod:`repro.workload.columnar`), which do not support ``compress``.
    The catalog, the users and a generated or mapped week's requests
    are written from their columns, building no row; the bytes are the
    same as encoding every row.  The JSONL writer builds every row.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if trace_format == "columnar":
        if compress:
            raise ValueError(
                "columnar traces do not support compress=True "
                "(the fixed-width blocks must stay memory-mappable)")
        write_blocks(directory / _columnar_name(CATALOG_FILE), CatalogFile,
                     workload.catalog.blocks())
        write_blocks(directory / _columnar_name(USERS_FILE), User,
                     workload.users.blocks())
        requests = workload.requests
        path = directory / _columnar_name(REQUESTS_FILE)
        if isinstance(requests, (GeneratedRequests, ColumnarRows)):
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
    the search to that format.  A columnar week is memory-mapped, not
    parsed: the catalog and the users are columns over their mappings,
    and ``requests`` is a :class:`ColumnarRows` view; a replay reads
    the columns as arrays (:meth:`Workload.request_columns`).  A JSONL
    catalog and users parse into columns, JSONL requests into a list.
    """
    directory = Path(directory)
    raw_config = json.loads((directory / CONFIG_FILE).read_text())
    config = WorkloadConfig(scale=raw_config["scale"],
                            seed=raw_config["seed"],
                            horizon=raw_config["horizon"])
    catalog = FileCatalog(table=read_table(
        _resolve_trace(directory, CATALOG_FILE, trace_format), CatalogFile))
    users = UserPopulation(table=read_table(
        _resolve_trace(directory, USERS_FILE, trace_format), User))
    path = _resolve_trace(directory, REQUESTS_FILE, trace_format)
    if is_columnar(path):
        requests: Sequence[RequestRecord] = \
            ColumnarRows(open_columnar(path, RequestRecord))
    else:
        # A list of rows is one large acyclic object graph
        # (repro.sim.collector).
        with paused():
            requests = read_jsonl(path, RequestRecord)
    return Workload(config=config, catalog=catalog, users=users,
                    requests=requests)
