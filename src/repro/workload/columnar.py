"""Zero-copy columnar trace files (the ``.col`` sibling of JSONL).

A ``.col`` file stores one trace part (catalog / users / requests /
pre-download / fetch) column by column instead of row by row::

    offset 0   magic  b"RPROCOL1"
    offset 8   uint64 little-endian header length H
    offset 16  header JSON (H bytes)
    ...        zero padding to an 8-byte boundary
    ...        column blocks, each 8-byte aligned

The header describes every column: name, field kind, numpy dtype
string, absolute byte offset, and byte length (plus a companion
null-mask block for optional fields).  Strings and enum values are
fixed-width byte columns sized to the longest value in the file, so
every block is a plain contiguous array: a reader memory-maps the file
once and *views* each column in place -- no row-by-row JSON decoding,
no per-row allocation until a row is asked for, and a shard worker
that needs rows ``[k::n]`` touches only those rows' bytes.

Loading a week is a mapping, not a parse: the request trace loads as
:class:`ColumnarRows`, which builds each row on access, and the catalog
and the users as :class:`CachedRows`, which build each row once.  A
replay reads the columns it needs as arrays without building a record.

Writing is two steps: encode the columns, then write the blocks
(:func:`write_blocks`, which sizes each string column to its longest
value and lays out the header).  :func:`write_columnar` encodes record
objects field by field; a generated or mapped week hands over the
columns it holds, so neither builds a row to be saved.

When to prefer which format: JSONL stays the interchange format --
greppable, appendable, diff-friendly, gzip-compressible.  Columnar is
the replay format: reads are ~an order of magnitude faster, slices and
samples decode only the requested rows, and concurrent shard workers
share one page cache mapping instead of each re-decoding the file.
The two round-trip losslessly (``tests/test_traceio_columnar.py``).
"""

from __future__ import annotations

import copy
import json
import struct
from collections.abc import Sequence
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Type

import numpy as np

from repro.workload.records import (
    CatalogFile,
    FetchRecord,
    PreDownloadRecord,
    RequestRecord,
    User,
    _TraceRecord,
)

MAGIC = b"RPROCOL1"
COLUMNAR_SUFFIX = ".col"
_ALIGN = 8

#: Per-record-type column schemas: (field name, kind) in declaration
#: order.  Kinds: ``str`` (fixed-width bytes), ``ostr`` (nullable
#: string + mask), ``f8`` / ``of8`` (float64, nullable variant +
#: mask), ``i8`` (int64), ``b1`` (bool), ``enum:<Class>`` (the enum's
#: ``.value`` string).  The schema is the serialisation contract;
#: adding a field to a record means adding it here (the round-trip
#: test fails otherwise).
SCHEMAS: dict[str, tuple[tuple[str, str], ...]] = {
    "CatalogFile": (
        ("file_id", "str"), ("size", "f8"),
        ("file_type", "enum:FileType"), ("protocol", "enum:Protocol"),
        ("weekly_demand", "i8"), ("source_url", "str"),
    ),
    "User": (
        ("user_id", "str"), ("ip_address", "str"), ("isp", "enum:ISP"),
        ("access_bandwidth", "f8"), ("reports_bandwidth", "b1"),
    ),
    "RequestRecord": (
        ("task_id", "str"), ("user_id", "str"), ("ip_address", "str"),
        ("access_bandwidth", "of8"), ("request_time", "f8"),
        ("file_id", "str"), ("file_type", "enum:FileType"),
        ("file_size", "f8"), ("source_url", "str"),
        ("protocol", "enum:Protocol"),
    ),
    "PreDownloadRecord": (
        ("task_id", "str"), ("file_id", "str"), ("start_time", "f8"),
        ("finish_time", "f8"), ("acquired_bytes", "f8"),
        ("traffic_bytes", "f8"), ("cache_hit", "b1"),
        ("average_speed", "f8"), ("peak_speed", "f8"),
        ("success", "b1"), ("failure_cause", "ostr"),
    ),
    "FetchRecord": (
        ("task_id", "str"), ("user_id", "str"), ("ip_address", "str"),
        ("access_bandwidth", "of8"), ("start_time", "f8"),
        ("finish_time", "f8"), ("acquired_bytes", "f8"),
        ("traffic_bytes", "f8"), ("average_speed", "f8"),
        ("peak_speed", "f8"), ("rejected", "b1"),
    ),
}

RECORD_TYPES: dict[str, Type[_TraceRecord]] = {
    "CatalogFile": CatalogFile,
    "User": User,
    "RequestRecord": RequestRecord,
    "PreDownloadRecord": PreDownloadRecord,
    "FetchRecord": FetchRecord,
}


class ColumnarFormatError(ValueError):
    """A ``.col`` file failed structural validation."""


def _enum_lookup(kind: str) -> dict[bytes, Any]:
    """Encoded value -> member of the enum an ``enum:<Class>`` column
    holds."""
    from repro.netsim.isp import ISP
    from repro.transfer.protocols import Protocol
    from repro.workload.filetypes import FileType
    enum_type = {"FileType": FileType, "Protocol": Protocol,
                 "ISP": ISP}[kind.split(":", 1)[1]]
    return {member.value.encode("utf-8"): member for member in enum_type}


def _pad(n: int) -> int:
    return -n % _ALIGN


# -- writing ---------------------------------------------------------------------


def _encode_column(kind: str, values: list) -> tuple[np.ndarray,
                                                     Optional[np.ndarray]]:
    """Encode one field's values; returns (data, null mask or None)."""
    if kind == "f8":
        return np.array(values, dtype="<f8"), None
    if kind == "i8":
        return np.array(values, dtype="<i8"), None
    if kind == "b1":
        return np.array(values, dtype="|b1"), None
    if kind == "of8":
        mask = np.array([value is None for value in values], dtype="|b1")
        data = np.array([0.0 if value is None else value
                         for value in values], dtype="<f8")
        return data, mask
    if kind == "str" or kind.startswith("enum:"):
        if kind.startswith("enum:"):
            values = [value.value for value in values]
        raw = [value.encode("utf-8") for value in values]
        width = max((len(value) for value in raw), default=1) or 1
        return np.array(raw, dtype=f"|S{width}"), None
    if kind == "ostr":
        mask = np.array([value is None for value in values], dtype="|b1")
        raw = [b"" if value is None else value.encode("utf-8")
               for value in values]
        width = max((len(value) for value in raw), default=1) or 1
        return np.array(raw, dtype=f"|S{width}"), mask
    raise ColumnarFormatError(f"unknown column kind {kind!r}")


#: One encoded column: its data block and its null mask (``None`` for
#: a field that cannot be null).
Column = tuple[np.ndarray, Optional[np.ndarray]]


def _schema(record_type: Type[_TraceRecord]) -> tuple[tuple[str, str], ...]:
    schema = SCHEMAS.get(record_type.__name__)
    if schema is None:
        raise ColumnarFormatError(
            f"no columnar schema for {record_type.__name__}")
    return schema


def encode_records(records: Sequence[_TraceRecord],
                   record_type: Type[_TraceRecord]) -> dict[str, Column]:
    """Every field of ``records`` (rows of ``record_type``) as a
    column, keyed by field name."""
    return {name: _encode_column(kind, [getattr(record, name)
                                        for record in records])
            for name, kind in _schema(record_type)}


def _fit(data: np.ndarray) -> np.ndarray:
    """A byte-string column re-cast to the width of its longest value
    (1 at least), as :func:`_encode_column` sizes it."""
    data = np.ascontiguousarray(data)
    width = data.dtype.itemsize
    raw = data.view(np.uint8).reshape(len(data), width)
    fitted = width
    while fitted > 1 and not raw[:, fitted - 1].any():
        fitted -= 1
    return data if fitted == width else data.astype(f"|S{fitted}")


def write_columnar(path: str | Path, records: Sequence[_TraceRecord],
                   record_type: Optional[Type[_TraceRecord]] = None
                   ) -> int:
    """Write records as one columnar ``.col`` file; returns the row count.

    ``record_type`` is required when ``records`` is empty (the file
    still carries the schema so a reader knows what it holds).
    """
    records = list(records)
    if record_type is None:
        if not records:
            raise ValueError("record_type is required for an empty trace")
        record_type = type(records[0])
    return write_blocks(path, record_type,
                        encode_records(records, record_type))


def write_blocks(path: str | Path, record_type: Type[_TraceRecord],
                 columns: dict[str, Column]) -> int:
    """Write already-encoded columns as one ``.col`` file of
    ``record_type`` rows; returns the row count.

    ``columns`` maps every schema field to its data and null mask
    (:func:`encode_records`, or arrays taken from other columns).
    String and enum columns are re-cast to the width of their longest
    value, so a column taken from a wider one writes the same bytes as
    one encoded from the same values.
    """
    schema = _schema(record_type)
    blocks: list[np.ndarray] = []
    entries: list[dict[str, Any]] = []
    rows = len(columns[schema[0][0]][0])
    # Offsets are assigned after the header is sized; collect blocks
    # with their (aligned) lengths first.
    for field_name, kind in schema:
        data, mask = columns[field_name]
        if data.dtype.kind == "S":
            data = _fit(data)
        if len(data) != rows:
            raise ValueError(f"column {field_name!r} holds {len(data)} "
                             f"rows, not {rows}")
        entry: dict[str, Any] = {
            "name": field_name, "kind": kind,
            "dtype": data.dtype.str, "nbytes": int(data.nbytes),
        }
        blocks.append(data)
        if mask is not None:
            entry["null_nbytes"] = int(mask.nbytes)
            blocks.append(mask)
        entries.append(entry)

    # Two passes over the header: offsets depend on the header length,
    # which depends on the offsets' digit counts.  Fixed-width offset
    # rendering would dodge that; one retry loop is simpler and always
    # converges (offsets only ever grow).
    def render(header_guess: int) -> bytes:
        cursor = 16 + header_guess
        cursor += _pad(cursor)
        placed = []
        for entry in entries:
            entry = dict(entry)
            entry["offset"] = cursor
            cursor += entry["nbytes"] + _pad(entry["nbytes"])
            if "null_nbytes" in entry:
                entry["null_offset"] = cursor
                cursor += entry["null_nbytes"] + _pad(entry["null_nbytes"])
            placed.append(entry)
        return json.dumps({"record": record_type.__name__, "rows": rows,
                           "columns": placed}).encode("utf-8")

    header = render(0)
    while True:
        next_header = render(len(header))
        if len(next_header) == len(header):
            header = next_header
            break
        header = next_header

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as handle:
        handle.write(MAGIC)
        handle.write(struct.pack("<Q", len(header)))
        handle.write(header)
        handle.write(b"\0" * _pad(16 + len(header)))
        for block in blocks:
            handle.write(np.ascontiguousarray(block))
            handle.write(b"\0" * _pad(block.nbytes))
    return rows


# -- reading ---------------------------------------------------------------------


def is_columnar(path: str | Path) -> bool:
    """True when ``path`` exists and starts with the columnar magic."""
    path = Path(path)
    if not path.is_file():
        return False
    with path.open("rb") as handle:
        return handle.read(len(MAGIC)) == MAGIC


class ColumnTable:
    """Rows of one record type as the encoded blocks a ``.col`` file
    stores, mapped (:class:`ColumnarTrace`) or in memory.  ``take`` and
    ``row`` decode only the rows they return, ``value`` one field."""

    def __init__(self, record_name: str, blocks: dict[str, Column]):
        self.record_name = record_name
        self._blocks = blocks
        self._scalar_readers: Optional[
            dict[str, Callable[[int], Any]]] = None
        self._count = len(next(iter(blocks.values()))[0])

    def __len__(self) -> int:
        return self._count

    @property
    def record_type(self) -> Type[_TraceRecord]:
        return RECORD_TYPES[self.record_name]

    def column(self, name: str) -> np.ndarray:
        """The raw (encoded) column ``name``."""
        return self._blocks[name][0]

    def null_mask(self, name: str) -> Optional[np.ndarray]:
        return self._blocks[name][1]

    def blocks(self) -> dict[str, Column]:
        """Every column and null mask, as :func:`write_blocks` takes
        them."""
        return self._blocks

    # -- decoding ---------------------------------------------------------------

    def _decode(self, name: str, kind: str, rows: Any) -> list:
        """Decode one column restricted to ``rows`` (a slice or index
        array) into python values."""
        data = self.column(name)[rows]
        if kind in ("f8", "i8", "b1"):
            return data.tolist()
        if kind == "of8":
            mask = self.null_mask(name)[rows].tolist()
            values = data.tolist()
            return [None if null else value
                    for value, null in zip(values, mask)]
        if kind == "str":
            return [value.decode("utf-8") for value in data.tolist()]
        if kind == "ostr":
            mask = self.null_mask(name)[rows].tolist()
            return [None if null else value.decode("utf-8")
                    for value, null in zip(data.tolist(), mask)]
        if kind.startswith("enum:"):
            lookup = _enum_lookup(kind)
            return [lookup[value] for value in data.tolist()]
        raise ColumnarFormatError(f"unknown column kind {kind!r}")

    def _build(self, rows: Any) -> list:
        record_type = self.record_type
        schema = SCHEMAS[self.record_name]
        columns = [self._decode(name, kind, rows)
                   for name, kind in schema]
        return [record_type(*row) for row in zip(*columns)]

    def _scalar(self, name: str, kind: str) -> Callable[[int], Any]:
        """A reader of one element of column ``name``, as ``_decode``
        would return it."""
        item = self.column(name).item
        if kind in ("f8", "i8", "b1"):
            return item
        if kind == "str":
            return lambda row: item(row).decode("utf-8")
        if kind.startswith("enum:"):
            lookup = _enum_lookup(kind)
            return lambda row: lookup[item(row)]
        null = self.null_mask(name).item
        if kind == "of8":
            return lambda row: None if null(row) else item(row)
        if kind == "ostr":
            return lambda row: None if null(row) \
                else item(row).decode("utf-8")
        raise ColumnarFormatError(f"unknown column kind {kind!r}")

    def _scalars(self) -> dict[str, Callable[[int], Any]]:
        """One ``_scalar`` reader per column, in schema order (built on
        first use)."""
        scalars = self._scalar_readers
        if scalars is None:
            scalars = self._scalar_readers = {
                name: self._scalar(name, kind)
                for name, kind in SCHEMAS[self.record_name]}
        return scalars

    def row(self, index: int) -> _TraceRecord:
        """Decode one row, reading one element per column."""
        return self.record_type(
            *[read(index) for read in self._scalars().values()])

    def value(self, name: str, index: int) -> Any:
        """Field ``name`` of row ``index``, decoding only that element."""
        return self._scalars()[name](index)

    def take(self, indices: Sequence[int]) -> list:
        """Decode exactly the given rows, in the given order."""
        return self._build(np.asarray(indices, dtype=np.intp))


class ColumnarTrace(ColumnTable):
    """One opened ``.col`` file: memory-mapped, lazily decoded.

    The constructor maps the file and parses only the header; column
    bytes stay untouched (and unread from disk) until a column is
    viewed or a row decoded.
    """

    def __init__(self, path: str | Path, mmap: bool = True):
        self.path = Path(path)
        if mmap:
            buf = np.memmap(self.path, dtype=np.uint8, mode="r")
        else:
            buf = np.frombuffer(self.path.read_bytes(), dtype=np.uint8)
        if buf[:len(MAGIC)].tobytes() != MAGIC:
            raise ColumnarFormatError(f"{self.path}: bad magic")
        (header_len,) = struct.unpack("<Q", buf[8:16].tobytes())
        try:
            header = json.loads(buf[16:16 + header_len].tobytes())
        except ValueError as error:
            raise ColumnarFormatError(
                f"{self.path}: bad header: {error}") from error
        record_name: str = header["record"]
        entries = {entry["name"]: entry for entry in header["columns"]}
        if tuple(entries) != tuple(
                name for name, _kind in SCHEMAS.get(record_name, ())):
            raise ColumnarFormatError(
                f"{self.path}: column set does not match the "
                f"{record_name!r} schema")
        # Every declared block must fit inside the file, so a truncated
        # copy fails here with a clear error instead of surfacing later
        # as a numpy view/reshape failure mid-decode.
        total = buf.shape[0]
        for entry in entries.values():
            for offset_key, nbytes_key in (("offset", "nbytes"),
                                           ("null_offset", "null_nbytes")):
                if offset_key in entry and \
                        entry[offset_key] + entry[nbytes_key] > total:
                    raise ColumnarFormatError(
                        f"{self.path}: truncated: column "
                        f"{entry['name']!r} extends past end of file")

        def view(offset: int, nbytes: int, dtype: str) -> np.ndarray:
            return buf[offset:offset + nbytes].view(dtype)

        super().__init__(record_name, {
            name: (view(entry["offset"], entry["nbytes"], entry["dtype"]),
                   view(entry["null_offset"], entry["null_nbytes"], "|b1")
                   if "null_offset" in entry else None)
            for name, entry in entries.items()})


class CachedRows(ColumnTable):
    """A :class:`ColumnTable` whose rows are built together, in one
    block decode, the first time any is asked for, and then kept: a
    replay's per-task lookup is a list index.  The base of the catalog
    and the users; replacing the columns drops the rows.
    """

    record_type: type = _TraceRecord

    def __init__(self, table: Optional[ColumnTable] = None):
        self._set_blocks(table.blocks() if table is not None else
                         encode_records([], self.record_type))

    def _set_blocks(self, blocks: dict[str, Column]) -> None:
        super().__init__(self.record_type.__name__, blocks)
        self._rows: Optional[list] = None

    @classmethod
    def from_records(cls, records: Sequence) -> "CachedRows":
        """Built rows, kept as they are, over their encoded columns."""
        held = cls()
        held._set_blocks(encode_records(records, cls.record_type))
        held._rows = list(records)
        return held

    def copy(self) -> "CachedRows":
        """A snapshot: the same columns (replaced, never written in
        place, so they are shared), its rows built afresh."""
        clone = copy.copy(self)
        clone._set_blocks(self.blocks())
        return clone

    def __iter__(self) -> Iterator:
        return iter(self.rows())

    def row(self, index: int):
        return self.rows()[index]

    def rows(self) -> list:
        """Every row in row order: the cache itself, so read it and do
        not change it."""
        if self._rows is None:
            self._rows = self._build(slice(None))
        return self._rows

    def _append(self, blocks: dict[str, Column]) -> None:
        """Add rows given as encoded columns (none of them nullable)
        after the current ones; rows built so far are dropped."""
        self._set_blocks({
            name: (np.concatenate((data, blocks[name][0])), None)
            for name, (data, _mask) in self.blocks().items()})


#: Rows decoded per block while a :class:`ColumnarRows` is iterated.
_ITER_ROWS = 4096


def _index(positions: range) -> Any:
    """``positions`` as a numpy index: a (zero-copy) slice when it runs
    forward, an index array otherwise."""
    if positions.step > 0:
        return slice(positions.start, positions.stop, positions.step)
    return np.arange(positions.start, positions.stop, positions.step)


class ColumnarRows(Sequence):
    """The rows of a :class:`ColumnarTrace`, built on access.

    A read-only sequence of records, like the run table's ``Rows``:
    length, indexing and slicing are O(1) (a slice is another view of
    the same mapping), one row reads one element per column, and
    iteration decodes blocks of :data:`_ITER_ROWS` rows at a time.
    Nothing is cached, so rows cost memory only while the caller holds
    them.  :meth:`column` and :meth:`value` read fields without
    building rows at all.
    """

    __slots__ = ("trace", "_positions")

    def __init__(self, trace: ColumnarTrace,
                 positions: Optional[range] = None):
        self.trace = trace
        self._positions = range(len(trace)) if positions is None \
            else positions

    def __len__(self) -> int:
        return len(self._positions)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ColumnarRows(self.trace, self._positions[index])
        return self.trace.row(self._positions[index])

    def __iter__(self):
        positions = self._positions
        build = self.trace._build
        for start in range(0, len(positions), _ITER_ROWS):
            yield from build(_index(positions[start:start + _ITER_ROWS]))

    def column(self, name: str) -> np.ndarray:
        """Raw column ``name`` over these rows (a view of the mapping
        when the rows run forward)."""
        return np.asarray(self.trace.column(name)[_index(self._positions)])

    def value(self, name: str, index: int) -> Any:
        """Field ``name`` of row ``index``, decoding only that element."""
        return self.trace.value(name, self._positions[index])

    def blocks(self) -> dict[str, Column]:
        """Every column and null mask over these rows, as
        :func:`write_blocks` takes them: re-saving a mapped trace copies
        its blocks and decodes no row."""
        index = _index(self._positions)
        return {name: (data[index], None if mask is None else mask[index])
                for name, (data, mask) in self.trace.blocks().items()}


def open_columnar(path: str | Path,
                  record_type: Optional[Type[_TraceRecord]] = None,
                  mmap: bool = True) -> ColumnarTrace:
    """Open a ``.col`` file, checking it holds ``record_type`` rows.

    ``record_type``, when given, is validated against the file's own
    schema (a mismatch raises :class:`ColumnarFormatError`).
    """
    trace = ColumnarTrace(path, mmap=mmap)
    if record_type is not None and \
            trace.record_name != record_type.__name__:
        raise ColumnarFormatError(
            f"{path}: holds {trace.record_name} rows, "
            f"not {record_type.__name__}")
    return trace
