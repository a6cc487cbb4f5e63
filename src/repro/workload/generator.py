"""End-to-end synthesis of one measurement week.

:class:`WorkloadGenerator` wires the catalog, user population, and
arrival process into a :class:`Workload`: the full request trace of a
synthetic week at a configurable scale.  ``scale=1.0`` corresponds to the
paper's real dimensions (563,517 files / ~4.08 M tasks / ~784 k users);
the default experiment scale is far smaller and everything downstream is
scale-free or explicitly rescaled.

The fetch-at-most-once effect (Gummadi et al., SOSP'03) is enforced
structurally: the requests of one file go to distinct users, which is
what flattens the popularity head and makes the SE model the better fit
(paper Figures 6-7).

The whole week is kept as columns, not rows: the catalog and the
users, and per request an arrival time and the rows of its file and
user (:class:`RequestColumns`).  ``Workload.requests`` is a
:class:`GeneratedRequests` view that builds a :class:`RequestRecord`
only when one is asked for; replays and the drivers that walk every
request read the columns.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from repro.sim.clock import WEEK
from repro.sim.collector import paused
from repro.sim.randomness import RngFactory
from repro.workload.arrivals import ArrivalProcess
from repro.workload.catalog import FileCatalog
from repro.workload.columnar import _ITER_ROWS, Column, ColumnarRows, \
    _index
from repro.workload.popularity import PopularityClass, class_shares
from repro.workload.records import CatalogFile, RequestRecord, User
from repro.workload.users import UserPopulation

#: Real-week dimensions (paper section 3).
REAL_FILE_COUNT = 563_517
REAL_TASK_COUNT = 4_084_417
REAL_USER_COUNT = 783_944
TASKS_PER_USER = REAL_TASK_COUNT / REAL_USER_COUNT   # ~5.21


@dataclass(frozen=True)
class WorkloadConfig:
    """Knobs of a synthetic week."""

    scale: float = 0.01
    seed: int = 20150222        # first day of the measurement week
    horizon: float = WEEK

    @property
    def file_count(self) -> int:
        return max(1, int(round(REAL_FILE_COUNT * self.scale)))

    @property
    def user_count(self) -> int:
        return max(1, int(round(REAL_USER_COUNT * self.scale)))


class RequestColumns(NamedTuple):
    """A week's requests as arrays over its files and users (see
    :meth:`Workload.request_columns`)."""

    times: np.ndarray           # float64 arrival time per request
    file_rows: np.ndarray       # row of each request's file in ``files``
    user_rows: np.ndarray       # row of each request's user in ``users``
    files: FileCatalog
    users: UserPopulation
    task_id: Callable[[int], str]   # one request's task id


class GeneratedRequests(Sequence):
    """A generated week's requests, built on access from its columns.

    Each request is three array elements -- its arrival time and its
    file's and user's rows -- and its task id is ``prefix`` plus its
    index, zero-padded to 8 digits.  Like
    :class:`~repro.workload.columnar.ColumnarRows`, a read-only sequence
    with O(1) length, indexing and slicing (a slice keeps each row's
    task id); no request row is cached.  It compares equal to any
    sequence of the same rows, as the list it replaces did.
    """

    __slots__ = ("columns", "prefix", "_positions")

    def __init__(self, columns: RequestColumns, prefix: str,
                 positions: Optional[range] = None):
        self.columns = columns
        self.prefix = prefix
        self._positions = range(len(columns.times)) if positions is None \
            else positions

    def bind(self, files: FileCatalog,
             users: UserPopulation) -> "GeneratedRequests":
        """The same requests over other (row-for-row equal) files and
        users, e.g. a week's snapshot of an evolving catalog."""
        return GeneratedRequests(
            self.columns._replace(files=files, users=users), self.prefix,
            self._positions)

    def __len__(self) -> int:
        return len(self._positions)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return GeneratedRequests(self.columns, self.prefix,
                                     self._positions[index])
        row = self._positions[index]
        columns = self.columns
        return request_record(
            columns.task_id(row), columns.times.item(row),
            columns.files.row(columns.file_rows.item(row)),
            columns.users.row(columns.user_rows.item(row)))

    def __iter__(self):
        columns = self.columns
        task_id, files, users = columns.task_id, columns.files.rows(), \
            columns.users.rows()
        positions = self._positions
        for start in range(0, len(positions), _ITER_ROWS):
            block = positions[start:start + _ITER_ROWS]
            index = _index(block)
            for row, when, file_row, user_row in zip(
                    block, columns.times[index].tolist(),
                    columns.file_rows[index].tolist(),
                    columns.user_rows[index].tolist()):
                yield request_record(task_id(row), when, files[file_row],
                                     users[user_row])

    def __eq__(self, other):
        if not isinstance(other, Sequence) or \
                isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and \
            all(mine == theirs for mine, theirs in zip(self, other))

    __hash__ = None     # type: ignore[assignment]

    def request_columns(self) -> RequestColumns:
        """These rows' columns; the generated arrays themselves when
        the view spans the whole week."""
        columns = self.columns
        positions = self._positions
        if positions == range(len(columns.times)):
            return columns
        index = _index(positions)
        return RequestColumns(
            columns.times[index], columns.file_rows[index],
            columns.user_rows[index], columns.files, columns.users,
            partial(_task_id_at, columns.task_id, positions))

    def blocks(self) -> dict[str, Column]:
        """The rows' ``RequestRecord`` columns, encoded for
        :func:`~repro.workload.columnar.write_blocks`: every file and
        user field is taken by row from the catalog's and the users'
        own columns."""
        columns = self.columns
        index = _index(self._positions)
        file_rows = columns.file_rows[index]
        user_rows = columns.user_rows[index]
        files, users = columns.files.column, columns.users.column
        reports = users("reports_bandwidth")
        reported = np.where(reports, users("access_bandwidth"), 0.0)
        digits = np.arange(len(columns.times))[index].astype("S")
        if len(digits):         # zfill of an empty array raises
            digits = np.char.zfill(digits, 8)
        task_ids = np.char.add(self.prefix.encode(), digits)
        return {
            "task_id": (task_ids, None),
            "user_id": (users("user_id")[user_rows], None),
            "ip_address": (users("ip_address")[user_rows], None),
            "access_bandwidth": (reported[user_rows], ~reports[user_rows]),
            "request_time": (columns.times[index], None),
            "file_id": (files("file_id")[file_rows], None),
            "file_type": (files("file_type")[file_rows], None),
            "file_size": (files("size")[file_rows], None),
            "source_url": (files("source_url")[file_rows], None),
            "protocol": (files("protocol")[file_rows], None),
        }


def request_record(task_id: str, when: float, record: CatalogFile,
                   user: User) -> RequestRecord:
    """The request row of ``user`` asking for ``record`` at ``when``."""
    return RequestRecord(task_id, user.user_id, user.ip_address,
                         user.reported_bandwidth, when, record.file_id,
                         record.file_type, record.size, record.source_url,
                         record.protocol)


def _task_id_at(task_id: Callable[[int], str], positions: range,
                index: int) -> str:
    return task_id(positions[index])


@dataclass
class Workload:
    """A complete synthetic week: catalog, users, and the request trace.

    ``requests`` is a read-only sequence of :class:`RequestRecord`:

    * a :class:`GeneratedRequests` view over the generator's columns
      when the week was generated (including each week of
      :class:`~repro.workload.multiweek.MultiWeekGenerator`);
    * a :class:`~repro.workload.columnar.ColumnarRows` view over the
      mapped file when it was loaded from a columnar trace;
    * a list when it was read from JSONL.

    Code that walks every request reads :meth:`request_columns`
    instead of building each row.
    """

    config: WorkloadConfig
    catalog: FileCatalog
    users: UserPopulation
    requests: Sequence[RequestRecord]

    @property
    def horizon(self) -> float:
        return self.config.horizon

    def user_by_id(self) -> dict[str, User]:
        return {user.user_id: user for user in self.users}

    def request_columns(self) -> RequestColumns:
        """Arrival times, file rows and user rows of every request.

        A generated week returns the columns it was generated as.  A
        columnar view resolves its ``file_id`` and ``user_id`` byte
        columns against the catalog's and the users' id columns in one
        dict pass each, and reads task ids one element at a time; a
        list computes the same arrays from its records.  No catalog or
        user row is built.  A repeated user id resolves to its last
        row, as :meth:`user_by_id` does.
        """
        requests = self.requests
        if isinstance(requests, GeneratedRequests):
            return requests.request_columns()
        file_ids = self.catalog.column("file_id").tolist()
        user_ids = self.users.column("user_id").tolist()
        if isinstance(requests, ColumnarRows):
            return RequestColumns(
                requests.column("request_time"),
                _resolve(requests.column("file_id").tolist(), file_ids),
                _resolve(requests.column("user_id").tolist(), user_ids),
                self.catalog, self.users,
                partial(requests.value, "task_id"))
        return RequestColumns(
            np.fromiter((request.request_time for request in requests),
                        dtype=np.float64, count=len(requests)),
            _resolve([request.file_id.encode() for request in requests],
                     file_ids),
            _resolve([request.user_id.encode() for request in requests],
                     user_ids),
            self.catalog, self.users, partial(_list_task_id, requests))

    def requests_per_file(self) -> tuple[FileCatalog, np.ndarray]:
        """The catalog and the request count of each file, in row
        order."""
        columns = self.request_columns()
        return columns.files, np.bincount(columns.file_rows,
                                          minlength=len(columns.files))

    def request_class_shares(self) -> dict[PopularityClass, float]:
        """Observed request share per popularity class."""
        files, per_file = self.requests_per_file()
        return class_shares(files.demands(), per_file)


def _resolve(keys: list, ids: list) -> np.ndarray:
    """The row of each key in ``ids`` (the last one, if repeated)."""
    row_of = {key: row for row, key in enumerate(ids)}
    return np.fromiter(map(row_of.__getitem__, keys), dtype=np.intp,
                       count=len(keys))


def _list_task_id(requests: Sequence[RequestRecord], idx: int) -> str:
    return requests[idx].task_id


class WorkloadGenerator:
    """Deterministic synthesis of a :class:`Workload` from a config."""

    def __init__(self, config: WorkloadConfig = WorkloadConfig(),
                 catalog: Optional[FileCatalog] = None,
                 population: Optional[UserPopulation] = None,
                 arrivals: Optional[ArrivalProcess] = None):
        self.config = config
        self.catalog = catalog or FileCatalog()
        self.population = population or UserPopulation()
        self.arrivals = arrivals or ArrivalProcess(horizon=config.horizon)

    def generate(self) -> Workload:
        rng_factory = RngFactory(self.config.seed)
        # The week is one large acyclic object graph (repro.sim.collector).
        with paused():
            self.catalog.generate(self.config.file_count,
                                  rng_factory.stream("catalog"))
            self.population.generate(self.config.user_count,
                                     rng_factory.stream("users"))
            requests = build_requests(self.catalog, self.population,
                                      self.arrivals, rng_factory)
        return Workload(config=self.config, catalog=self.catalog,
                        users=self.population, requests=requests)


def build_requests(catalog: FileCatalog, users: UserPopulation,
                   arrivals: ArrivalProcess, rng_factory: RngFactory,
                   task_prefix: str = "t") -> GeneratedRequests:
    """Expand a catalog's weekly demands into a timed request trace.

    Shared by the single-week generator and the multi-week evolution:
    one request slot per (file, demand unit), arrival times drawn from
    the arrival process, users assigned fetch-at-most-once.  The trace
    is kept as columns -- arrival times, file rows into ``catalog``
    and user rows into ``users`` -- under a :class:`GeneratedRequests`
    view; no row is built.
    """
    assign_rng = rng_factory.stream("request-assignment")
    time_rng = rng_factory.stream("request-times")

    # One slot per (file, demand unit), shuffled so arrival times are
    # independent of file identity.  Shuffling an int64 index array
    # produces the exact same permutation (and leaves the generator in
    # the exact same state) as shuffling the Python object list the
    # scalar version used, at a fraction of the cost.
    demands = catalog.demands()
    slot_indices = np.repeat(np.arange(len(catalog)), demands)
    assign_rng.shuffle(slot_indices)
    times = arrivals.sample_times(len(slot_indices), time_rng)

    # The user picks are sequential draws on one stream, one per slot
    # in slot order; a file with one demand unit skips the seen set
    # (any draw is distinct).
    picker = BufferedIndexPicker(len(users), assign_rng)
    pick_fresh = picker.pick
    pick_distinct = picker.pick_distinct
    shared = (demands > 1).tolist()
    seen_by_row: dict[int, set[int]] = {}
    user_rows = array("q")
    append = user_rows.append
    for slot in slot_indices.tolist():
        if shared[slot]:
            seen = seen_by_row.get(slot)
            if seen is None:
                seen = seen_by_row[slot] = set()
            append(pick_distinct(seen))
        else:
            append(pick_fresh())
    return GeneratedRequests(
        RequestColumns(times, slot_indices,
                       np.frombuffer(user_rows, dtype=np.int64), catalog,
                       users,
                       partial("{}{:08d}".format, task_prefix)),
        task_prefix)


#: Retries before fetch-at-most-once falls back to a repeat requester.
PICK_RETRIES = 8


def pick_distinct_index(count: int, seen: set[int],
                        rng: np.random.Generator,
                        retries: int = PICK_RETRIES) -> int:
    """Draw an index not in ``seen`` (fetch at most once per file).

    Falls back to a repeat draw only when the population is effectively
    smaller than the file's demand.  :class:`BufferedIndexPicker`
    reproduces its draws exactly (``tests/test_perf_golden.py``).
    """
    for _attempt in range(retries):
        index = int(rng.integers(count))
        if index not in seen:
            seen.add(index)
            return index
    return int(rng.integers(count))


class BufferedIndexPicker:
    """Fetch-at-most-once index picker over a prefetched draw buffer.

    ``n`` scalar ``rng.integers(count)`` calls return the same values
    (and leave the generator in the same state) as one
    ``rng.integers(count, size=n)`` call, so prefetching a chunk and
    consuming it sequentially is bit-identical to the scalar
    :func:`pick_distinct_index` loop regardless of how many retries each
    slot burns.  The final chunk may overdraw the stream past where the
    scalar code would have stopped; that is safe because the assignment
    streams are never read again after request synthesis.
    """

    __slots__ = ("_rng", "_count", "_chunk", "_buffer", "_position")

    def __init__(self, count: int, rng: np.random.Generator,
                 chunk: int = 8192):
        if count <= 0:
            raise ValueError("count must be positive")
        self._rng = rng
        self._count = count
        self._chunk = chunk
        self._buffer: list[int] = []
        self._position = 0

    def pick(self) -> int:
        """The next raw index draw (uniform on ``[0, count)``)."""
        position = self._position
        buffer = self._buffer
        if position >= len(buffer):
            self._buffer = buffer = self._rng.integers(
                self._count, size=self._chunk).tolist()
            position = 0
        self._position = position + 1
        return buffer[position]

    def pick_distinct(self, seen: set[int],
                      retries: int = PICK_RETRIES) -> int:
        """Draw an index not in ``seen``; same semantics (and the same
        stream consumption) as :func:`pick_distinct_index`.

        The rejection loop runs directly over the prefetched batch --
        one local list walk instead of up to ``retries + 1``
        :meth:`pick` calls -- refilling mid-walk only when the batch
        runs dry.  Consumption order is identical, so the stream stays
        bit-compatible with the scalar loop.
        """
        buffer = self._buffer
        position = self._position
        length = len(buffer)
        refill = self._rng.integers
        for _attempt in range(retries):
            if position >= length:
                self._buffer = buffer = refill(
                    self._count, size=self._chunk).tolist()
                length = len(buffer)
                position = 0
            index = buffer[position]
            position += 1
            if index not in seen:
                self._position = position
                seen.add(index)
                return index
        if position >= length:
            self._buffer = buffer = refill(
                self._count, size=self._chunk).tolist()
            position = 0
        self._position = position + 1
        return buffer[position]
