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
"""

from __future__ import annotations

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
from repro.workload.columnar import ColumnarRows
from repro.workload.popularity import PopularityClass
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
    files: list[CatalogFile]    # the catalog, in row order
    users: list[User]
    task_id: Callable[[int], str]   # one request's task id


@dataclass
class Workload:
    """A complete synthetic week: catalog, users, and the request trace.

    ``requests`` is a list when the week was generated or read from
    JSONL, and a read-only :class:`~repro.workload.columnar.ColumnarRows`
    view (rows built on access) when it was loaded from a columnar
    trace.
    """

    config: WorkloadConfig
    catalog: FileCatalog
    users: list[User]
    requests: Sequence[RequestRecord]

    @property
    def horizon(self) -> float:
        return self.config.horizon

    def user_by_id(self) -> dict[str, User]:
        return {user.user_id: user for user in self.users}

    def request_columns(self) -> RequestColumns:
        """Arrival times, file rows and user rows of every request.

        A columnar view resolves its ``file_id`` and ``user_id`` byte
        columns against the catalog and the users in one dict pass
        each, and reads task ids one element at a time; a list computes
        the same arrays from its records.  A repeated user id resolves
        to its last row, as :meth:`user_by_id` does.
        """
        files = list(self.catalog)
        users = self.users
        requests = self.requests
        if isinstance(requests, ColumnarRows):
            return RequestColumns(
                requests.column("request_time"),
                _resolve(requests.column("file_id").tolist(),
                         [record.file_id.encode() for record in files]),
                _resolve(requests.column("user_id").tolist(),
                         [user.user_id.encode() for user in users]),
                files, users, partial(requests.value, "task_id"))
        return RequestColumns(
            np.fromiter((request.request_time for request in requests),
                        dtype=np.float64, count=len(requests)),
            _resolve([request.file_id for request in requests],
                     [record.file_id for record in files]),
            _resolve([request.user_id for request in requests],
                     [user.user_id for user in users]),
            files, users, partial(_task_id, requests))

    def request_class_shares(self) -> dict[PopularityClass, float]:
        """Observed request share per popularity class."""
        counts: dict[PopularityClass, int] = {}
        for request in self.requests:
            klass = self.catalog[request.file_id].popularity_class
            counts[klass] = counts.get(klass, 0) + 1
        total = max(len(self.requests), 1)
        return {klass: counts.get(klass, 0) / total
                for klass in PopularityClass}


def _resolve(keys: list, ids: list) -> np.ndarray:
    """The row of each key in ``ids`` (the last one, if repeated)."""
    row_of = {key: row for row, key in enumerate(ids)}
    return np.fromiter(map(row_of.__getitem__, keys), dtype=np.intp,
                       count=len(keys))


def _task_id(requests: Sequence[RequestRecord], idx: int) -> str:
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
            requests = self._generate_requests(rng_factory)
        return Workload(config=self.config, catalog=self.catalog,
                        users=self.population.users, requests=requests)

    def _generate_requests(self,
                           rng_factory: RngFactory) -> list[RequestRecord]:
        return build_requests(self.catalog, self.population.users,
                              self.arrivals, rng_factory)


def build_requests(catalog: FileCatalog, users: list[User],
                   arrivals: ArrivalProcess, rng_factory: RngFactory,
                   task_prefix: str = "t") -> list[RequestRecord]:
    """Expand a catalog's weekly demands into a timed request trace.

    Shared by the single-week generator and the multi-week evolution:
    one request slot per (file, demand unit), arrival times drawn from
    the arrival process, users assigned fetch-at-most-once.
    """
    assign_rng = rng_factory.stream("request-assignment")
    time_rng = rng_factory.stream("request-times")

    # One slot per (file, demand unit), shuffled so arrival times are
    # independent of file identity.  Shuffling an int64 index array
    # produces the exact same permutation (and leaves the generator in
    # the exact same state) as shuffling the Python object list the
    # scalar version used, at a fraction of the cost.
    records = list(catalog)
    demands = np.fromiter((record.weekly_demand for record in records),
                          dtype=np.int64, count=len(records))
    slot_indices = np.repeat(np.arange(len(records)), demands)
    assign_rng.shuffle(slot_indices)
    times = arrivals.sample_times(len(slot_indices), time_rng)

    # Hoist the per-record and per-user attribute reads out of the slot
    # loop; both sides are immutable for its duration.
    record_info = [(record.file_id, record.file_type, record.size,
                    record.source_url, record.weekly_demand > 1)
                   for record in records]
    user_info = [(user.user_id, user.ip_address, user.reported_bandwidth)
                 for user in users]
    protocols = [record.protocol for record in records]

    picker = BufferedIndexPicker(len(users), assign_rng)
    pick_fresh = picker.pick
    pick_distinct = picker.pick_distinct
    used_users: dict[str, set[int]] = {}
    requests: list[RequestRecord] = []
    append = requests.append
    for index, (slot, when) in enumerate(zip(slot_indices.tolist(),
                                             times.tolist())):
        file_id, file_type, size, source_url, shared = record_info[slot]
        if shared:
            seen = used_users.setdefault(file_id, set())
            user_id, ip_address, bandwidth = user_info[
                pick_distinct(seen)]
        else:
            # Single-demand file: any draw is distinct; skip the set.
            user_id, ip_address, bandwidth = user_info[pick_fresh()]
        append(RequestRecord(
            task_id=f"{task_prefix}{index:08d}",
            user_id=user_id,
            ip_address=ip_address,
            access_bandwidth=bandwidth,
            request_time=when,
            file_id=file_id,
            file_type=file_type,
            file_size=size,
            source_url=source_url,
            protocol=protocols[slot],
        ))
    return requests


#: Retries before fetch-at-most-once falls back to a repeat requester.
PICK_RETRIES = 8


def pick_distinct_index(count: int, seen: set[int],
                        rng: np.random.Generator,
                        retries: int = PICK_RETRIES) -> int:
    """Draw an index not in ``seen`` (fetch at most once per file).

    Falls back to a repeat draw only when the population is effectively
    smaller than the file's demand.  Shared by the sequential generator
    and the sharded per-file generator (``repro.scale.shardgen``), so
    both enforce the same fetch-at-most-once behaviour with the same
    number of RNG consumptions per slot.
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
