"""The end-to-end cloud system: request -> pre-download -> fetch.

:class:`XuanfengCloud` replays a synthetic week through the full
machinery on the discrete-event engine: cache lookups with in-flight
coalescing (concurrent requests for one file share a single
pre-download), VM pre-download sessions, user fetch admission over the
per-ISP uploading servers, and the bookkeeping behind every cloud-side
figure of the paper (8, 9, 10, 11 and the section 4 text statistics).
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Generic, NamedTuple, Optional, TypeVar

import numpy as np

from repro.analysis.cdf import CDF
from repro.cloud.config import CloudConfig
from repro.cloud.database import ContentDatabase
from repro.cloud.fetch import FetchSpeedModel
from repro.cloud.predownload import PreDownloaderFleet
from repro.cloud.storagepool import CloudStoragePool
from repro.cloud.upload import PathChoice, UploadingServers
from repro.faults.injector import FaultInjector
from repro.faults.plan import CLOUD_KINDS, FaultPlan
from repro.faults.policies import ResiliencePolicies
from repro.netsim.isp import ISP, MAJOR_ISPS
from repro.obs.registry import AnyRegistry, NOOP
from repro.paper import IMPEDED_FETCH_THRESHOLD
from repro.sim.clock import to_gbps
from repro.sim.collector import paused
from repro.sim.engine import Event, Simulator
from repro.sim.queueing import SlotResource
from repro.sim.randomness import RngFactory
from repro.transfer.source import SourceModel
from repro.workload.generator import RequestColumns, Workload, \
    request_record
from repro.workload.popularity import (
    HIGHLY_POPULAR_ABOVE,
    PopularityClass,
    class_codes,
)
from repro.workload.records import (
    CatalogFile,
    FetchRecord,
    PreDownloadRecord,
    RequestRecord,
)

#: Fetch states of a task in the run table.
FETCH_NONE = 0       # never fetched (the pre-download failed)
FETCH_DONE = 1
FETCH_REJECTED = 2

#: Server-group code of a flow row: the group's index in ``MAJOR_ISPS``
#: (the order of ``UploadingServers.pools``), or this code for a
#: rejected fetch, which no group carried.  A user outside the four
#: majors has this code too, so every group it is served from crosses
#: the ISP barrier.
REJECTED_GROUP = len(MAJOR_ISPS)
GROUP_CODES = {isp: code for code, isp in enumerate(MAJOR_ISPS)}

#: Popularity classes by class code (see ``class_codes``).
_CLASSES = tuple(PopularityClass)


class FetchFlow(NamedTuple):
    """One fetch flow interval, for bandwidth-burden binning (Fig. 11)."""

    start: float
    end: float
    rate: float
    highly_popular: bool
    rejected: bool = False


@dataclass(slots=True)
class TaskResult:
    """Everything one offline-downloading task produced."""

    request: RequestRecord
    file: CatalogFile
    pre_record: PreDownloadRecord
    fetch_record: Optional[FetchRecord] = None
    fetch_path: Optional[PathChoice] = None

    @property
    def succeeded(self) -> bool:
        return self.pre_record.success and self.fetch_record is not None \
            and not self.fetch_record.rejected

    @property
    def end_to_end_delay(self) -> Optional[float]:
        """Pre-download delay plus fetch delay (paper section 4.3)."""
        if not self.succeeded:
            return None
        return self.pre_record.delay + self.fetch_record.delay

    @property
    def end_to_end_speed(self) -> Optional[float]:
        delay = self.end_to_end_delay
        if delay is None:
            return None
        if delay <= 0:
            return self.fetch_record.average_speed
        return self.file.size / delay


def _floats(count: int = 0) -> array:
    return array("d", bytes(8 * count))


def _array(typecode: str, values: np.ndarray) -> array:
    """``values`` as an ``array`` of ``typecode``, copied without a
    Python number each."""
    column = array(typecode)
    column.frombytes(np.ascontiguousarray(values, dtype=typecode)
                     .data.cast("B"))
    return column


def _view(column, dtype) -> np.ndarray:
    """A zero-copy numpy view of an ``array``/``bytearray`` column."""
    return np.frombuffer(column, dtype=dtype) if len(column) \
        else np.zeros(0, dtype=dtype)


class RunTable:
    """The outcome of every task and flow of one replay, as columns.

    One row per task, indexed by the task's position in the workload's
    requests.  Each task's file, user, arrival time, weekly demand and
    task id come from :meth:`Workload.request_columns`, and every file
    or user field is read from the catalog's or the users' columns at
    the task's file or user row (:meth:`file_field`,
    :meth:`user_field`): a replay builds no request, catalog or user
    row.  Only :meth:`task_row` does, for a caller that asks for one.
    The task machine writes each outcome straight into typed columns
    -- ``array('d')`` floats, ``bytearray`` flags and two object lists
    (failure cause, fetch path) -- instead of allocating per-task
    record objects.  Columns start zeroed, so a writer only stores the
    fields that differ from zero.

    ``order`` lists task indexes in pre-download completion order: the
    order the per-task results were produced in, which is the order of
    :attr:`CloudRunResult.tasks` and of the golden digests.  Flow
    columns are append-only, one row per fetch flow in creation order:
    the task, its server group (a :data:`GROUP_CODES` code, or
    :data:`REJECTED_GROUP`), start, end and rate.  The flow's flags are
    derived from those (:meth:`flow_column`).  ``retried_rejects`` times
    the admission rejections a faulted fetch retried, which leave no
    flow row.
    """

    def __init__(self, columns: RequestColumns):
        n = len(columns.times)
        self.task_id = columns.task_id
        self._columns = columns
        self.arrival = columns.times
        self.demand = columns.files.demands()[columns.file_rows]
        # Pre-download columns; a pre-download starts at its task's
        # arrival.
        self.pre_finish = _floats(n)
        self.pre_bytes = _floats(n)
        self.pre_traffic = _floats(n)
        self.pre_rate = _floats(n)
        self.pre_peak = _floats(n)
        self.cache_hit = bytearray(n)
        # Waited on another task's in-flight pre-download of the file.
        self.coalesced = bytearray(n)
        self.success = bytearray(n)
        self.cause: list[Optional[str]] = [None] * n
        # Fetch columns.
        self.fetch_start = _floats(n)
        self.fetch_finish = _floats(n)
        self.fetch_bytes = _floats(n)
        self.fetch_traffic = _floats(n)
        self.fetch_rate = _floats(n)
        self.fetch_peak = _floats(n)
        self.fetch_state = bytearray(n)
        self.fetch_path: list[Optional[PathChoice]] = [None] * n
        self.order = array("q")
        # Flow columns.
        self.flow_task = array("q")
        self.flow_group = bytearray()
        self.flow_start = _floats()
        self.flow_end = _floats()
        self.flow_rate = _floats()
        self.retried_rejects = _floats()

    # -- file and user fields ------------------------------------------------------

    def file_field(self, name: str, tasks: np.ndarray) -> np.ndarray:
        """Catalog column ``name`` at the file of each of ``tasks``."""
        columns = self._columns
        return columns.files.column(name)[columns.file_rows[tasks]]

    def user_field(self, name: str, tasks: np.ndarray) -> np.ndarray:
        """User column ``name`` at the user of each of ``tasks``."""
        columns = self._columns
        return columns.users.column(name)[columns.user_rows[tasks]]

    def user_isps(self) -> tuple[list[ISP], np.ndarray]:
        """The distinct home ISPs of the week's users, and each task's
        user's ISP as an index into them."""
        columns = self._columns
        names, codes = np.unique(columns.users.column("isp"),
                                 return_inverse=True)
        return ([ISP(name.decode("utf-8")) for name in names.tolist()],
                codes[columns.user_rows])

    # -- rows ------------------------------------------------------------------

    def pre_record(self, idx: int) -> PreDownloadRecord:
        columns = self._columns
        return PreDownloadRecord(
            self.task_id(idx),
            columns.files.file_ids()[columns.file_rows.item(idx)],
            self.arrival.item(idx), self.pre_finish[idx], self.pre_bytes[idx],
            self.pre_traffic[idx], bool(self.cache_hit[idx]),
            self.pre_rate[idx], self.pre_peak[idx],
            bool(self.success[idx]), self.cause[idx])

    def fetch_record(self, idx: int) -> Optional[FetchRecord]:
        state = self.fetch_state[idx]
        if state == FETCH_NONE:
            return None
        user = self._columns.user_rows.item(idx)
        value = self._columns.users.value
        return FetchRecord(
            self.task_id(idx), value("user_id", user),
            value("ip_address", user),
            value("access_bandwidth", user)
            if value("reports_bandwidth", user) else None,
            self.fetch_start[idx],
            self.fetch_finish[idx], self.fetch_bytes[idx],
            self.fetch_traffic[idx], self.fetch_rate[idx],
            self.fetch_peak[idx], state == FETCH_REJECTED)

    def task_row(self, position: int) -> TaskResult:
        """The task that finished its pre-download ``position``-th."""
        idx = self.order[position]
        columns = self._columns
        record = columns.files.row(columns.file_rows.item(idx))
        return TaskResult(
            request_record(self.task_id(idx), columns.times.item(idx),
                           record,
                           columns.users.row(columns.user_rows.item(idx))),
            record, self.pre_record(idx), self.fetch_record(idx),
            self.fetch_path[idx])

    def flow_row(self, position: int) -> FetchFlow:
        return FetchFlow(
            self.flow_start[position], self.flow_end[position],
            self.flow_rate[position],
            bool(self.demand[self.flow_task[position]]
                 > HIGHLY_POPULAR_ABOVE),
            self.flow_group[position] == REJECTED_GROUP)

    def requests_per_file(self) -> tuple[list[str], list[float],
                                         list[int], list[float]]:
        """(file id, size, request count, time of the last request) of
        every requested file, in catalog row order."""
        files, file_rows = self._columns.files, self._columns.file_rows
        counts = np.bincount(file_rows, minlength=len(files))
        last = np.full(len(files), -np.inf)
        np.maximum.at(last, file_rows, self.arrival)
        rows = np.flatnonzero(counts).tolist()
        file_ids = files.file_ids()
        return ([file_ids[row] for row in rows],
                files.column("size")[rows].tolist(), counts[rows].tolist(),
                last[rows].tolist())

    # -- numpy views -------------------------------------------------------------

    def ordered(self, name: str) -> np.ndarray:
        """Task column ``name`` as numpy, in completion order."""
        column = getattr(self, name)
        dtype = np.uint8 if isinstance(column, bytearray) else np.float64
        return _view(column, dtype)[_view(self.order, np.int64)]

    def flow_column(self, name: str) -> np.ndarray:
        """Flow column ``name`` as numpy: a written column (``task``,
        ``group``, ``start``, ``end``, ``rate``) or a derived flag --
        ``popular`` (the task's file is highly popular), ``rejected``
        or ``crossed`` (served across the ISP barrier)."""
        if name == "popular":
            return self.demand[self.flow_column("task")] \
                > HIGHLY_POPULAR_ABOVE
        if name == "rejected":
            return self.flow_column("group") == REJECTED_GROUP
        if name == "crossed":
            isps, codes = self.user_isps()
            home = np.array([GROUP_CODES.get(isp, REJECTED_GROUP)
                             for isp in isps], dtype=np.uint8)
            group = self.flow_column("group")
            return (group != REJECTED_GROUP) & (group != home[
                codes[self.flow_column("task")]])
        column = getattr(self, f"flow_{name}")
        if isinstance(column, bytearray):
            return _view(column, np.uint8)
        return _view(column, np.int64 if name == "task" else np.float64)


T = TypeVar("T")


class Rows(Sequence, Generic[T]):
    """A read-only sequence that builds each row on access.

    Length, indexing and slicing are O(1) (a slice is another view over
    the same table); iterating builds one row at a time.  Nothing is
    cached, so the rows cost memory only while the caller holds them.
    """

    __slots__ = ("_row", "_positions")

    def __init__(self, row: Callable[[int], T], positions: range):
        self._row = row
        self._positions = positions

    def __len__(self) -> int:
        return len(self._positions)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Rows(self._row, self._positions[index])
        return self._row(self._positions[index])

    def __iter__(self):
        return map(self._row, self._positions)


@dataclass
class CloudRunResult:
    """The outcome of replaying one workload through the cloud.

    Every reduction reads the :class:`RunTable` columns.  Where the
    paper's statistic is a float sum it is Python's ``sum`` over the
    completion-ordered column (numpy's pairwise sum rounds differently),
    and returned dicts keep first-appearance key order, so each value
    equals, bit for bit, what a loop over :attr:`tasks` computes.
    """

    config: CloudConfig
    table: RunTable
    pool: CloudStoragePool
    uploads: UploadingServers
    fleet: PreDownloaderFleet
    database: ContentDatabase
    horizon: float

    # -- trace views -----------------------------------------------------------

    @property
    def tasks(self) -> Rows[TaskResult]:
        """One :class:`TaskResult` per task, in completion order."""
        table = self.table
        return Rows(table.task_row, range(len(table.order)))

    @property
    def flows(self) -> Rows[FetchFlow]:
        """One :class:`FetchFlow` per fetch flow, in creation order."""
        table = self.table
        return Rows(table.flow_row, range(len(table.flow_start)))

    @property
    def pre_records(self) -> list[PreDownloadRecord]:
        table = self.table
        return [table.pre_record(idx) for idx in table.order]

    @property
    def fetch_records(self) -> list[FetchRecord]:
        table = self.table
        state = table.fetch_state
        return [table.fetch_record(idx) for idx in table.order
                if state[idx] != FETCH_NONE]

    def _fetched(self) -> np.ndarray:
        return self.table.ordered("fetch_state") != FETCH_NONE

    def _succeeded(self) -> np.ndarray:
        return self.table.ordered("fetch_state") == FETCH_DONE

    def _pre_delays(self) -> np.ndarray:
        table = self.table
        return table.ordered("pre_finish") \
            - table.arrival[_view(table.order, np.int64)]

    def _fetch_delays(self) -> np.ndarray:
        table = self.table
        return table.ordered("fetch_finish") - table.ordered("fetch_start")

    # -- figure 8 / 9 distributions ---------------------------------------------

    def attempt_speed_cdf(self) -> CDF:
        """Pre-download speeds excluding cache hits (failures included)."""
        table = self.table
        attempted = table.ordered("cache_hit") == 0
        return _cdf(table.ordered("pre_rate")[attempted])

    def attempt_delay_cdf(self) -> CDF:
        """Pre-download delays excluding cache hits."""
        attempted = self.table.ordered("cache_hit") == 0
        return _cdf(self._pre_delays()[attempted])

    def fetch_speed_cdf(self) -> CDF:
        """Fetch speeds, rejected requests included at 0 B/s."""
        return _cdf(self.table.ordered("fetch_rate")[self._fetched()])

    def fetch_delay_cdf(self) -> CDF:
        return _cdf(self._fetch_delays()[self._succeeded()])

    def _e2e_delays(self) -> tuple[np.ndarray, np.ndarray]:
        """(end-to-end delay, succeeded mask) in completion order."""
        succeeded = self._succeeded()
        return (self._pre_delays()[succeeded]
                + self._fetch_delays()[succeeded], succeeded)

    def e2e_speed_cdf(self) -> CDF:
        table = self.table
        delays, succeeded = self._e2e_delays()
        speeds = table.ordered("fetch_rate")[succeeded]
        positive = delays > 0
        positions = np.flatnonzero(succeeded)[positive]
        sizes = table.file_field("size",
                                 _view(table.order, np.int64)[positions])
        speeds[positive] = sizes / delays[positive]
        return _cdf(speeds)

    def e2e_delay_cdf(self) -> CDF:
        return _cdf(self._e2e_delays()[0])

    # -- headline statistics ------------------------------------------------------

    @property
    def cache_hit_ratio(self) -> float:
        return self.pool.hit_ratio

    @property
    def request_failure_ratio(self) -> float:
        tasks = len(self.table.order)
        if not tasks:
            return 0.0
        failures = int(np.count_nonzero(self.table.ordered("success") == 0))
        return failures / tasks

    def _demand_failures(self) -> tuple[np.ndarray, np.ndarray]:
        """(weekly demand, failed mask) per task, in completion order."""
        table = self.table
        demand = table.demand[_view(table.order, np.int64)]
        return demand, table.ordered("success") == 0

    def failure_ratio_by_class(self) -> dict[PopularityClass, float]:
        demand, failed = self._demand_failures()
        codes = class_codes(demand)
        totals = np.bincount(codes, minlength=len(_CLASSES)).tolist()
        failures = np.bincount(codes[failed],
                               minlength=len(_CLASSES)).tolist()
        present, first = np.unique(codes, return_index=True)
        return {_CLASSES[code]: failures[code] / totals[code]
                for code in present[np.argsort(first)].tolist()}

    def failure_ratio_by_demand(self) -> list[tuple[int, float]]:
        """(weekly demand, request-level failure ratio) pairs (Fig. 10)."""
        demand, failed = self._demand_failures()
        values, inverse, totals = np.unique(
            demand, return_inverse=True, return_counts=True)
        failures = np.bincount(inverse[failed], minlength=len(values))
        return [(value, fails / total) for value, fails, total in zip(
            values.tolist(), failures.tolist(), totals.tolist())]

    def demand_bucket_counts(
            self, buckets: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
        """(requests, failed requests) with weekly demand in each
        ``[low, high)`` bucket."""
        demand, failed = self._demand_failures()
        counts = []
        for low, high in buckets:
            inside = (demand >= low) & (demand < high)
            counts.append((int(np.count_nonzero(inside)),
                           int(np.count_nonzero(inside & failed))))
        return counts

    @property
    def impeded_fetch_share(self) -> float:
        """Share of fetches below the 1 Mbps HD threshold (Bottleneck 1)."""
        speeds = self.table.ordered("fetch_rate")[self._fetched()]
        if not len(speeds):
            return 0.0
        impeded = int(np.count_nonzero(speeds < IMPEDED_FETCH_THRESHOLD))
        return impeded / len(speeds)

    def impeded_breakdown(self) -> dict[str, float]:
        """Decompose impeded fetches by cause (paper section 4.2)."""
        table = self.table
        fetched = self._fetched()
        total = int(np.count_nonzero(fetched))
        if not total:
            return {}
        order = _view(table.order, np.int64)
        impeded = fetched & (table.ordered("fetch_rate")
                             < IMPEDED_FETCH_THRESHOLD)
        rows = order[impeded]
        rejected = table.ordered("fetch_state")[impeded] == FETCH_REJECTED
        paths = table.fetch_path
        barrier = np.fromiter(
            (paths[idx] is not None and not paths[idx].privileged
             for idx in rows.tolist()), dtype=bool, count=len(rows))
        # Unreported access bandwidth is approximated by the peak
        # fetch speed, exactly as the paper's footnote 2 does.
        approx = np.where(table.user_field("reports_bandwidth", rows),
                          table.user_field("access_bandwidth", rows),
                          table.ordered("fetch_peak")[impeded])
        barrier &= ~rejected
        low = ~rejected & ~barrier & (approx < IMPEDED_FETCH_THRESHOLD)
        counts = {"isp_barrier": int(np.count_nonzero(barrier)),
                  "low_access_bandwidth": int(np.count_nonzero(low)),
                  "rejected": int(np.count_nonzero(rejected))}
        counts["unknown"] = len(rows) - sum(counts.values())
        return {cause: count / total for cause, count in counts.items()}

    @property
    def rejection_ratio(self) -> float:
        return self.uploads.rejection_ratio

    def bandwidth_series(self, bin_width: float = 300.0,
                         include_rejected: bool = True,
                         only_highly_popular: bool = False) -> np.ndarray:
        """Upload-bandwidth burden per time bin, in B/s (Figure 11)."""
        from repro.analysis.timeseries import bin_rate_series
        table = self.table
        flows = np.column_stack([table.flow_column("start"),
                                 table.flow_column("end"),
                                 table.flow_column("rate")])
        keep = np.ones(len(flows), dtype=bool)
        if not include_rejected:
            keep &= ~table.flow_column("rejected")
        if only_highly_popular:
            keep &= table.flow_column("popular")
        return bin_rate_series(flows[keep], bin_width, self.horizon)

    def user_traffic_overhead(self) -> float:
        """User-side traffic relative to payload (paper: 1.07-1.10)."""
        table = self.table
        done = self._succeeded()
        traffic = sum(table.ordered("fetch_traffic")[done].tolist())
        payload = sum(table.ordered("fetch_bytes")[done].tolist())
        return traffic / payload if payload > 0 else 0.0


def _pool_levels(starts: np.ndarray, ends: np.ndarray, rates: np.ndarray,
                 peak: float) -> tuple[np.ndarray, np.ndarray]:
    """(time, committed level) after each commit and release of one
    pool's flows, in time order.

    Each flow commits its rate at its start and releases it at its end;
    at equal times, commits come first.  The running sum restarts
    wherever no flow is outstanding, where the pool snaps its level to
    0.0, and is clipped to ``[0, peak]``: the levels are the pool's own
    up to float rounding.
    """
    count = len(starts)
    times = np.concatenate([starts, ends])
    order = np.argsort(times, kind="stable")
    commits = order < count
    levels = np.cumsum(np.concatenate([rates, -rates])[order])
    idle = np.cumsum(np.where(commits, 1, -1)) == 0
    restart = np.maximum.accumulate(
        np.where(idle, np.arange(len(order)), -1))
    levels -= np.where(restart >= 0, levels[restart], 0.0)
    return times[order], np.clip(levels, 0.0, peak)


def _cdf(values: np.ndarray) -> CDF:
    """The empirical CDF of a float column (``empirical_cdf`` without
    the detour through a Python list)."""
    return CDF(np.sort(values))


class XuanfengCloud:
    """The simulated cloud service."""

    def __init__(self, config: CloudConfig = CloudConfig(),
                 source_model: Optional[SourceModel] = None,
                 seed: int = 41,
                 metrics: AnyRegistry = NOOP,
                 faults: Optional[FaultInjector] = None,
                 policies: Optional[ResiliencePolicies] = None):
        self.config = config
        # Fault injection + resilience are strictly opt-in: with
        # ``faults=None`` the task machine (repro.cloud.fastpath) runs
        # over an empty plan with no policies, so no window, retry or
        # checkpoint changes the week.  ``policies`` is read only when
        # ``faults`` is given, but then it changes the week even under
        # an empty plan: the policies also retry admission rejects that
        # no fault caused.
        self.faults = faults
        self.policies = policies
        self.fetch_model = FetchSpeedModel()
        self.metrics = metrics
        self.pool = CloudStoragePool(config.scaled_storage_capacity)
        self.uploads = UploadingServers(config)
        self.fleet = PreDownloaderFleet(config, source_model,
                                        metrics=metrics)
        self.database = ContentDatabase()
        self._rng_factory = RngFactory(seed)
        self._in_flight: dict[str, Event] = {}
        self._preseeded = False
        self._runs = 0
        self._vm_slots: Optional[SlotResource] = None
        if config.predownloader_count is not None:
            self._vm_slots = SlotResource(config.predownloader_count,
                                          name="pre-downloaders")

    # -- public entry point -------------------------------------------------------

    def run(self, workload: Workload) -> CloudRunResult:
        """Replay a whole workload; returns the collected run result."""
        sim = Simulator(metrics=self.metrics)
        rng = self._rng_factory.stream(f"cloud-run-{self._runs}")
        self._runs += 1
        faults, policies = self.faults, self.policies
        if faults is None:
            # No fault plan: the one task machine over an empty one.
            faults, policies = FaultInjector(FaultPlan("none", 0)), None
        faults.bind(sim, kinds=CLOUD_KINDS)
        if self.config.collaborative_cache and not self._preseeded:
            # The pool predates the first measured week; on subsequent
            # runs of the same instance (multi-week studies) the pool's
            # own accumulated contents play that role.
            self._preseeded = True
            self.pool.preseed(workload.catalog,
                              self.config.precached_probability,
                              self._rng_factory.stream("preseed"))
            for file_id in workload.catalog.file_ids():
                if file_id in self.pool:
                    self.database.set_cached(file_id, True)

        # Imported here: the machine module imports this one.
        from repro.cloud.fastpath import TaskMachine
        # The machine's state and its run table are one large acyclic
        # object graph (repro.sim.collector).
        with paused():
            machine = TaskMachine(self, sim, workload, rng, faults,
                                  policies)
            machine.start()
            sim.run()
        table = machine.table
        del machine
        # Nothing reads a file's request count during the replay, so
        # the week's counts are added once, here.
        self.database.record_requests(*table.requests_per_file())
        if self.metrics.enabled:
            self._publish(table)
        # Freeze the clock at the end of the week so observations made
        # after the run (and enclosing spans) keep a meaningful
        # sim-time stamp instead of reading a dead simulator.
        final_time = sim.now
        self.metrics.set_clock(lambda: final_time)
        return CloudRunResult(
            config=self.config, table=table, pool=self.pool,
            uploads=self.uploads, fleet=self.fleet,
            database=self.database, horizon=workload.horizon)

    def _publish(self, table: RunTable) -> None:
        """Publish a replay's metrics from its run table and pools.

        Each counter is a column filter binned by the column's times.
        Each upload gauge takes, per bin, its pool's committed level
        after the bin's last commit or release, rebuilt from the pool's
        flow rows (:func:`_pool_levels`), and peaks at the pool's peak.
        The VM queue reports its final length and peak."""
        metrics = self.metrics
        width = metrics.bin_width

        def count(name: str, times: np.ndarray) -> None:
            counts = np.bincount((times // width).astype(np.int64))
            bins = np.flatnonzero(counts)
            metrics.record_bins(metrics.counter(name), bins.tolist(),
                                counts[bins].astype(float).tolist())

        arrivals = table.arrival
        hit = (_view(table.cache_hit, np.uint8) != 0) \
            & (_view(table.coalesced, np.uint8) == 0)
        starts = table.flow_column("start")
        groups = table.flow_column("group")
        retried = _view(table.retried_rejects, np.float64)
        count("repro_cloud_tasks_total", arrivals)
        count("repro_cloud_cache_hits_total", arrivals[hit])
        count("repro_cloud_cache_misses_total", arrivals[~hit])
        count("repro_cloud_fetches_total", np.concatenate([starts, retried]))
        count("repro_cloud_admission_rejects_total", np.concatenate(
            [starts[table.flow_column("rejected")], retried]))
        count("repro_cloud_isp_barrier_crossings_total",
              starts[table.flow_column("crossed")])
        ends = table.flow_column("end")
        rates = table.flow_column("rate")
        for isp, pool in self.uploads.pools.items():
            gauge = metrics.gauge("repro_cloud_upload_gbps", isp=isp.value)
            mine = groups == GROUP_CODES[isp]
            times, levels = _pool_levels(starts[mine], ends[mine],
                                         rates[mine], pool.peak_committed)
            if len(times):
                bins = (times // width).astype(np.int64)
                last = np.append(bins[1:] != bins[:-1], True)
                metrics.record_bins(gauge, bins[last].tolist(),
                                    to_gbps(levels[last]).tolist(),
                                    peak=to_gbps(pool.peak_committed))
        metrics.gauge("repro_cloud_dedup_bytes_saved").set(
            self.pool.dedup_bytes_saved)
        slots = self._vm_slots
        if slots is not None:
            metrics.record_bins(
                metrics.gauge("repro_cloud_predownload_queue_depth"),
                (int(metrics.now() // width),), (slots.queue_length,),
                peak=slots.peak_queue_length)
