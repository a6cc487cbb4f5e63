"""The end-to-end cloud system: request -> pre-download -> fetch.

:class:`XuanfengCloud` replays a synthetic week through the full
machinery on the discrete-event engine: cache lookups with in-flight
coalescing (concurrent requests for one file share a single
pre-download), VM pre-download sessions, user fetch admission over the
per-ISP uploading servers, and the bookkeeping behind every cloud-side
figure of the paper (8, 9, 10, 11 and the section 4 text statistics).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from repro.analysis.cdf import CDF, empirical_cdf
from repro.cloud.config import CloudConfig
from repro.cloud.database import ContentDatabase
from repro.cloud.fetch import FetchSpeedModel
from repro.cloud.predownload import PreDownloaderFleet
from repro.cloud.storagepool import CloudStoragePool
from repro.cloud.upload import PathChoice, UploadingServers
from repro.faults.injector import FaultInjector
from repro.faults.plan import CLOUD_KINDS
from repro.faults.policies import ResiliencePolicies
from repro.obs.registry import AnyRegistry, NOOP
from repro.paper import IMPEDED_FETCH_THRESHOLD
from repro.sim.engine import Event, Simulator
from repro.sim.queueing import SlotResource
from repro.sim.randomness import RngFactory
from repro.transfer.source import SourceModel
from repro.workload.generator import Workload
from repro.workload.popularity import PopularityClass
from repro.workload.records import (
    CatalogFile,
    FetchRecord,
    PreDownloadRecord,
    RequestRecord,
)


class FetchFlow(NamedTuple):
    """One fetch flow interval, for bandwidth-burden binning (Fig. 11).

    A named tuple: one is appended per fetch and never mutated, so it
    skips per-instance ``__dict__`` allocation and dataclass ``__init__``
    overhead on the replay hot path.
    """

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


@dataclass
class CloudRunResult:
    """The outcome of replaying one workload through the cloud."""

    config: CloudConfig
    tasks: list[TaskResult]
    flows: list[FetchFlow]
    pool: CloudStoragePool
    uploads: UploadingServers
    fleet: PreDownloaderFleet
    database: ContentDatabase
    horizon: float

    # -- trace views -----------------------------------------------------------

    @property
    def pre_records(self) -> list[PreDownloadRecord]:
        return [task.pre_record for task in self.tasks]

    @property
    def fetch_records(self) -> list[FetchRecord]:
        return [task.fetch_record for task in self.tasks
                if task.fetch_record is not None]

    # -- figure 8 / 9 distributions ---------------------------------------------

    def attempt_speed_cdf(self) -> CDF:
        """Pre-download speeds excluding cache hits (failures included)."""
        speeds = [record.average_speed for record in self.pre_records
                  if not record.cache_hit]
        return empirical_cdf(speeds)

    def attempt_delay_cdf(self) -> CDF:
        """Pre-download delays excluding cache hits."""
        delays = [record.delay for record in self.pre_records
                  if not record.cache_hit]
        return empirical_cdf(delays)

    def fetch_speed_cdf(self) -> CDF:
        """Fetch speeds, rejected requests included at 0 B/s."""
        return empirical_cdf(
            [record.average_speed for record in self.fetch_records])

    def fetch_delay_cdf(self) -> CDF:
        return empirical_cdf(
            [record.delay for record in self.fetch_records
             if not record.rejected])

    def e2e_speed_cdf(self) -> CDF:
        return empirical_cdf([task.end_to_end_speed for task in self.tasks
                              if task.end_to_end_speed is not None])

    def e2e_delay_cdf(self) -> CDF:
        return empirical_cdf([task.end_to_end_delay for task in self.tasks
                              if task.end_to_end_delay is not None])

    # -- headline statistics ------------------------------------------------------

    @property
    def cache_hit_ratio(self) -> float:
        return self.pool.hit_ratio

    @property
    def request_failure_ratio(self) -> float:
        failures = sum(1 for task in self.tasks
                       if not task.pre_record.success)
        return failures / len(self.tasks) if self.tasks else 0.0

    def failure_ratio_by_class(self) -> dict[PopularityClass, float]:
        totals: dict[PopularityClass, int] = {}
        failures: dict[PopularityClass, int] = {}
        for task in self.tasks:
            klass = task.file.popularity_class
            totals[klass] = totals.get(klass, 0) + 1
            if not task.pre_record.success:
                failures[klass] = failures.get(klass, 0) + 1
        return {klass: failures.get(klass, 0) / totals[klass]
                for klass in totals}

    def failure_ratio_by_demand(self) -> list[tuple[int, float]]:
        """(weekly demand, request-level failure ratio) pairs (Fig. 10)."""
        totals: dict[int, int] = {}
        failures: dict[int, int] = {}
        for task in self.tasks:
            demand = task.file.weekly_demand
            totals[demand] = totals.get(demand, 0) + 1
            if not task.pre_record.success:
                failures[demand] = failures.get(demand, 0) + 1
        return sorted((demand, failures.get(demand, 0) / count)
                      for demand, count in totals.items())

    @property
    def impeded_fetch_share(self) -> float:
        """Share of fetches below the 1 Mbps HD threshold (Bottleneck 1)."""
        records = self.fetch_records
        if not records:
            return 0.0
        impeded = sum(1 for record in records
                      if record.average_speed < IMPEDED_FETCH_THRESHOLD)
        return impeded / len(records)

    def impeded_breakdown(self) -> dict[str, float]:
        """Decompose impeded fetches by cause (paper section 4.2)."""
        records = [(task.fetch_record, task.fetch_path, task.request)
                   for task in self.tasks if task.fetch_record is not None]
        if not records:
            return {}
        counts = {"isp_barrier": 0, "low_access_bandwidth": 0,
                  "rejected": 0, "unknown": 0}
        for record, path, request in records:
            if record.average_speed >= IMPEDED_FETCH_THRESHOLD:
                continue
            # Unreported access bandwidth is approximated by the peak
            # fetch speed, exactly as the paper's footnote 2 does.
            approx_bandwidth = record.access_bandwidth \
                if record.access_bandwidth is not None \
                else record.peak_speed
            if record.rejected:
                counts["rejected"] += 1
            elif path is not None and not path.privileged:
                counts["isp_barrier"] += 1
            elif approx_bandwidth < IMPEDED_FETCH_THRESHOLD:
                counts["low_access_bandwidth"] += 1
            else:
                counts["unknown"] += 1
        total = len(records)
        return {cause: count / total for cause, count in counts.items()}

    @property
    def rejection_ratio(self) -> float:
        return self.uploads.rejection_ratio

    def bandwidth_series(self, bin_width: float = 300.0,
                         include_rejected: bool = True,
                         only_highly_popular: bool = False) -> np.ndarray:
        """Upload-bandwidth burden per time bin, in B/s (Figure 11)."""
        from repro.analysis.timeseries import bin_rate_series
        flows = [(flow.start, flow.end, flow.rate) for flow in self.flows
                 if (include_rejected or not flow.rejected)
                 and (not only_highly_popular or flow.highly_popular)]
        return bin_rate_series(flows, bin_width, self.horizon)

    def user_traffic_overhead(self) -> float:
        """User-side traffic relative to payload (paper: 1.07-1.10)."""
        traffic = sum(record.traffic_bytes for record in self.fetch_records
                      if not record.rejected)
        payload = sum(record.acquired_bytes
                      for record in self.fetch_records
                      if not record.rejected)
        return traffic / payload if payload > 0 else 0.0


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
        # ``faults=None`` tasks run on the fault-free task machine
        # (repro.cloud.fastpath), so every hop and RNG draw is that of
        # the fault-free build (golden digests depend on this).
        # ``policies`` only matters when faults are injected.
        self.faults = faults
        self.policies = policies
        self.fetch_model = FetchSpeedModel()
        self.metrics = metrics
        self.pool = CloudStoragePool(config.scaled_storage_capacity)
        self.uploads = UploadingServers(config, metrics=metrics)
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
        self._m_cache_hits = metrics.counter("repro_cloud_cache_hits_total")
        self._m_cache_misses = metrics.counter(
            "repro_cloud_cache_misses_total")
        self._m_dedup_saved = metrics.gauge(
            "repro_cloud_dedup_bytes_saved")
        self._m_queue_depth = metrics.gauge(
            "repro_cloud_predownload_queue_depth")
        self._m_tasks = metrics.counter("repro_cloud_tasks_total")

    # -- public entry point -------------------------------------------------------

    def run(self, workload: Workload) -> CloudRunResult:
        """Replay a whole workload; returns the collected run result."""
        sim = Simulator(metrics=self.metrics)
        rng = self._rng_factory.stream(f"cloud-run-{self._runs}")
        self._runs += 1
        if self.faults is not None:
            self.faults.bind(sim, kinds=CLOUD_KINDS)
        if self.config.collaborative_cache and not self._preseeded:
            # The pool predates the first measured week; on subsequent
            # runs of the same instance (multi-week studies) the pool's
            # own accumulated contents play that role.
            self._preseeded = True
            self.pool.preseed(workload.catalog,
                              self.config.precached_probability,
                              self._rng_factory.stream("preseed"))
            for record in workload.catalog:
                if record.file_id in self.pool:
                    self.database.set_cached(record.file_id, True)

        tasks: list[TaskResult] = []
        flows: list[FetchFlow] = []
        # Imported here: the machine module imports this one.
        from repro.cloud.fastpath import FastTaskMachine, FaultedTaskMachine
        machine = FastTaskMachine if self.faults is None \
            else FaultedTaskMachine
        machine(self, sim, workload, workload.user_by_id(), rng, tasks,
                flows).start()
        sim.run()
        self._m_dedup_saved.set(self.pool.dedup_bytes_saved)
        # Freeze the clock at the end of the week so observations made
        # after the run (and enclosing spans) keep a meaningful
        # sim-time stamp instead of reading a dead simulator.
        final_time = sim.now
        self.metrics.set_clock(lambda: final_time)
        return CloudRunResult(
            config=self.config, tasks=tasks, flows=flows, pool=self.pool,
            uploads=self.uploads, fleet=self.fleet,
            database=self.database, horizon=workload.horizon)

