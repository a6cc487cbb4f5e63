"""The pre-downloader fleet.

When a requested file is not in the storage pool, Xuanfeng "assigns a
virtual machine (named a pre-downloader) to pre-download the file from
the Internet"; each VM has ~20 Mbps of access bandwidth (paper section
2.1).  The fleet builds the file's data source from the catalog (swarm
or origin server) and runs a download session from the cloud vantage.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cloud.config import CloudConfig
from repro.obs.registry import AnyRegistry, NOOP
from repro.transfer.session import DownloadOutcome, DownloadSession, \
    SessionLimits
from repro.transfer.protocols import Protocol
from repro.transfer.source import CLOUD_VANTAGE, ContentSource, SourceModel
from repro.workload.records import CatalogFile


class PreDownloaderFleet:
    """Builds and runs pre-download sessions on cloud VMs.

    Sources are cached per file so repeated attempts hit the *same*
    swarm/server object (its state, e.g. demand-coupled seed levels, is
    shared across attempts) while every attempt redraws the momentary
    conditions.
    """

    def __init__(self, config: CloudConfig,
                 source_model: Optional[SourceModel] = None,
                 metrics: AnyRegistry = NOOP):
        self.config = config
        self.source_model = source_model or SourceModel()
        self.metrics = metrics
        self._sources: dict[str, ContentSource] = {}
        self._limits = SessionLimits(
            rate_caps=(config.predownloader_bandwidth,),
            stagnation_timeout=config.stagnation_timeout)
        self.attempts = 0
        self.failures = 0
        self.traffic_bytes = 0.0
        self.payload_bytes = 0.0
        self._m_attempts = metrics.counter(
            "repro_cloud_predownload_attempts_total")
        self._m_failures = metrics.counter(
            "repro_cloud_predownload_failures_total")
        self._m_traffic = metrics.counter(
            "repro_cloud_predownload_traffic_bytes_total")

    def source_for(self, file_id: str, protocol: Protocol,
                   weekly_demand: int) -> ContentSource:
        """The data source of file ``file_id`` (built on first use)."""
        source = self._sources.get(file_id)
        if source is None:
            source = self._sources[file_id] = self.source_model.build(
                file_id, protocol, weekly_demand)
        return source

    def session_for(self, file_id: str, size: float, protocol: Protocol,
                    weekly_demand: int,
                    mid_failure_probability: Optional[float] = None,
                    ) -> DownloadSession:
        """Build one attempt's session, transferring ``size`` bytes.

        ``size`` is the file's size, or the uncommitted remainder of a
        checkpoint-resume restart; ``mid_failure_probability`` overrides
        the protocol model's mid-transfer failure chance (fault
        injection forces 1.0 while a swarm's seeds are dead).
        """
        return DownloadSession(self.source_for(file_id, protocol,
                                               weekly_demand),
                               size, CLOUD_VANTAGE, limits=self._limits,
                               mid_failure_probability=mid_failure_probability,
                               metrics=self.metrics)

    def attempt(self, record: CatalogFile,
                rng: np.random.Generator) -> DownloadOutcome:
        """Run one pre-download attempt of a catalog row to completion
        (analytic form)."""
        outcome = self.session_for(
            record.file_id, record.size, record.protocol,
            record.weekly_demand).simulate(rng)
        self.account(outcome)
        return outcome

    def account(self, outcome: DownloadOutcome) -> None:
        """Fold an externally run session outcome into fleet statistics."""
        self.attempts += 1
        self._m_attempts.inc()
        if not outcome.success:
            self.failures += 1
            self._m_failures.inc()
        self.traffic_bytes += outcome.traffic
        self.payload_bytes += outcome.bytes_obtained
        self._m_traffic.inc(outcome.traffic)

    def no_cache_failure_ratio(self, records,
                               rng: np.random.Generator) -> float:
        """Counterfactual: failure ratio if the storage pool vanished.

        Runs one fresh pre-download attempt per given request's file
        (request-weighted, like the paper's 16.4% figure) without
        touching fleet accounting, the run's metrics or the cache.
        Requests for one file share one (stateless) session.
        """
        records = list(records)
        if not records:
            return 0.0
        sessions: dict[str, DownloadSession] = {}
        failures = 0
        for record in records:
            session = sessions.get(record.file_id)
            if session is None:
                session = sessions[record.file_id] = DownloadSession(
                    self.source_for(record.file_id, record.protocol,
                                    record.weekly_demand),
                    record.size, CLOUD_VANTAGE, limits=self._limits)
            if not session.simulate(rng).success:
                failures += 1
        return failures / len(records)

    @property
    def traffic_overhead(self) -> float:
        """Pre-download traffic relative to payload (paper: ~196% for P2P)."""
        if self.payload_bytes <= 0:
            return 0.0
        return self.traffic_bytes / self.payload_bytes
