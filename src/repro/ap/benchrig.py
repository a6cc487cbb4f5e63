"""The section 5.1 benchmark rig: replaying sampled requests on smart APs.

Methodology reproduced from the paper: 1000 real requests from Unicom
users (each carrying its recorded access bandwidth) are split across the
three APs, each sitting on its own 20 Mbps Unicom ADSL line; requests
replay sequentially (request i+1 starts after i completes or fails); the
AP's pre-download speed is throttled to the recorded user bandwidth to
approximate the original network conditions; completed files are removed
from the small storage devices; performance data aggregates to a storage
server.

:func:`sharded_ap_replay` (``repro ap --jobs``) runs the same campaign
with one worker process per AP and merges it back into the sequential
rig's report, whatever the number of processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

import numpy as np

from repro.analysis.cdf import CDF, empirical_cdf
from repro.ap.models import ApHardware, BENCHMARKED_APS
from repro.ap.smartap import ApPreDownloadResult, SmartAP
from repro.faults.injector import FaultInjector
from repro.faults.policies import ResiliencePolicies
from repro.faults.resilience import ap_chaos_predownload
from repro.netsim.link import TESTBED_ADSL, adsl_goodput
from repro.obs.registry import AnyRegistry, NOOP
from repro.sim.randomness import RngFactory
from repro.transfer.source import SourceModel
from repro.workload.catalog import FileCatalog
from repro.workload.popularity import PopularityClass
from repro.workload.records import PreDownloadRecord, RequestRecord

if TYPE_CHECKING:
    from repro.recovery.durable import DurableOutcome, RecoveryConfig


@dataclass
class ApBenchmarkReport:
    """Aggregated results of one replay campaign."""

    results: list[ApPreDownloadResult]

    def __post_init__(self):
        if not self.results:
            raise ValueError("report needs at least one result")

    # -- failure statistics ------------------------------------------------------

    @property
    def failure_ratio(self) -> float:
        failures = sum(1 for r in self.results if not r.record.success)
        return failures / len(self.results)

    def failure_ratio_of_class(self, klass: PopularityClass) -> float:
        relevant = [r for r in self.results
                    if r.file.popularity_class is klass]
        if not relevant:
            return 0.0
        failures = sum(1 for r in relevant if not r.record.success)
        return failures / len(relevant)

    @property
    def unpopular_failure_ratio(self) -> float:
        return self.failure_ratio_of_class(PopularityClass.UNPOPULAR)

    def failure_cause_breakdown(self) -> dict[str, float]:
        """Shares of failures by cause (paper: 86% seeds / 10% server /
        4% bugs)."""
        failures = [r for r in self.results if not r.record.success]
        if not failures:
            return {}
        counts: dict[str, int] = {}
        for result in failures:
            cause = result.record.failure_cause or "unknown"
            counts[cause] = counts.get(cause, 0) + 1
        return {cause: count / len(failures)
                for cause, count in counts.items()}

    # -- speed / delay distributions -----------------------------------------------

    def speed_cdf(self) -> CDF:
        """Pre-download speeds, failures included at their trickle rates."""
        return empirical_cdf([r.record.average_speed
                              for r in self.results])

    def delay_cdf(self) -> CDF:
        return empirical_cdf([r.record.delay for r in self.results])

    def max_speed(self) -> float:
        return self.speed_cdf().max

    def mean_iowait(self) -> float:
        successes = [r for r in self.results if r.record.success]
        if not successes:
            return 0.0
        return float(np.mean([r.iowait_ratio for r in successes]))

    def peak_iowait(self) -> float:
        """iowait at the fastest replayed task -- the Table 2 quantity."""
        return max((r.iowait_ratio for r in self.results), default=0.0)

    # -- slicing ---------------------------------------------------------------------

    def for_ap(self, ap_name: str) -> "ApBenchmarkReport":
        subset = [r for r in self.results if r.ap_name == ap_name]
        return ApBenchmarkReport(subset)

    def ap_names(self) -> list[str]:
        seen: list[str] = []
        for result in self.results:
            if result.ap_name not in seen:
                seen.append(result.ap_name)
        return seen


class ApBenchmarkRig:
    """Drives replay campaigns across a set of smart APs."""

    def __init__(self, catalog: FileCatalog,
                 aps: Optional[Sequence[SmartAP]] = None,
                 source_model: Optional[SourceModel] = None,
                 uplink_bandwidth: float = adsl_goodput(TESTBED_ADSL),
                 seed: int = 20150301,
                 metrics: AnyRegistry = NOOP,
                 faults: Optional[FaultInjector] = None,
                 policies: Optional[ResiliencePolicies] = None):
        self.catalog = catalog
        # Fault injection is opt-in; ``faults=None`` replays exactly as
        # before.  AP fault windows run on each AP's own cumulative
        # replay clock.
        self.faults = faults
        self.policies = policies
        source_model = source_model or SourceModel()
        self.aps = list(aps) if aps is not None else [
            SmartAP(hardware, source_model=source_model)
            for hardware in BENCHMARKED_APS]
        self.uplink_bandwidth = uplink_bandwidth
        self._rng_factory = RngFactory(seed)
        self.metrics = metrics
        self._m_replays = metrics.counter("repro_ap_replays_total")
        self._m_iowait = metrics.histogram("repro_ap_iowait_ratio")
        self._m_write_rate = metrics.histogram(
            "repro_ap_write_throughput_bytes_per_second")

    def replay(self, requests: Sequence[RequestRecord],
               throttle_to_user: bool = True) -> ApBenchmarkReport:
        """Replay the sampled workload, split round-robin across the APs.

        Each AP processes its share sequentially; the simulated clock of
        one AP is the cumulative duration of its own replays, as in the
        real three-week campaign.
        """
        if not requests:
            raise ValueError("nothing to replay")
        results: list[ApPreDownloadResult] = []
        clocks = {ap.hardware.name: 0.0 for ap in self.aps}
        for index, request in enumerate(requests):
            ap = self.aps[index % len(self.aps)]
            rng = self._rng_factory.stream(f"replay-{ap.hardware.name}")
            record = self.catalog[request.file_id]
            throttle = request.access_bandwidth if throttle_to_user \
                else None
            start = clocks[ap.hardware.name]
            if self.faults is None:
                outcome, iowait = ap.pre_download(
                    record, rng, access_bandwidth=throttle,
                    uplink_bandwidth=self.uplink_bandwidth)
            else:
                outcome, iowait = ap_chaos_predownload(
                    ap, record, rng, start=start,
                    access_bandwidth=throttle,
                    uplink_bandwidth=self.uplink_bandwidth,
                    injector=self.faults, policies=self.policies,
                    task_label=f"{ap.hardware.name}:{request.task_id}")
            finish = start + outcome.duration
            clocks[ap.hardware.name] = finish
            if outcome.success:
                # Small devices are wiped between tasks (section 5.1).
                ap.store(outcome.bytes_obtained)
                ap.remove(outcome.bytes_obtained)
            result = ApPreDownloadResult(
                ap_name=ap.hardware.name,
                record=PreDownloadRecord(
                    task_id=request.task_id, file_id=record.file_id,
                    start_time=start, finish_time=finish,
                    acquired_bytes=outcome.bytes_obtained,
                    traffic_bytes=outcome.traffic, cache_hit=False,
                    average_speed=outcome.average_rate,
                    peak_speed=outcome.peak_rate,
                    success=outcome.success,
                    failure_cause=outcome.failure_cause),
                file=record, iowait_ratio=iowait)
            self._observe(result)
            results.append(result)
        return ApBenchmarkReport(results)

    def _observe(self, result: ApPreDownloadResult) -> None:
        """Record one replayed request on the rig's instruments."""
        record = result.record
        self._m_replays.inc()
        if record.success:
            self._m_iowait.observe(result.iowait_ratio)
            self._m_write_rate.observe(record.average_speed)
        else:
            self.metrics.counter(
                "repro_ap_failures_total",
                cause=record.failure_cause or "unknown").inc()

    def replay_top_popular(self, requests: Sequence[RequestRecord],
                           ap: SmartAP, top: int = 10,
                           repeats: int = 3) -> ApBenchmarkReport:
        """The Table 2 protocol: replay the most popular sampled requests
        with *no* user-bandwidth throttle, so the write path (and the
        20 Mbps line) is what binds."""
        ranked = sorted(
            requests,
            key=lambda request:
                self.catalog[request.file_id].weekly_demand,
            reverse=True)
        subset = list(ranked[:top]) * repeats
        rig = ApBenchmarkRig(self.catalog, aps=[ap],
                             uplink_bandwidth=self.uplink_bandwidth,
                             seed=self._rng_factory.master_seed + 1,
                             metrics=self.metrics)
        return rig.replay(subset, throttle_to_user=False)


class ApReplayTask(NamedTuple):
    """Spawn-safe payload: one AP's share of a replay campaign.

    The sequential rig deals requests round-robin (``index % len(aps)``)
    and keeps all cross-request state (RNG stream, clock, storage) per
    AP, so replaying AP ``k``'s slice ``requests[k::n]`` alone
    reproduces its sequential results exactly.

    The slice travels one of two ways: ``requests`` carries the record
    objects themselves (pickled to the worker), or ``requests_trace``
    names a columnar ``.col`` file plus the slice's row indices -- the
    worker memory-maps the shared trace and decodes only its own rows,
    so nothing request-sized crosses the process boundary.
    """

    ap_index: int
    catalog_files: tuple                 # CatalogFile records referenced
    requests: tuple                      # this AP's slice, in order
    seed: int
    throttle_to_user: bool = True
    requests_trace: tuple = ()           # (path, row indices) alternative


def ap_replay_worker(task: ApReplayTask) -> list[ApPreDownloadResult]:
    """Replay one AP's slice on a single-AP rig."""
    catalog = FileCatalog.from_records(task.catalog_files)
    if task.requests_trace:
        from repro.workload.columnar import ColumnarTrace
        path, indices = task.requests_trace
        requests = ColumnarTrace(path).take(indices)
    else:
        requests = list(task.requests)
    hardware = BENCHMARKED_APS[task.ap_index]
    rig = ApBenchmarkRig(
        catalog, aps=[SmartAP(hardware, source_model=SourceModel())],
        seed=task.seed)
    report = rig.replay(requests,
                        throttle_to_user=task.throttle_to_user)
    return report.results


def sharded_ap_replay(catalog: FileCatalog,
                      requests: Sequence[RequestRecord], *,
                      jobs: int = 1, seed: int = 20150301,
                      throttle_to_user: bool = True,
                      metrics: AnyRegistry = NOOP,
                      recovery: Optional[RecoveryConfig] = None,
                      requests_trace: Optional[tuple] = None
                      ) -> tuple[ApBenchmarkReport, DurableOutcome]:
    """Replay the AP campaign with one process per benchmarked AP.

    Results are reassembled into the sequential round-robin order, so
    the merged report is identical to ``ApBenchmarkRig.replay`` on the
    full request sequence (per-AP RNG streams and clocks are
    self-contained), and the merged results feed ``metrics`` through
    the rig's own instruments.  ``jobs`` caps worker processes; the
    fan-out is fixed at one task per AP, keyed ``ap-00``, ``ap-01``,
    ....  Runs on :func:`~repro.recovery.durable.durable_map`, so a
    killed or hung worker costs a bounded requeue and ``recovery``
    makes the campaign durable/resumable with per-AP checkpoints; the
    map's outcome (worker walls, reused checkpoints, retries) is
    returned beside the report.

    ``requests_trace`` -- ``(path, row_indices)`` naming ``requests``'
    rows in a columnar ``.col`` trace -- switches the workers to
    zero-copy mode: each memory-maps the shared trace and decodes only
    its own slice instead of unpickling the request objects.  The
    replay itself (and its results) is identical either way.
    """
    from repro.recovery.durable import durable_map
    if not requests:
        raise ValueError("nothing to replay")
    ap_count = len(BENCHMARKED_APS)
    needed = {request.file_id for request in requests}
    files = tuple(record for record in catalog if record.file_id in needed)
    if requests_trace is not None:
        trace_path, rows = requests_trace
        if len(rows) != len(requests):
            raise ValueError("requests_trace indices must cover exactly "
                             "the requests being replayed")
        tasks = [ApReplayTask(
            ap_index=index, catalog_files=files, requests=(), seed=seed,
            throttle_to_user=throttle_to_user,
            requests_trace=(str(trace_path),
                            tuple(rows[index::ap_count])))
            for index in range(ap_count)
            if rows[index::ap_count]]
    else:
        tasks = [ApReplayTask(ap_index=index, catalog_files=files,
                              requests=tuple(requests[index::ap_count]),
                              seed=seed,
                              throttle_to_user=throttle_to_user)
                 for index in range(ap_count)
                 if requests[index::ap_count]]
    outcome = durable_map(
        [f"ap-{task.ap_index:02d}" for task in tasks], tasks,
        ap_replay_worker, jobs=jobs, metrics=metrics, recovery=recovery,
        identity={"kind": "ap-replay", "seed": seed,
                  "throttle_to_user": throttle_to_user,
                  "requests": len(requests), "ap_count": ap_count})

    merged: list[Optional[ApPreDownloadResult]] = [None] * len(requests)
    for task, ap_results in zip(tasks, outcome.results):
        for position, result in enumerate(ap_results):
            merged[task.ap_index + position * ap_count] = result
    assert all(result is not None for result in merged)
    report = ApBenchmarkReport(list(merged))      # type: ignore[arg-type]
    if metrics.enabled:
        rig = ApBenchmarkRig(catalog, metrics=metrics)
        for result in report.results:
            rig._observe(result)
    return report, outcome
