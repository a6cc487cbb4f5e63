"""Admission-free cloud replay with per-file randomness.

The event-driven :class:`~repro.cloud.system.XuanfengCloud` is the
reference model, but it cannot be sharded exactly: its tasks share one
RNG stream in event order, its preseed shuffles the whole catalog, and
upload admission couples every fetch through the per-ISP reservation
pools.  :class:`ShardReplay` is the scale-out counterpart: the same
pipeline (cache lookup with in-flight coalescing -> pre-download session
-> think-time lag -> fetch over the privileged path), but with **all** of
a file's randomness drawn from the file's own
:meth:`~repro.sim.randomness.RngFactory.fork`, so any content-sharded
partition of the request trace replays to the bit-identical union.

Deliberate divergence from the reference model (kept because admission
state is global by nature): fetches are never *rejected* -- the flow rate
is the same privileged/alternative-path speed the uploading servers
would grant, but upload-capacity exhaustion is not modelled.  Admission
effects stay the event-driven engine's job; the sharded replay is for
full-trace-scale distribution and burden studies where rejection is a
sub-percent correction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import math

import numpy as np

from repro.analysis.timeseries import bin_rate_series
from repro.cloud.config import CloudConfig
from repro.cloud.fetch import FetchSpeedModel
from repro.faults.injector import FaultInjector
from repro.faults.policies import ResiliencePolicies
from repro.netsim.isp import ISP, MAJOR_ISPS
from repro.netsim.topology import ChinaTopology, PathQuality
from repro.obs.histogram import QuantileSketch
from repro.obs.registry import AnyRegistry, NOOP
from repro.paper import IMPEDED_FETCH_THRESHOLD
from repro.scale.reducers import MergeableStats
from repro.sim.randomness import RngFactory
from repro.transfer.session import DownloadOutcome, DownloadSession, \
    SessionLimits
from repro.transfer.source import CLOUD_VANTAGE, ContentSource, SourceModel
from repro.workload.generator import Workload
from repro.workload.popularity import PopularityClass
from repro.workload.records import CatalogFile, RequestRecord, User

#: Bin width of the merged upload-burden series (matches Fig. 11).
BURDEN_BIN_WIDTH = 300.0


@dataclass(eq=False)
class ShardRunStats(MergeableStats):
    """Mergeable result of replaying one shard (or a whole week).

    Everything in here is either additive (counts, sums, flow bins) or a
    :class:`QuantileSketch` with an exact, order-independent merge; the
    horizon and bin width must match (see :class:`MergeableStats`).
    """

    IDENTITY = ("horizon", "bin_width")

    horizon: float
    bin_width: float = BURDEN_BIN_WIDTH
    tasks: int = 0
    lookups: int = 0
    hits: int = 0
    attempts: int = 0
    attempt_failures: int = 0
    failures: int = 0
    totals_by_class: dict[PopularityClass, int] = field(default_factory=dict)
    failures_by_class: dict[PopularityClass, int] = \
        field(default_factory=dict)
    pre_speed: QuantileSketch = field(default_factory=QuantileSketch)
    pre_delay: QuantileSketch = field(default_factory=QuantileSketch)
    fetch_speed: QuantileSketch = field(default_factory=QuantileSketch)
    fetch_delay: QuantileSketch = field(default_factory=QuantileSketch)
    e2e_delay: QuantileSketch = field(default_factory=QuantileSketch)
    fetch_count: int = 0
    impeded_fetches: int = 0
    payload_bytes: float = 0.0
    traffic_bytes: float = 0.0
    pre_traffic_bytes: float = 0.0
    # Resilience scoreboard (all zero when no faults are injected).
    fault_impacts: int = 0
    fault_retries: int = 0
    fault_failovers: int = 0
    fault_aborts: int = 0
    fault_recoveries: int = 0
    burden_bins: np.ndarray = field(
        default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        self.horizon = float(self.horizon)
        self.bin_width = float(self.bin_width)
        if len(self.burden_bins) == 0:
            bins = int(math.ceil(self.horizon / self.bin_width))
            self.burden_bins = np.zeros(max(bins, 1))

    # -- headline statistics -----------------------------------------------------

    @property
    def cache_hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def request_failure_ratio(self) -> float:
        return self.failures / self.tasks if self.tasks else 0.0

    @property
    def attempt_failure_ratio(self) -> float:
        return self.attempt_failures / self.attempts \
            if self.attempts else 0.0

    def failure_ratio_by_class(self) -> dict[PopularityClass, float]:
        return {klass: self.failures_by_class.get(klass, 0) / total
                for klass, total in self.totals_by_class.items()}

    @property
    def impeded_fetch_share(self) -> float:
        return self.impeded_fetches / self.fetch_count \
            if self.fetch_count else 0.0

    @property
    def peak_burden(self) -> float:
        """Peak upload-bandwidth burden across the week, in B/s."""
        return float(self.burden_bins.max()) if len(self.burden_bins) \
            else 0.0

    @property
    def user_traffic_overhead(self) -> float:
        return self.traffic_bytes / self.payload_bytes \
            if self.payload_bytes > 0 else 0.0


#: Reduce per-shard stats into the week's stats, in shard order.
merge_stats = ShardRunStats.fold


class ShardReplay:
    """Replays a (sub-)workload through the per-file cloud model."""

    def __init__(self, config: CloudConfig = CloudConfig(),
                 source_model: Optional[SourceModel] = None,
                 fetch_model: Optional[FetchSpeedModel] = None,
                 topology: Optional[ChinaTopology] = None,
                 seed: int = 41,
                 metrics: AnyRegistry = NOOP,
                 faults: Optional[FaultInjector] = None,
                 policies: Optional[ResiliencePolicies] = None):
        self.config = config
        self.source_model = source_model or SourceModel()
        self.fetch_model = fetch_model or FetchSpeedModel()
        self.topology = topology or ChinaTopology()
        self.seed = seed
        self.metrics = metrics
        # Fault injection is strictly opt-in: with ``faults=None`` the
        # replay draws the identical RNG sequence as before (the chaos
        # jitter stream is only forked when a plan is present), so
        # shard-merge bit-identity and golden digests are preserved.
        self.faults = faults
        self.policies = policies
        self._factory = RngFactory(seed).fork("scale-cloud")
        self._paths: dict[ISP, tuple[ISP, PathQuality]] = {}
        self._m_tasks = metrics.counter("repro_scale_tasks_total")
        self._m_hits = metrics.counter("repro_scale_cache_hits_total")
        self._m_misses = metrics.counter("repro_scale_cache_misses_total")
        self._m_attempts = metrics.counter(
            "repro_scale_predownload_attempts_total")
        self._m_failures = metrics.counter(
            "repro_scale_predownload_failures_total")
        self._m_fetches = metrics.counter("repro_scale_fetches_total")

    # -- paths ------------------------------------------------------------------

    def _path_for(self, user_isp: ISP) -> tuple[ISP, PathQuality]:
        """Server group and path quality for a user's fetches.

        Mirrors :meth:`UploadingServers.candidate_groups` under zero
        load: the home group when the user sits in a major ISP
        (privileged path), else the lowest-latency alternative group.
        """
        cached = self._paths.get(user_isp)
        if cached is None:
            if user_isp in MAJOR_ISPS:
                server_isp = user_isp
            else:
                server_isp = min(
                    MAJOR_ISPS,
                    key=lambda isp: self.topology.path_quality(
                        isp, user_isp).latency_ms)
            cached = (server_isp,
                      self.topology.path_quality(server_isp, user_isp))
            self._paths[user_isp] = cached
        return cached

    # -- replay -----------------------------------------------------------------

    def run(self, workload: Workload,
            user_lookup: Optional[Callable[[str], User]] = None
            ) -> ShardRunStats:
        """Replay every request; returns mergeable stats.

        ``user_lookup`` must resolve *any* user id appearing in the
        requests -- content-sharded sub-workloads reference users owned
        by other shards, so shard workers pass a
        :class:`~repro.scale.shardgen.UserDirectory` here.  Defaults to
        the workload's own user table.
        """
        if user_lookup is None:
            table = workload.user_by_id()
            user_lookup = table.__getitem__
        by_file: dict[str, list[RequestRecord]] = {}
        for request in workload.requests:
            by_file.setdefault(request.file_id, []).append(request)
        stats = ShardRunStats(horizon=workload.horizon)
        flows: list[tuple[float, float, float]] = []
        for file_id in sorted(by_file):
            self._replay_file(workload.catalog[file_id], by_file[file_id],
                              user_lookup, stats, flows)
        stats.burden_bins = bin_rate_series(flows, stats.bin_width,
                                            workload.horizon)
        return stats

    def _replay_file(self, record: CatalogFile,
                     requests: list[RequestRecord],
                     user_lookup: Callable[[str], User],
                     stats: ShardRunStats,
                     flows: list[tuple[float, float, float]]) -> None:
        """Replay one file's full (time-ordered) request stream."""
        fork = self._factory.fork(f"file:{record.file_id}")
        session_rng = fork.stream("session")
        fetch_rng = fork.stream("fetch")
        # Backoff jitter for chaos retries; only forked when faults are
        # present (stream creation is label-addressed, so skipping it
        # leaves the fault-free draw sequence untouched).
        chaos_rng = fork.stream("chaos") if self.faults is not None \
            else None
        source = self._source_for(record)
        klass = record.popularity_class
        cached = self.config.collaborative_cache and bool(
            fork.stream("preseed").random()
            < self.config.precached_probability[klass])
        # The single in-flight pre-download of this file, if any:
        # (finish time, success flag) -- concurrent requests coalesce.
        in_flight: Optional[tuple[float, bool]] = None

        for request in requests:
            now = request.request_time
            stats.tasks += 1
            self._m_tasks.inc()
            stats.totals_by_class[klass] = \
                stats.totals_by_class.get(klass, 0) + 1
            if in_flight is not None and now >= in_flight[0]:
                if in_flight[1]:
                    pressure = None if self.faults is None \
                        else self.faults.active("pool_pressure", "pool",
                                                in_flight[0])
                    if pressure is None:
                        cached = True
                    else:
                        # Disk-full pressure at landing time: the
                        # finished file never makes it into the pool.
                        self.faults.impact(pressure)
                        stats.fault_impacts += 1
                in_flight = None

            if cached:
                # Storage-pool hit: pre-download is instant and free.
                stats.lookups += 1
                stats.hits += 1
                self._m_hits.inc()
                pre_finish = now
            elif in_flight is not None:
                finish, success = in_flight
                stats.lookups += 1
                self._m_misses.inc()
                if success:
                    # Coalesced into the running pre-download; counts as
                    # a warm hit when it lands (pool semantics).
                    stats.lookups += 1
                    stats.hits += 1
                    self._m_hits.inc()
                    pre_finish = finish
                else:
                    stats.failures += 1
                    self._m_failures.inc()
                    stats.failures_by_class[klass] = \
                        stats.failures_by_class.get(klass, 0) + 1
                    stats.pre_speed.add(0.0)
                    stats.pre_delay.add(finish - now)
                    continue
            else:
                stats.lookups += 1
                self._m_misses.inc()
                if self.faults is None:
                    outcome = DownloadSession(
                        source, record.size, CLOUD_VANTAGE,
                        limits=SessionLimits(
                            rate_caps=(
                                self.config.predownloader_bandwidth,),
                            stagnation_timeout=self.config
                            .stagnation_timeout),
                    ).simulate(session_rng)
                    stats.attempts += 1
                    self._m_attempts.inc()
                else:
                    # Chaos campaign: one or more session attempts with
                    # fault windows and (optional) recovery folded into
                    # a single merged outcome.  Per-attempt counters are
                    # kept inside the helper.
                    outcome = self._chaos_attempt(record, source,
                                                  session_rng, chaos_rng,
                                                  now, stats)
                finish = now + outcome.duration
                stats.pre_traffic_bytes += outcome.traffic
                stats.pre_speed.add(outcome.average_rate)
                stats.pre_delay.add(outcome.duration)
                if self.config.collaborative_cache:
                    in_flight = (finish, outcome.success)
                if not outcome.success:
                    if self.faults is None:
                        stats.attempt_failures += 1
                    stats.failures += 1
                    self._m_failures.inc()
                    stats.failures_by_class[klass] = \
                        stats.failures_by_class.get(klass, 0) + 1
                    continue
                pre_finish = finish

            self._fetch(record, request, pre_finish, now, fetch_rng,
                        user_lookup, stats, flows, chaos_rng)

    def _source_for(self, record: CatalogFile) -> ContentSource:
        return self.source_model.build(record.file_id, record.protocol,
                                       record.weekly_demand)

    # -- chaos (fault-injected) variants ------------------------------------------

    def _chaos_attempt(self, record: CatalogFile, source: ContentSource,
                       rng: np.random.Generator,
                       jitter: np.random.Generator, now: float,
                       stats: ShardRunStats) -> DownloadOutcome:
        """Analytic-clock twin of the engine's resilient pre-download.

        Runs session attempts on a local clock starting at ``now``:
        a ``vm_stall`` window blocks the attempt (wait-it-out under
        retry policies, stagnation-death otherwise), an active
        ``seed_death`` window forces a mid-transfer failure on P2P
        files, and a window *opening* mid-attempt truncates it at the
        window start.  With checkpoint-resume on, restarted attempts
        fetch only the uncommitted remainder.  Returns one merged
        outcome whose duration spans the whole campaign.
        """
        inj = self.faults
        assert inj is not None
        policies = self.policies
        retry = policies.retry if policies is not None else None
        resume = policies is not None and policies.checkpoint_resume
        limits = SessionLimits(
            rate_caps=(self.config.predownloader_bandwidth,),
            stagnation_timeout=self.config.stagnation_timeout)
        break_kinds = ("vm_stall", "seed_death") if record.is_p2p \
            else ("vm_stall",)
        committed = 0.0
        clock = now
        total_traffic = 0.0
        peak = 0.0
        attempt = 0
        impacted = False
        while True:
            attempt += 1
            stall = inj.active("vm_stall", record.file_id, clock)
            if stall is not None:
                impacted = True
                inj.impact(stall)
                stats.fault_impacts += 1
                if retry is not None and retry.allows(attempt + 1):
                    inj.retry("scale-pre")
                    stats.fault_retries += 1
                    clock = inj.clear_time(("vm_stall",), record.file_id,
                                           clock) \
                        + retry.backoff(attempt, jitter)
                    continue
                clock += self.config.stagnation_timeout
                inj.abort("scale-pre")
                stats.fault_aborts += 1
                return DownloadOutcome(
                    success=False, duration=clock - now,
                    bytes_obtained=committed, file_size=record.size,
                    average_rate=0.0, peak_rate=peak,
                    traffic=total_traffic, failure_cause="fault:vm_stall")
            remaining = record.size - committed if resume \
                else record.size
            dead = record.is_p2p and inj.active(
                "seed_death", record.file_id, clock) is not None
            outcome = DownloadSession(
                source, remaining, CLOUD_VANTAGE, limits=limits,
                mid_failure_probability=1.0 if dead else None,
            ).simulate(rng)
            stats.attempts += 1
            self._m_attempts.inc()
            brk = inj.next_break(break_kinds, record.file_id, clock,
                                 clock + outcome.duration)
            if brk is None:
                attempt_out = outcome
                clock += outcome.duration
                fault = None
            else:
                fault = brk
                impacted = True
                inj.impact(brk)
                stats.fault_impacts += 1
                elapsed = brk.start - clock
                frac = min(elapsed / outcome.duration, 1.0) \
                    if outcome.duration > 0 else 1.0
                moved = min(outcome.average_rate * elapsed, remaining)
                attempt_out = DownloadOutcome(
                    success=False, duration=elapsed,
                    bytes_obtained=moved, file_size=remaining,
                    average_rate=outcome.average_rate,
                    peak_rate=outcome.peak_rate,
                    traffic=outcome.traffic * frac,
                    failure_cause=f"fault:{brk.kind}")
                clock = brk.start
            total_traffic += attempt_out.traffic
            peak = max(peak, attempt_out.peak_rate)
            if resume:
                committed = min(committed + attempt_out.bytes_obtained,
                                record.size)
            if attempt_out.success:
                duration = clock - now
                if impacted:
                    inj.recover("scale-pre", duration)
                    stats.fault_recoveries += 1
                return DownloadOutcome(
                    success=True, duration=duration,
                    bytes_obtained=record.size, file_size=record.size,
                    average_rate=record.size / duration
                    if duration > 0 else attempt_out.average_rate,
                    peak_rate=peak, traffic=total_traffic)
            stats.attempt_failures += 1
            if retry is not None and retry.allows(attempt + 1):
                inj.retry("scale-pre")
                stats.fault_retries += 1
                wait = retry.backoff(attempt, jitter)
                if fault is not None:
                    wait += max(inj.clear_time((fault.kind,),
                                               record.file_id, clock)
                                - clock, 0.0)
                clock += wait
                continue
            if impacted:
                inj.abort("scale-pre")
                stats.fault_aborts += 1
            return DownloadOutcome(
                success=False, duration=clock - now,
                bytes_obtained=committed if resume
                else attempt_out.bytes_obtained,
                file_size=record.size,
                average_rate=attempt_out.average_rate, peak_rate=peak,
                traffic=total_traffic,
                failure_cause=attempt_out.failure_cause)

    def _alternate_path(self, user_isp: ISP, down: frozenset[str]
                        ) -> Optional[tuple[ISP, PathQuality]]:
        """Lowest-latency non-crashed server group (failover target)."""
        candidates = [isp for isp in MAJOR_ISPS
                      if isp.value not in down]
        if not candidates:
            return None
        server = min(candidates,
                     key=lambda isp: self.topology.path_quality(
                         isp, user_isp).latency_ms)
        return server, self.topology.path_quality(server, user_isp)

    def _chaos_fetch(self, record: CatalogFile, request: RequestRecord,
                     pre_finish: float, request_time: float, start: float,
                     user: User, server: ISP, quality: PathQuality,
                     rng: np.random.Generator,
                     jitter: np.random.Generator,
                     stats: ShardRunStats,
                     flows: list[tuple[float, float, float]]) -> None:
        """The user fetch under fault injection.

        A crashed home group either fails over to the lowest-latency
        healthy group (policies with failover), waits out the crash
        window (retry policies), or blocks the fetch entirely (policies
        off).  A crash window opening mid-flow truncates it; committed
        bytes survive under checkpoint-resume.  ``isp_degrade`` scales
        the achieved rate.
        """
        inj = self.faults
        assert inj is not None
        policies = self.policies
        retry = policies.retry if policies is not None else None
        resume = policies is not None and policies.checkpoint_resume
        clock = start
        committed = 0.0
        attempt = 0
        impacted = False
        stats.fetch_count += 1
        self._m_fetches.inc()
        while True:
            attempt += 1
            down = inj.crashed_isps(clock)
            path_server, path_quality = server, quality
            if path_server.value in down:
                impacted = True
                spec = inj.active("server_crash", path_server.value,
                                  clock)
                if spec is not None:
                    inj.impact(spec)
                    stats.fault_impacts += 1
                alt = self._alternate_path(user.isp, down) \
                    if policies is not None and policies.failover \
                    else None
                if alt is not None:
                    inj.failover("scale-fetch")
                    stats.fault_failovers += 1
                    path_server, path_quality = alt
                elif retry is not None and retry.allows(attempt + 1):
                    inj.retry("scale-fetch")
                    stats.fault_retries += 1
                    clock = inj.clear_time(("server_crash",),
                                           path_server.value, clock) \
                        + retry.backoff(attempt, jitter)
                    continue
                else:
                    # The group is dark and nothing recovers: the fetch
                    # is blocked outright (0 B/s, impeded).
                    inj.abort("scale-fetch")
                    stats.fault_aborts += 1
                    stats.fetch_speed.add(0.0)
                    stats.fetch_delay.add(0.0)
                    stats.e2e_delay.add(pre_finish - request_time)
                    stats.impeded_fetches += 1
                    stats.payload_bytes += committed
                    return
            factor = inj.factor("isp_degrade", path_server.value, clock)
            rate = min(self.fetch_model.sample_speed(
                user.access_bandwidth, path_quality, rng),
                self.config.max_fetch_rate) * factor
            remaining = record.size - committed if resume \
                else record.size
            duration = remaining / rate if rate > 0 else 0.0
            brk = inj.next_break(("server_crash",), path_server.value,
                                 clock, clock + duration)
            if brk is None:
                flows.append((clock, clock + duration, rate))
                clock += duration
                total = clock - start
                speed = record.size / total if total > 0 else rate
                stats.fetch_speed.add(speed)
                stats.fetch_delay.add(total)
                stats.e2e_delay.add((pre_finish - request_time) + total)
                if speed < IMPEDED_FETCH_THRESHOLD:
                    stats.impeded_fetches += 1
                stats.payload_bytes += record.size
                stats.traffic_bytes += record.size * float(
                    rng.uniform(1.07, 1.10))
                if impacted:
                    inj.recover("scale-fetch", total)
                    stats.fault_recoveries += 1
                return
            impacted = True
            inj.impact(brk)
            stats.fault_impacts += 1
            moved = min(rate * (brk.start - clock), remaining)
            flows.append((clock, brk.start, rate))
            if resume:
                committed = min(committed + moved, record.size)
            clock = brk.start
            if retry is not None and retry.allows(attempt + 1):
                inj.retry("scale-fetch")
                stats.fault_retries += 1
                clock = inj.clear_time(("server_crash",),
                                       path_server.value, clock) \
                    + retry.backoff(attempt, jitter)
                continue
            inj.abort("scale-fetch")
            stats.fault_aborts += 1
            total = clock - start
            stats.fetch_speed.add(0.0)
            stats.fetch_delay.add(total)
            stats.e2e_delay.add((pre_finish - request_time) + total)
            stats.impeded_fetches += 1
            stats.payload_bytes += committed
            return

    def _fetch(self, record: CatalogFile, request: RequestRecord,
               pre_finish: float, request_time: float,
               rng: np.random.Generator,
               user_lookup: Callable[[str], User],
               stats: ShardRunStats,
               flows: list[tuple[float, float, float]],
               jitter: Optional[np.random.Generator] = None) -> None:
        """The user's fetch after the think-time lag (never rejected)."""
        lag = self.config.fetch_lag_median * float(
            np.exp(rng.normal(0.0, self.config.fetch_lag_sigma)))
        start = pre_finish + lag
        user = user_lookup(request.user_id)
        server, quality = self._path_for(user.isp)
        if self.faults is not None:
            self._chaos_fetch(record, request, pre_finish, request_time,
                              start, user, server, quality, rng, jitter,
                              stats, flows)
            return
        rate = min(self.fetch_model.sample_speed(user.access_bandwidth,
                                                 quality, rng),
                   self.config.max_fetch_rate)
        duration = record.size / rate if rate > 0 else 0.0
        flows.append((start, start + duration, rate))
        stats.fetch_count += 1
        self._m_fetches.inc()
        stats.fetch_speed.add(rate)
        stats.fetch_delay.add(duration)
        stats.e2e_delay.add((pre_finish - request_time) + duration)
        if rate < IMPEDED_FETCH_THRESHOLD:
            stats.impeded_fetches += 1
        stats.payload_bytes += record.size
        stats.traffic_bytes += record.size * float(rng.uniform(1.07, 1.10))
