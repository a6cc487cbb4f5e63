"""Golden determinism digests: what "same behaviour" means.

Every output surface of the simulator -- workload sampling, the event
engine, trace IO, the cloud, AP and ODR replays, faulted and fault-free
-- is pinned here by a SHA-256 digest of its canonicalised output.
``tests/test_perf_golden.py`` recomputes the digests in
``tests/data/golden_digests.json`` from the live code on every run, so
a change to a single output byte fails loudly.  Where the live code
replaced an older implementation, the digest was pinned from the older
one: the samplers, engine and trace IO from the scalar
pre-optimisation code, the ``cloud_replay_faulted*`` digests from the
generator-coroutine task path (``cloud_replay_faulted_dense`` from the
task machine that registered every wait with the fault injector;
``cloud_replay_faulted_broadcast`` is the live code's),
``cloud_replay_ablations`` from the
task machines that built a result object per task, ``engine_storm``
from the single-heap engine that predates batched same-instant dispatch,
``cloud_bandwidth_series`` from the per-(flow, bin) Python loop, the
``backend_matrix*`` digests from shards that each regenerated their
week, ``odr_webapp_decide`` from the
``json.dumps(payload, indent=2)`` rendering of the decision body, and
``cloud_metrics`` from the per-event engine and per-task cloud
instruments that predate reading those counts off the run state.

Regenerate (only when an output change is intended and understood)::

    PYTHONPATH=src python -m repro.perf.golden --write tests/data/golden_digests.json
"""

from __future__ import annotations

import gzip
import hashlib
import json
import tempfile
from pathlib import Path
from typing import Any, Callable

#: Dimensions of the golden scenarios; small enough to run in seconds,
#: large enough to hit every sampling branch (all three popularity
#: classes, both size classes, retries of the fetch-at-most-once draw).
GOLDEN_SCALE = 0.002
GOLDEN_SEED = 20150222
#: The smaller week of the trace IO scenarios.
TRACE_SCALE = 0.0008
SAMPLER_DRAWS = 4000
#: Fleet size of the cloud scenarios that queue pre-downloads for VM
#: slots (faulted, and the fault-free ablation).
FAULTED_FLEET = 32
#: Every this-many-th ``/decide`` path of the golden week goes into the
#: webapp digest, once per registry policy.
WEBAPP_PATH_STRIDE = 40
#: The ``/decide`` 400s: missing link, unknown policy, bad ISP and an
#: unsupported link scheme.
WEBAPP_BAD_PATHS = (
    "/decide?popularity=3",
    "/decide?link=http%3A%2F%2Forigin%2Ff&policy=no-such-policy",
    "/decide?link=http%3A%2F%2Forigin%2Ff&isp=nowhere",
    "/decide?link=gopher%3A%2F%2Forigin%2Ff",
)
#: ``/decide`` requests with an ``odr_aux`` cookie, pinning its wire
#: format: bandwidth recalled, the AP triple recalled, the query
#: overriding the cookie, then the 400s of a malformed cookie field and
#: of a bad bandwidth in the query and in the cookie.
WEBAPP_COOKIE_CASES = (
    ("/decide?link=http://o/slow&popularity=3&cached=1&ap=hiwifi",
     "odr_aux=bandwidth_mbps=0.5"),
    ("/decide?link=magnet://o/xyz&popularity=200&bandwidth_mbps=20",
     "odr_aux=ap=newifi&device=usb-flash&filesystem=ntfs"),
    ("/decide?link=magnet://o/xyz&bandwidth_mbps=20&ap=hiwifi",
     "odr_aux=bandwidth_mbps=0.5&ap=newifi&device=sd"),
    ("/decide?link=http://o/f", "odr_aux=ap=hiwifi&device=floppy"),
    ("/decide?link=http://o/f&bandwidth_mbps=0", ""),
    ("/decide?link=http://o/f", "odr_aux=bandwidth_mbps=nan"),
)


def canonical_digest(payload: Any) -> str:
    """SHA-256 over the canonical (sorted, compact) JSON of ``payload``."""
    encoded = json.dumps(payload, sort_keys=True,
                         separators=(",", ":")).encode()
    return hashlib.sha256(encoded).hexdigest()


def hex_floats(value: Any) -> Any:
    """Floats as exact ``float.hex`` strings, so a digest has no
    formatting slack; dicts and lists are walked.  Two payloads then
    digest equal iff every count and every bit of every float agree."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: hex_floats(item) for key, item in value.items()}
    if isinstance(value, list):
        return [hex_floats(item) for item in value]
    return value


#: The golden scenarios' short name for :func:`canonical_digest`.
digest = canonical_digest


def workload_payload(workload) -> list:
    """Full content of a workload as JSON-ready rows."""
    return [
        [record.to_dict() for record in workload.catalog],
        [user.to_dict() for user in workload.users],
        [request.to_dict() for request in workload.requests],
    ]


# -- scenarios --------------------------------------------------------------


def workload_sequential() -> str:
    """The sequential generator's week at the golden scale: every
    catalog file, user and request row, as :func:`workload_payload`
    lists them (each request row built from the generated columns)."""
    from repro.workload.generator import WorkloadConfig, WorkloadGenerator
    config = WorkloadConfig(scale=GOLDEN_SCALE, seed=GOLDEN_SEED)
    return digest(workload_payload(WorkloadGenerator(config).generate()))


def cloud_payload(result) -> list:
    """Canonical JSON-ready form of one cloud replay's tasks + flows:
    each task's pre-download and fetch record, in completion order (as
    ``result.tasks`` lists them)."""
    table = result.table
    tasks = []
    for idx in table.order:
        fetch = table.fetch_record(idx)
        tasks.append([table.pre_record(idx).to_dict(),
                      fetch.to_dict() if fetch else None])
    flows = [[flow.start, flow.end, flow.rate, flow.highly_popular,
              flow.rejected] for flow in result.flows]
    return [tasks, flows]


def _golden_cloud_result():
    from repro.cloud import CloudConfig, XuanfengCloud
    from repro.workload.generator import WorkloadConfig, WorkloadGenerator
    config = WorkloadConfig(scale=GOLDEN_SCALE, seed=GOLDEN_SEED)
    workload = WorkloadGenerator(config).generate()
    return XuanfengCloud(CloudConfig(scale=GOLDEN_SCALE)).run(workload)


def cloud_replay() -> str:
    """End-to-end cloud replay: every task and flow of a golden week."""
    return digest(cloud_payload(_golden_cloud_result()))


def cloud_replay_ablations() -> str:
    """The golden week under each ablation of the cloud: ISP-blind
    server selection, no collaborative cache (so no coalescing), and a
    finite pre-downloader fleet (cache misses wait for a VM slot)."""
    from repro.cloud import CloudConfig, XuanfengCloud
    from repro.workload.generator import WorkloadConfig, WorkloadGenerator
    config = WorkloadConfig(scale=GOLDEN_SCALE, seed=GOLDEN_SEED)
    workload = WorkloadGenerator(config).generate()
    ablations = ({"privileged_paths": False},
                 {"collaborative_cache": False},
                 {"predownloader_count": FAULTED_FLEET})
    return digest([
        cloud_payload(XuanfengCloud(
            CloudConfig(scale=GOLDEN_SCALE, **ablation)).run(workload))
        for ablation in ablations])


def cloud_bandwidth_series() -> str:
    """The golden week's upload-burden series (Figure 11), all three
    flow selections, every bin's float exactly."""
    result = _golden_cloud_result()
    return digest([
        result.bandwidth_series().tolist(),
        result.bandwidth_series(only_highly_popular=True).tolist(),
        result.bandwidth_series(include_rejected=False).tolist(),
    ])


def _backend_matrix(faults: bool) -> str:
    from repro.backends.replay import compare
    return compare(scale=GOLDEN_SCALE, seed=GOLDEN_SEED, limit=200,
                   shards=3, faults=faults)["digest"]


def backend_matrix() -> str:
    """The (backend set, policy) scorecard over 200 golden trace rows."""
    return _backend_matrix(faults=False)


def backend_matrix_faulted() -> str:
    """The same scorecard routed under the default chaos plan."""
    return _backend_matrix(faults=True)


def dense_chaos_plan():
    """A fault plan that opens cloud windows every day of the week.

    Per day: a ``server_crash`` on each of the four ISPs separately
    (unicom's opens exactly at telecom's end, and mobile's second opens
    exactly at its first's end), ``file:*`` ``vm_stall`` and
    ``seed_death`` windows that hit a seeded fraction of files, an
    ``isp:*`` ``isp_degrade`` that overlaps the cernet crash, and
    ``pool_pressure``.  No crash targets more than one ISP.
    """
    from repro.faults import FaultPlan, FaultSpec
    from repro.sim.clock import DAY, HOUR
    specs = []
    for day in range(7):
        at = day * DAY
        specs += [
            FaultSpec("server_crash", "isp:telecom", at + 2.0 * HOUR,
                      1.5 * HOUR),
            FaultSpec("server_crash", "isp:unicom", at + 3.5 * HOUR,
                      1.0 * HOUR),
            FaultSpec("server_crash", "isp:mobile", at + 8.0 * HOUR,
                      1.0 * HOUR),
            FaultSpec("server_crash", "isp:mobile", at + 9.0 * HOUR,
                      2.0 * HOUR),
            FaultSpec("server_crash", "isp:cernet", at + 14.0 * HOUR,
                      0.75 * HOUR),
            FaultSpec("vm_stall", "file:*", at + 5.0 * HOUR, 0.75 * HOUR,
                      probability=0.4),
            FaultSpec("vm_stall", "file:*", at + 17.0 * HOUR, 0.5 * HOUR,
                      probability=0.3),
            FaultSpec("seed_death", "file:*", at + 11.0 * HOUR,
                      3.0 * HOUR, probability=0.5),
            FaultSpec("seed_death", "file:*", at + 20.0 * HOUR,
                      2.0 * HOUR, probability=0.35),
            FaultSpec("isp_degrade", "isp:*", at + 12.0 * HOUR,
                      6.0 * HOUR, severity=0.4),
            FaultSpec("pool_pressure", "*", at + 6.0 * HOUR, 4.0 * HOUR),
        ]
    return FaultPlan(name="dense-chaos", seed=20150667, specs=specs)


def broadcast_crash_plan():
    """A fault plan whose upload-server crashes darken several ISPs at
    once.

    Per day: an ``isp:*`` ``server_crash``, a ``*`` one, and an
    ``isp:*`` one gated to a seeded subset of the four groups.
    """
    from repro.faults import FaultPlan, FaultSpec
    from repro.sim.clock import DAY, HOUR
    specs = []
    for day in range(7):
        at = day * DAY
        specs += [
            FaultSpec("server_crash", "isp:*", at + 3.0 * HOUR, 1.0 * HOUR),
            FaultSpec("server_crash", "*", at + 13.0 * HOUR, 0.5 * HOUR),
            FaultSpec("server_crash", "isp:*", at + 20.0 * HOUR,
                      1.5 * HOUR, probability=0.5),
        ]
    return FaultPlan(name="broadcast-crash", seed=20150668, specs=specs)


def _faulted_cloud_replay(policies, predownloader_count=None,
                          plan=None) -> str:
    """The golden week under a chaos plan (by default
    ``default_chaos_plan()``, which is what ``examples/chaos_plan.json``
    holds).

    Pins every task and flow plus the injector's scoreboard, so a change
    to any retry, failover, checkpoint or interrupt decision shows.
    """
    from repro.cloud import CloudConfig, XuanfengCloud
    from repro.faults import FaultInjector
    from repro.faults.plan import default_chaos_plan
    from repro.workload.generator import WorkloadConfig, WorkloadGenerator
    config = WorkloadConfig(scale=GOLDEN_SCALE, seed=GOLDEN_SEED)
    workload = WorkloadGenerator(config).generate()
    injector = FaultInjector(plan if plan is not None
                             else default_chaos_plan())
    cloud = XuanfengCloud(
        CloudConfig(scale=GOLDEN_SCALE,
                    predownloader_count=predownloader_count),
        faults=injector, policies=policies)
    result = cloud.run(workload)
    return digest([cloud_payload(result), injector.scoreboard()])


def cloud_replay_faulted() -> str:
    """Faulted week with the default retry/failover/checkpoint policies."""
    from repro.faults import DEFAULT_POLICIES
    return _faulted_cloud_replay(DEFAULT_POLICIES)


def cloud_replay_faulted_bare() -> str:
    """Faulted week with no recovery: every impact ends its task."""
    return _faulted_cloud_replay(None)


def cloud_replay_faulted_fleet() -> str:
    """Faulted week on a finite pre-downloader fleet (slot waits)."""
    from repro.faults import DEFAULT_POLICIES
    return _faulted_cloud_replay(DEFAULT_POLICIES,
                                 predownloader_count=FAULTED_FLEET)


def cloud_replay_faulted_dense() -> str:
    """Faulted week under :func:`dense_chaos_plan`, default policies:
    back-to-back crash windows, gated file windows on every day."""
    from repro.faults import DEFAULT_POLICIES
    return _faulted_cloud_replay(DEFAULT_POLICIES, plan=dense_chaos_plan())


def cloud_replay_faulted_broadcast() -> str:
    """Faulted week under :func:`broadcast_crash_plan`, default
    policies: every upload group dark at once."""
    from repro.faults import DEFAULT_POLICIES
    return _faulted_cloud_replay(DEFAULT_POLICIES,
                                 plan=broadcast_crash_plan())


#: Metrics left out of ``cloud_metrics``: the engine's heap-depth gauge
#: and the pre-download queue-depth gauge are samples whose timing is
#: not part of the replay's behaviour.
UNPINNED_METRICS = ("repro_sim_heap_depth",
                    "repro_cloud_predownload_queue_depth")


def metrics_payload(registry) -> list:
    """Canonical JSON-ready form of a registry's export rows.

    Every instrument's summary row and every counter's and histogram's
    per-bin series, in sorted order, floats as exact hex.  Wall times
    are left out, as are the :data:`UNPINNED_METRICS` and a gauge's
    value and per-bin levels: a gauge pins only its peak.
    """
    rows = []
    for row in registry.to_rows():
        if row["type"] == "span" or row["metric"] in UNPINNED_METRICS:
            continue
        row = {key: value for key, value in row.items()
               if key != "wall_time"}
        if row["kind"] == "gauge":
            if row["type"] == "series":
                continue
            del row["value"]
        rows.append(hex_floats(row))
    return sorted(rows, key=lambda row: json.dumps(row, sort_keys=True))


def cloud_metrics() -> str:
    """The golden week's metrics from a live registry: fault-free, and
    under the default chaos plan with the default policies."""
    from repro.cloud import CloudConfig, XuanfengCloud
    from repro.faults import DEFAULT_POLICIES, FaultInjector
    from repro.faults.plan import default_chaos_plan
    from repro.obs import MetricsRegistry
    from repro.workload.generator import WorkloadConfig, WorkloadGenerator
    config = WorkloadConfig(scale=GOLDEN_SCALE, seed=GOLDEN_SEED)
    workload = WorkloadGenerator(config).generate()
    payloads = []
    for faulted in (False, True):
        registry = MetricsRegistry()
        injector = FaultInjector(default_chaos_plan(), metrics=registry) \
            if faulted else None
        XuanfengCloud(CloudConfig(scale=GOLDEN_SCALE), metrics=registry,
                      faults=injector,
                      policies=DEFAULT_POLICIES if faulted else None,
                      ).run(workload)
        payloads.append(metrics_payload(registry))
    return digest(payloads)


def ap_payload(results) -> list:
    """Canonical JSON-ready form of AP benchmark results."""
    return [[r.ap_name, r.record.to_dict()] for r in results]


def ap_replay() -> str:
    """The smart-AP benchmark rig over a 200-request golden sample."""
    from repro.ap import ApBenchmarkRig
    from repro.workload import sample_benchmark_requests
    from repro.workload.generator import WorkloadConfig, WorkloadGenerator
    config = WorkloadConfig(scale=GOLDEN_SCALE, seed=GOLDEN_SEED)
    workload = WorkloadGenerator(config).generate()
    sample = sample_benchmark_requests(workload, 200)
    report = ApBenchmarkRig(workload.catalog).replay(sample)
    return digest(ap_payload(report.results))


def ap_replay_faulted() -> str:
    """The AP golden sample under the default chaos plan.

    Replayed once with the default policies and once with none; pins
    every result plus each run's injector scoreboard.
    """
    from repro.ap import ApBenchmarkRig
    from repro.faults import DEFAULT_POLICIES, FaultInjector
    from repro.faults.plan import default_chaos_plan
    from repro.workload import sample_benchmark_requests
    from repro.workload.generator import WorkloadConfig, WorkloadGenerator
    config = WorkloadConfig(scale=GOLDEN_SCALE, seed=GOLDEN_SEED)
    workload = WorkloadGenerator(config).generate()
    sample = sample_benchmark_requests(workload, 200)
    rows = []
    for policies in (DEFAULT_POLICIES, None):
        injector = FaultInjector(default_chaos_plan())
        report = ApBenchmarkRig(workload.catalog, faults=injector,
                                policies=policies).replay(sample)
        rows.append([ap_payload(report.results), injector.scoreboard()])
    return digest(rows)


def engine_trace() -> str:
    """A scripted engine scenario covering every scheduling path.

    The trace pins: time ordering, same-instant scheduling order, event
    trigger fan-out order, waiter cancellation via interrupt (including
    a 50-process mass cancellation), waiting on finished processes and
    already-triggered events, error propagation, and ``run(until=...)``.
    """
    from repro.sim.engine import Interrupt, Simulator, Timeout
    sim = Simulator()
    trace: list = []

    gate = sim.event("gate")

    def waiter(tag):
        try:
            value = yield gate
            trace.append((sim.now, f"{tag}-resumed", value))
        except Interrupt as interrupt:
            trace.append((sim.now, f"{tag}-interrupted",
                          interrupt.cause))
            yield Timeout(5.0)
            trace.append((sim.now, f"{tag}-recovered", None))
        return tag

    waiters = [sim.process(waiter(f"w{i}"), name=f"w{i}")
               for i in range(6)]

    def child():
        yield Timeout(1.5)
        return "child-value"

    def parent():
        value = yield sim.process(child(), name="child")
        trace.append((sim.now, "parent-got", value))
        # Waiting on an already-finished process resumes immediately.
        done = sim.process(child_done(), name="child-done")
        yield Timeout(0.5)
        value = yield done
        trace.append((sim.now, "parent-got-finished", value))

    def child_done():
        if False:   # pragma: no cover - make this a generator
            yield
        return "already-done"

    sim.process(parent(), name="parent")

    def failing():
        yield Timeout(0.25)
        raise ValueError("model failure")

    def supervisor():
        try:
            yield sim.process(failing(), name="failing")
        except ValueError as error:
            trace.append((sim.now, "supervised", str(error)))

    sim.process(supervisor(), name="supervisor")

    # Interrupt two waiters before the gate opens; their removal must
    # not disturb the resume order of the remaining waiters.
    sim.call_at(1.0, waiters[1].interrupt, "cancelled-1")
    sim.call_at(1.0, waiters[3].interrupt, "cancelled-3")
    sim.call_at(2.0, gate.trigger, "go")

    # Same-instant callbacks fire in scheduling order.
    for index in range(4):
        sim.call_at(2.5, trace.append, (2.5, "tick", index))

    # Mass cancellation: 50 processes pile onto one event, all are
    # interrupted at once (the quadratic list.remove hot spot), and the
    # later trigger must find no waiters left.
    swarm_gate = sim.event("swarm")

    def swarm_member(tag):
        try:
            yield swarm_gate
            trace.append((sim.now, f"{tag}-leaked", None))
        except Interrupt:
            return None

    swarm = [sim.process(swarm_member(f"s{i}"), name=f"s{i}")
             for i in range(50)]

    def mass_cancel():
        yield Timeout(3.0)
        for process in swarm:
            process.interrupt("storm")
        trace.append((sim.now, "mass-cancelled", len(swarm)))

    sim.process(mass_cancel(), name="mass-cancel")
    sim.call_at(4.0, swarm_gate.trigger, None)

    # Waiting on an event that already triggered resumes immediately.
    def late_waiter():
        yield Timeout(4.5)
        value = yield gate
        trace.append((sim.now, "late-waiter", value))

    sim.process(late_waiter(), name="late")

    stop = sim.run(until=2.25)
    trace.append(("until", stop))
    final = sim.run()
    trace.append(("final", final))
    trace.append(("results", [process.result for process in waiters]))
    return digest(trace)


def engine_storm_log() -> list:
    """An adversarial same-instant event storm; returns its firing log.

    Immediates queued during a drain, ``call_at`` aimed at the current
    instant, and heap entries landing on the same timestamp as the next
    burst, so the batched immediate queue has to merge heap entries by
    sequence number to keep one global order.
    """
    from repro.sim.engine import Simulator
    sim = Simulator()
    log: list = []

    def leaf(tag):
        log.append((sim.now, tag))

    def burst(round_index):
        log.append((sim.now, f"burst-{round_index}"))
        # Immediates queued during the drain...
        for i in range(3):
            sim.call_in(0.0, leaf, f"r{round_index}-imm{i}")
        # ...a call_at aimed at the *current* instant (joins the
        # immediate queue, after the ones above)...
        sim.call_at(sim.now, leaf, f"r{round_index}-at-now")
        if round_index > 0:
            # ...and two entries for the *next* instant: the next
            # burst (lower seq) plus a timer landing at the same
            # timestamp from the heap (higher seq).  The heap entry
            # must fire after the burst but interleaved correctly
            # with the immediates the burst enqueues.
            sim.call_in(1.0, burst, round_index - 1)
            sim.call_at(sim.now + 1.0, leaf, f"r{round_index}-timer")
            sim.call_in(1.0, leaf, f"r{round_index}-late-timer")

    # Heap ballast scheduled before the clock moves: entries at t=1.0
    # with sequence numbers *below* everything the burst at t=1.0
    # creates, so they must fire first at that instant.
    sim.call_at(1.0, leaf, "pre-seeded-a")
    sim.call_in(1.0, burst, 3)
    sim.call_at(1.0, leaf, "pre-seeded-b")
    sim.run()
    return log


def engine_storm() -> str:
    """The same-instant storm's global firing order."""
    return digest(engine_storm_log())


def _strategy_fixture():
    """A deterministic (database, contexts, files) grid for the
    strategy-decision digests: every popularity class, both cache
    states, AP/no-AP, and bandwidth extremes."""
    import repro.ap.models as ap_models
    import repro.storage.device as storage_devices
    from repro.cloud.database import ContentDatabase
    from repro.core.auxiliary import SmartApInfo, UserContext
    from repro.netsim.ip import IpAllocator
    from repro.netsim.isp import ISP
    from repro.sim.clock import mbps
    from repro.storage.filesystem import Filesystem
    from repro.transfer.protocols import Protocol

    database = ContentDatabase()
    files = [("hot-cached", 200, True), ("hot-uncached", 200, False),
             ("pop-cached", 50, True), ("pop-uncached", 50, False),
             ("cold-cached", 3, True), ("cold-uncached", 3, False)]
    for file_id, popularity, cached in files:
        row = database.row(file_id, size=700e6)
        row.request_count = popularity
        row.cached = cached

    allocator = IpAllocator()
    aps = {
        "none": None,
        "hiwifi": SmartApInfo(ap_models.HIWIFI_1S,
                              ap_models.HIWIFI_1S.default_device,
                              ap_models.HIWIFI_1S.default_filesystem),
        "newifi-fat": SmartApInfo(ap_models.NEWIFI,
                                  storage_devices.USB_FLASH_8GB,
                                  Filesystem("fat")),
    }
    contexts = []
    for isp in (ISP.UNICOM, ISP.TELECOM, ISP.CERNET):
        for bw_name, bandwidth in (("none", None), ("slow", mbps(2.0)),
                                   ("mid", mbps(20.0)),
                                   ("fast", mbps(100.0))):
            for ap_name, smart_ap in aps.items():
                label = f"{isp.value}/{bw_name}/{ap_name}"
                contexts.append((label, UserContext(
                    ip_address=allocator.allocate(isp),
                    access_bandwidth=bandwidth, smart_ap=smart_ap)))
    protocols = (Protocol.HTTP, Protocol.BITTORRENT)
    return database, contexts, [f for f, _p, _c in files], protocols


def _strategies_under_test(database):
    from repro.core.odr import OdrMiddleware
    from repro.core.strategies import (
        AlwaysHybridStrategy,
        AmsStrategy,
        CloudOnlyStrategy,
        OdrStrategy,
        SmartApOnlyStrategy,
    )
    return [CloudOnlyStrategy(database), SmartApOnlyStrategy(),
            AlwaysHybridStrategy(database), AmsStrategy(database),
            OdrStrategy(OdrMiddleware(database))]


def strategy_decisions() -> str:
    """Every legacy strategy over the full decision grid.

    Pinned *before* the strategies were rerouted through the
    ``repro.backends`` registry; the registry-backed implementations
    must keep reproducing these decisions byte for byte.
    """
    database, contexts, file_ids, protocols = _strategy_fixture()
    rows = []
    for strategy in _strategies_under_test(database):
        for label, context in contexts:
            for file_id in file_ids:
                for protocol in protocols:
                    decision = strategy.decide(context, file_id,
                                               protocol)
                    rows.append([strategy.name, label, file_id,
                                 protocol.value, decision.action.value,
                                 decision.data_source.value,
                                 list(decision.bottlenecks_addressed),
                                 decision.rationale])
                for success in (True, False):
                    after = strategy.decide_after_predownload(
                        context, file_id, success)
                    rows.append([strategy.name, label, file_id,
                                 "after-predownload", success,
                                 after.action.value,
                                 after.data_source.value,
                                 list(after.bottlenecks_addressed),
                                 after.rationale])
    return digest(rows)


def _odr_strategy_replay(policies) -> str:
    from repro.cloud import CloudConfig, XuanfengCloud
    from repro.core.replay import ReplayEvaluator
    from repro.workload import sample_benchmark_requests
    from repro.workload.generator import WorkloadConfig, WorkloadGenerator
    config = WorkloadConfig(scale=GOLDEN_SCALE, seed=GOLDEN_SEED)
    workload = WorkloadGenerator(config).generate()
    cloud = XuanfengCloud(CloudConfig(scale=GOLDEN_SCALE))
    cloud.run(workload)
    sample = sample_benchmark_requests(workload, 150)
    rows = []
    for strategy in _strategies_under_test(cloud.database):
        evaluator = ReplayEvaluator(workload.catalog, cloud.database,
                                    policies=policies)
        result = evaluator.replay(sample, strategy)
        for outcome in result.outcomes:
            rows.append([strategy.name, outcome.request.file_id,
                         outcome.decision.action.value,
                         outcome.decision.data_source.value,
                         outcome.success,
                         outcome.wan_speed.hex(),
                         outcome.user_speed.hex(),
                         outcome.cloud_delivered_bytes.hex(),
                         outcome.cloud_seeding_bytes.hex(),
                         outcome.write_path_limited,
                         outcome.failure_cause])
    return digest(rows)


def odr_strategy_replay() -> str:
    """The section 6.2 replay of all five strategies, outcomes and all.

    Pins the evaluator's RNG-consumption sequence per strategy, so the
    registry refactor cannot silently change what any legacy strategy
    executes on the testbed.
    """
    return _odr_strategy_replay(None)


def odr_strategy_replay_failover() -> str:
    """The same replay with the smart-AP circuit breaker armed.

    Under ``DEFAULT_POLICIES`` a run of smart-AP failures opens each
    strategy's breaker and later smart-AP routes fail over to the
    cloud (``smart-ap-only`` fails over on the golden sample).
    """
    from repro.faults import DEFAULT_POLICIES
    return _odr_strategy_replay(DEFAULT_POLICIES)


def odr_webapp_decide() -> str:
    """The wire responses of ``OdrWebApp.handle_batch`` for ``/decide``.

    A stride sample of the golden week's trace paths under every
    registry policy, the 400 cases, and the ``odr_aux`` cookie cases.
    Status, content type, body, set-cookie and headers are all pinned,
    so neither the rendered JSON body nor the cookie can move by a
    byte.
    """
    from repro.backends.registry import strategy_names
    from repro.core.webapp import OdrWebApp
    from repro.loadgen.trace import workload_paths
    from repro.workload.generator import WorkloadConfig, WorkloadGenerator
    config = WorkloadConfig(scale=GOLDEN_SCALE, seed=GOLDEN_SEED)
    paths = workload_paths(WorkloadGenerator(config).generate())
    sample = paths[::WEBAPP_PATH_STRIDE]
    app = OdrWebApp()
    rows = []
    for policy in strategy_names():
        rows += app.handle_batch([(f"{path}&policy={policy}", "")
                                  for path in sample])
    rows += app.handle_batch([(path, "") for path in WEBAPP_BAD_PATHS])
    rows += app.handle_batch(list(WEBAPP_COOKIE_CASES))
    return digest([list(row) for row in rows])


def sampler_popularity() -> str:
    import numpy as np
    from repro.workload.popularity import PopularityModel
    model = PopularityModel()
    rng = np.random.default_rng(GOLDEN_SEED)
    return digest([model.sample_weekly_demand(rng)
                   for _ in range(SAMPLER_DRAWS)])


def sampler_sizes() -> str:
    import numpy as np
    from repro.workload.sizes import FileSizeModel
    model = FileSizeModel()
    rng = np.random.default_rng(GOLDEN_SEED)
    draws = [list(model.sample(rng)) for _ in range(SAMPLER_DRAWS)]
    batch = model.sample_many(200, np.random.default_rng(GOLDEN_SEED))
    return digest([draws, batch.tolist()])


def sampler_filetypes() -> str:
    import numpy as np
    from repro.workload.filetypes import FileTypeModel
    model = FileTypeModel()
    rng = np.random.default_rng(GOLDEN_SEED)
    return digest([model.sample(index % 4 == 0, rng).value
                   for index in range(SAMPLER_DRAWS)])


def sampler_isp() -> str:
    import numpy as np
    from repro.netsim.isp import default_registry
    registry = default_registry()
    rng = np.random.default_rng(GOLDEN_SEED)
    return digest([registry.sample_isp(rng).value
                   for _ in range(SAMPLER_DRAWS)])


def sampler_bandwidth() -> str:
    import numpy as np
    from repro.netsim.link import AccessBandwidthModel
    model = AccessBandwidthModel()
    rng = np.random.default_rng(GOLDEN_SEED)
    return digest([model.sample_downstream(rng)
                   for _ in range(SAMPLER_DRAWS)])


def sampler_arrivals() -> str:
    import numpy as np
    from repro.workload.arrivals import ArrivalProcess
    process = ArrivalProcess()
    rng = np.random.default_rng(GOLDEN_SEED)
    return digest(process.sample_times(SAMPLER_DRAWS, rng).tolist())


def sampler_topology() -> str:
    from repro.netsim.isp import default_registry
    from repro.netsim.topology import ChinaTopology
    topology = ChinaTopology()
    rows = []
    for src in default_registry().isps():
        for dst in default_registry().isps():
            quality = topology.path_quality(src, dst)
            rows.append([src.value, dst.value, quality.cap_median,
                         quality.cap_sigma, quality.latency_ms,
                         quality.hops])
    return digest(rows)


def traceio_bytes() -> str:
    """Exact file bytes written by the trace writers (gz: decompressed)."""
    from repro.workload.generator import WorkloadConfig, WorkloadGenerator
    from repro.workload.traceio import write_jsonl
    config = WorkloadConfig(scale=TRACE_SCALE, seed=GOLDEN_SEED)
    workload = WorkloadGenerator(config).generate()
    with tempfile.TemporaryDirectory() as scratch:
        plain = Path(scratch) / "requests.jsonl"
        packed = Path(scratch) / "requests.jsonl.gz"
        write_jsonl(plain, workload.requests)
        write_jsonl(packed, workload.requests)
        plain_hash = hashlib.sha256(plain.read_bytes()).hexdigest()
        packed_hash = hashlib.sha256(
            gzip.decompress(packed.read_bytes())).hexdigest()
    return digest([plain_hash, packed_hash])


def traceio_roundtrip() -> str:
    """Records surviving a save/load round trip unchanged."""
    from repro.workload.generator import WorkloadConfig, WorkloadGenerator
    from repro.workload.traceio import load_workload, save_workload
    config = WorkloadConfig(scale=TRACE_SCALE, seed=GOLDEN_SEED)
    workload = WorkloadGenerator(config).generate()
    with tempfile.TemporaryDirectory() as scratch:
        save_workload(workload, scratch, compress=True)
        loaded = load_workload(scratch)
    return digest(workload_payload(loaded))


#: Scenario name -> digest function.  ``tests/test_perf_golden.py``
#: parametrises over this mapping.
SCENARIOS: dict[str, Callable[[], str]] = {
    "workload_sequential": workload_sequential,
    "cloud_replay": cloud_replay,
    "cloud_bandwidth_series": cloud_bandwidth_series,
    "cloud_replay_ablations": cloud_replay_ablations,
    "cloud_replay_faulted": cloud_replay_faulted,
    "cloud_replay_faulted_bare": cloud_replay_faulted_bare,
    "cloud_replay_faulted_fleet": cloud_replay_faulted_fleet,
    "cloud_replay_faulted_dense": cloud_replay_faulted_dense,
    "cloud_replay_faulted_broadcast": cloud_replay_faulted_broadcast,
    "cloud_metrics": cloud_metrics,
    "ap_replay": ap_replay,
    "ap_replay_faulted": ap_replay_faulted,
    "engine_trace": engine_trace,
    "engine_storm": engine_storm,
    "strategy_decisions": strategy_decisions,
    "backend_matrix": backend_matrix,
    "backend_matrix_faulted": backend_matrix_faulted,
    "odr_strategy_replay": odr_strategy_replay,
    "odr_strategy_replay_failover": odr_strategy_replay_failover,
    "odr_webapp_decide": odr_webapp_decide,
    "sampler_popularity": sampler_popularity,
    "sampler_sizes": sampler_sizes,
    "sampler_filetypes": sampler_filetypes,
    "sampler_isp": sampler_isp,
    "sampler_bandwidth": sampler_bandwidth,
    "sampler_arrivals": sampler_arrivals,
    "sampler_topology": sampler_topology,
    "traceio_bytes": traceio_bytes,
    "traceio_roundtrip": traceio_roundtrip,
}


def compute_all() -> dict[str, str]:
    return {name: scenario() for name, scenario in SCENARIOS.items()}


def main(argv: list[str] | None = None) -> int:
    import argparse
    parser = argparse.ArgumentParser(
        description="Recompute the golden determinism digests")
    parser.add_argument("--write", type=Path, default=None,
                        help="write digests to this JSON file instead "
                             "of printing them")
    args = parser.parse_args(argv)
    digests = compute_all()
    rendered = json.dumps(digests, indent=2, sort_keys=True) + "\n"
    if args.write:
        from repro.recovery.atomic import atomic_write_text
        atomic_write_text(args.write, rendered)
        print(f"wrote {len(digests)} digests to {args.write}")
    else:
        print(rendered, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
