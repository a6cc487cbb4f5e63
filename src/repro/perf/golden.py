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
generator-coroutine task path, ``engine_storm`` from the single-heap
engine that predates batched same-instant dispatch.

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
SHARDED_SCALE = 0.0008
SHARDED_SHARDS = 3
SAMPLER_DRAWS = 4000
#: Fleet size of the faulted cloud scenario that queues pre-downloads
#: for VM slots.
FAULTED_FLEET = 32


def digest(payload: Any) -> str:
    """SHA-256 over the canonical JSON form of ``payload``."""
    encoded = json.dumps(payload, sort_keys=True,
                         separators=(",", ":")).encode()
    return hashlib.sha256(encoded).hexdigest()


def workload_payload(workload) -> list:
    """Full content of a workload as JSON-ready rows."""
    return [
        [record.to_dict() for record in workload.catalog],
        [user.to_dict() for user in workload.users],
        [request.to_dict() for request in workload.requests],
    ]


# -- scenarios --------------------------------------------------------------


def workload_sequential() -> str:
    """The sequential generator's full output at the golden scale."""
    from repro.workload.generator import WorkloadConfig, WorkloadGenerator
    config = WorkloadConfig(scale=GOLDEN_SCALE, seed=GOLDEN_SEED)
    return digest(workload_payload(WorkloadGenerator(config).generate()))


def workload_sharded_jobs2() -> str:
    """The sharded generator, merged from 3 shards on 2 processes."""
    from repro.scale import ShardPlan, sharded_generate
    plan = ShardPlan(scale=SHARDED_SCALE, seed=GOLDEN_SEED,
                     shards=SHARDED_SHARDS)
    workload, _info = sharded_generate(plan, jobs=2)
    return digest(workload_payload(workload))


def cloud_payload(result) -> list:
    """Canonical JSON-ready form of one cloud replay's tasks + flows."""
    tasks = []
    for task in result.tasks:
        tasks.append([
            task.pre_record.to_dict(),
            task.fetch_record.to_dict() if task.fetch_record else None,
        ])
    flows = [[flow.start, flow.end, flow.rate, flow.highly_popular,
              flow.rejected] for flow in result.flows]
    return [tasks, flows]


def cloud_replay() -> str:
    """End-to-end cloud replay: every task and flow of a golden week."""
    from repro.cloud import CloudConfig, XuanfengCloud
    from repro.workload.generator import WorkloadConfig, WorkloadGenerator
    config = WorkloadConfig(scale=GOLDEN_SCALE, seed=GOLDEN_SEED)
    workload = WorkloadGenerator(config).generate()
    result = XuanfengCloud(CloudConfig(scale=GOLDEN_SCALE)).run(workload)
    return digest(cloud_payload(result))


def _faulted_cloud_replay(policies, predownloader_count=None) -> str:
    """The golden week under the default chaos plan.

    The plan is ``default_chaos_plan()``, which is what
    ``examples/chaos_plan.json`` holds.  Pins every task and flow plus
    the injector's scoreboard, so a change to any retry, failover,
    checkpoint or interrupt decision shows.
    """
    from repro.cloud import CloudConfig, XuanfengCloud
    from repro.faults import FaultInjector
    from repro.faults.plan import default_chaos_plan
    from repro.workload.generator import WorkloadConfig, WorkloadGenerator
    config = WorkloadConfig(scale=GOLDEN_SCALE, seed=GOLDEN_SEED)
    workload = WorkloadGenerator(config).generate()
    injector = FaultInjector(default_chaos_plan())
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
                    user_id=f"u-{label}",
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


def odr_strategy_replay() -> str:
    """The section 6.2 replay of all five strategies, outcomes and all.

    Pins the evaluator's RNG-consumption sequence per strategy, so the
    registry refactor cannot silently change what any legacy strategy
    executes on the testbed.
    """
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
        evaluator = ReplayEvaluator(workload.catalog, cloud.database)
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
    config = WorkloadConfig(scale=SHARDED_SCALE, seed=GOLDEN_SEED)
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
    config = WorkloadConfig(scale=SHARDED_SCALE, seed=GOLDEN_SEED)
    workload = WorkloadGenerator(config).generate()
    with tempfile.TemporaryDirectory() as scratch:
        save_workload(workload, scratch, compress=True)
        loaded = load_workload(scratch)
    return digest(workload_payload(loaded))


#: Scenario name -> digest function.  ``tests/test_perf_golden.py``
#: parametrises over this mapping.
SCENARIOS: dict[str, Callable[[], str]] = {
    "workload_sequential": workload_sequential,
    "workload_sharded_jobs2": workload_sharded_jobs2,
    "cloud_replay": cloud_replay,
    "cloud_replay_faulted": cloud_replay_faulted,
    "cloud_replay_faulted_bare": cloud_replay_faulted_bare,
    "cloud_replay_faulted_fleet": cloud_replay_faulted_fleet,
    "ap_replay": ap_replay,
    "ap_replay_faulted": ap_replay_faulted,
    "engine_trace": engine_trace,
    "engine_storm": engine_storm,
    "strategy_decisions": strategy_decisions,
    "odr_strategy_replay": odr_strategy_replay,
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
