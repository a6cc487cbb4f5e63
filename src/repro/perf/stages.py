"""Canonical benchmark stages: what ``python -m repro.perf`` times.

Each :class:`Stage` builds a pair of zero-argument thunks for one
pipeline stage of the reproduction:

* ``optimized`` drives the live code path;
* ``baseline`` (where one exists) drives the frozen pre-optimisation
  implementation from :mod:`repro.perf.legacy`, fed the *same inputs*,
  so the measured ratio isolates exactly the PR 3 hot-path work.

Baselines come from two frozen snapshots: :mod:`repro.perf.legacy`
(pre-PR 3: scalar samplers, lambda-heap engine, uncached topology,
line-at-a-time IO) and :mod:`repro.perf.pr3` (pre-PR 8: the tuple-heap
engine without the same-instant dispatch queue, the per-fetch-sort
upload admission, and generator-coroutine cloud tasks).
``cloud_replay`` measures the full stack-up -- live engine + task
machine vs the pre-PR 3 everything -- while ``engine_dispatch``,
``cloud_fast_tasks`` and ``trace_columnar`` isolate the three PR 8
layers individually.  The faulted cloud replay and the AP and ODR
replay stages have no frozen counterpart (faulted cloud tasks ran on
generator coroutines that are no longer kept; the AP and ODR inner
loops are closed-form transfer arithmetic the optimisation PRs touched
only via shared records/samplers), so they are timed without a ratio
purely as regression tripwires.

Inputs are built *outside* the timed thunks (workloads, request
samples, cloud databases), so each thunk measures one stage, not its
setup.  Every stage pins the seeds it uses; the golden-digest tests
(``tests/test_perf_golden.py``) separately prove baseline and
optimized thunks produce bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

#: Seed shared by every stage (the repo-wide workload seed).
STAGE_SEED = 20150222

#: Requests replayed through the AP rig / ODR evaluator per run.
AP_SAMPLE = 400
ODR_SAMPLE = 400


@dataclass(frozen=True)
class StagePlan:
    """The built thunks for one stage at one scale."""

    optimized: Callable[[], object]
    baseline: Optional[Callable[[], object]] = None
    #: Human note explaining a missing baseline.
    note: str = ""


@dataclass(frozen=True)
class Stage:
    """One named benchmark stage.

    ``build(scale, scratch)`` constructs the stage inputs (untimed) and
    returns the timed thunks; ``scratch`` is a per-stage temporary
    directory for stages that touch the filesystem.
    """

    name: str
    title: str
    full_scale: float
    smoke_scale: float
    build: Callable[[float, Path], StagePlan] = field(repr=False)

    def scale_for(self, smoke: bool) -> float:
        return self.smoke_scale if smoke else self.full_scale


# -- stage builders ---------------------------------------------------------


def _make_workload(scale: float):
    from repro.workload.generator import WorkloadConfig, WorkloadGenerator

    config = WorkloadConfig(scale=scale, seed=STAGE_SEED)
    return WorkloadGenerator(config).generate()


def _build_generate(scale: float, scratch: Path) -> StagePlan:
    from repro.perf.legacy import legacy_generate
    from repro.workload.generator import WorkloadConfig, WorkloadGenerator

    config = WorkloadConfig(scale=scale, seed=STAGE_SEED)
    return StagePlan(
        optimized=lambda: WorkloadGenerator(config).generate(),
        baseline=lambda: legacy_generate(config),
    )


def _build_cloud(scale: float, scratch: Path) -> StagePlan:
    import repro.cloud.system as cloud_system

    from repro.cloud import CloudConfig, XuanfengCloud
    from repro.perf.legacy import LegacySimulator, LegacyTopology
    from repro.perf.pr3 import (
        Pr3Cloud,
        Pr3FetchSpeedModel,
        Pr3UploadingServers,
    )

    workload = _make_workload(scale)
    config = CloudConfig(scale=scale)

    def optimized():
        return XuanfengCloud(config).run(workload)

    def baseline():
        # The cloud builds its engine and admission tier via the
        # module-global ``Simulator``/``UploadingServers`` names and
        # creates every event through ``sim.event()``, so swapping the
        # globals is enough to run the whole replay on the frozen
        # stack: the pre-PR 3 engine and uncached topology plus the
        # pre-PR 8 admission tier (per-fetch candidate sort,
        # sample-object reservation history inside
        # ``Pr3UploadingServers``) and fetch-speed model, with tasks
        # run as the original generator coroutines (``Pr3Cloud``).
        originals = (cloud_system.Simulator, cloud_system.UploadingServers)
        cloud_system.Simulator = LegacySimulator
        cloud_system.UploadingServers = Pr3UploadingServers
        try:
            return Pr3Cloud(config, topology=LegacyTopology(),
                            fetch_model=Pr3FetchSpeedModel()
                            ).run(workload)
        finally:
            cloud_system.Simulator, cloud_system.UploadingServers = \
                originals

    return StagePlan(optimized=optimized, baseline=baseline)


def _build_ap(scale: float, scratch: Path) -> StagePlan:
    from repro.ap import ApBenchmarkRig
    from repro.workload import sample_benchmark_requests

    workload = _make_workload(scale)
    sample = sample_benchmark_requests(workload, AP_SAMPLE)
    catalog = workload.catalog
    return StagePlan(
        optimized=lambda: ApBenchmarkRig(catalog).replay(sample),
        note="no frozen baseline: the AP rig's inner loop is transfer "
             "arithmetic PR 3 did not rewrite; timed as a tripwire only",
    )


def _build_odr(scale: float, scratch: Path) -> StagePlan:
    from repro.cloud import CloudConfig, XuanfengCloud
    from repro.core import OdrMiddleware, OdrStrategy, ReplayEvaluator
    from repro.workload import sample_benchmark_requests

    workload = _make_workload(scale)
    cloud = XuanfengCloud(CloudConfig(scale=scale))
    cloud.run(workload)
    sample = sample_benchmark_requests(workload, ODR_SAMPLE)
    catalog = workload.catalog
    database = cloud.database

    def optimized():
        strategy = OdrStrategy(OdrMiddleware(database))
        return ReplayEvaluator(catalog, database).replay(sample, strategy)

    return StagePlan(
        optimized=optimized,
        note="no frozen baseline: ODR replay is closed-form session "
             "arithmetic over a pre-built database; timed as a tripwire "
             "only",
    )


def _build_engine(scale: float, scratch: Path) -> StagePlan:
    from repro.perf.pr3 import Pr3Simulator
    from repro.sim.engine import Simulator

    # A synthetic event storm shaped like the cloud replay's worst
    # case: a deep heap of far-future timers (session timeouts that
    # mostly never fire) underneath rounds of same-instant fan-out
    # (process starts, resumes, waiter wake-ups all at ``now``).  The
    # live engine drains the fan-out through its immediate queue; the
    # PR 3 engine pays a full heap push/pop against the ballast for
    # every one of them.
    ballast = max(16, int(scale * 1_000_000))
    rounds = max(8, int(scale * 100_000))
    fanout = 24

    def storm(make_sim) -> int:
        sim = make_sim()
        fired = [0]

        def leaf() -> None:
            fired[0] += 1

        def burst(remaining: int) -> None:
            for _ in range(fanout):
                sim.call_in(0.0, leaf)
            if remaining > 1:
                sim.call_in(1.0, burst, remaining - 1)

        for index in range(ballast):
            sim.call_at(1e9 + index, leaf)
        sim.call_in(1.0, burst, rounds)
        sim.run(until=float(rounds + 2))
        return fired[0]

    return StagePlan(
        optimized=lambda: storm(Simulator),
        baseline=lambda: storm(Pr3Simulator),
    )


def _build_fast_tasks(scale: float, scratch: Path) -> StagePlan:
    from repro.cloud import CloudConfig, XuanfengCloud
    from repro.perf.pr3 import Pr3Cloud

    # Same live engine, topology and admission on both sides; the only
    # difference is the task execution model, so the ratio isolates the
    # table-driven state machine against the generator coroutines.
    workload = _make_workload(scale)
    config = CloudConfig(scale=scale)
    return StagePlan(
        optimized=lambda: XuanfengCloud(config).run(workload),
        baseline=lambda: Pr3Cloud(config).run(workload),
    )


def _build_cloud_faulted(scale: float, scratch: Path) -> StagePlan:
    from repro.cloud import CloudConfig, XuanfengCloud
    from repro.faults import DEFAULT_POLICIES, FaultInjector
    from repro.faults.plan import default_chaos_plan

    # A fresh injector per run: it keeps the run's scoreboard.
    workload = _make_workload(scale)
    config = CloudConfig(scale=scale)
    plan = default_chaos_plan()
    return StagePlan(
        optimized=lambda: XuanfengCloud(
            config, faults=FaultInjector(plan),
            policies=DEFAULT_POLICIES).run(workload),
        note="no frozen baseline: faulted tasks ran on generator "
             "coroutines that are no longer kept; timed as a tripwire "
             "only",
    )


def _build_columnar(scale: float, scratch: Path) -> StagePlan:
    from repro.traceio import read_columnar, write_columnar
    from repro.workload.records import RequestRecord
    from repro.workload.traceio import read_jsonl, write_jsonl

    # Both encodings of the same request trace are written untimed so
    # the thunks measure the read path alone -- the asymmetric half:
    # traces are written once and replayed many times.
    requests = _make_workload(scale).requests
    columnar_path = scratch / "requests.col"
    jsonl_path = scratch / "requests.jsonl"
    write_columnar(columnar_path, requests, RequestRecord)
    write_jsonl(jsonl_path, requests)

    return StagePlan(
        optimized=lambda: read_columnar(columnar_path, RequestRecord),
        baseline=lambda: read_jsonl(jsonl_path, RequestRecord),
    )


def _build_trace(scale: float, scratch: Path) -> StagePlan:
    from repro.perf.legacy import legacy_read_jsonl, legacy_write_jsonl
    from repro.workload.records import RequestRecord
    from repro.workload.traceio import read_jsonl, write_jsonl

    # The request trace dominates a saved workload (one row per request
    # vs one per file/user), so the round-trip times that file alone.
    requests = _make_workload(scale).requests
    live_path = scratch / "requests.live.jsonl"
    legacy_path = scratch / "requests.legacy.jsonl"

    def optimized():
        write_jsonl(live_path, requests)
        return read_jsonl(live_path, RequestRecord)

    def baseline():
        legacy_write_jsonl(legacy_path, requests)
        return legacy_read_jsonl(legacy_path, RequestRecord)

    return StagePlan(optimized=optimized, baseline=baseline)


#: The canonical stage list, in pipeline order.  Full scales are sized
#: so the whole harness runs in a couple of minutes on a laptop; smoke
#: scales keep CI under ~30 s while still exercising every code path.
STAGES: dict[str, Stage] = {
    stage.name: stage for stage in (
        Stage(name="workload_generate",
              title="workload generation (catalog + users + requests)",
              full_scale=0.02, smoke_scale=0.002, build=_build_generate),
        Stage(name="engine_dispatch",
              title="engine event storm (same-instant dispatch vs "
                    "tuple heap)",
              full_scale=0.02, smoke_scale=0.002, build=_build_engine),
        Stage(name="cloud_replay",
              title="cloud replay (Xuanfeng pre-download week)",
              full_scale=0.02, smoke_scale=0.002, build=_build_cloud),
        Stage(name="cloud_fast_tasks",
              title="cloud task execution (state machine vs generator "
                    "coroutines)",
              full_scale=0.005, smoke_scale=0.002,
              build=_build_fast_tasks),
        Stage(name="cloud_replay_faulted",
              title="faulted cloud replay (week under the default chaos "
                    "plan)",
              full_scale=0.01, smoke_scale=0.002,
              build=_build_cloud_faulted),
        Stage(name="ap_replay",
              title=f"AP replay ({AP_SAMPLE}-request smart-AP benchmark)",
              full_scale=0.005, smoke_scale=0.002, build=_build_ap),
        Stage(name="odr_replay",
              title=f"ODR replay ({ODR_SAMPLE}-request end-to-end "
                    "evaluation)",
              full_scale=0.005, smoke_scale=0.002, build=_build_odr),
        Stage(name="trace_roundtrip",
              title="trace IO round-trip (request trace write + read)",
              full_scale=0.02, smoke_scale=0.002, build=_build_trace),
        Stage(name="trace_columnar",
              title="trace read (columnar memory-map vs JSONL parse)",
              full_scale=0.02, smoke_scale=0.002,
              build=_build_columnar),
    )
}
