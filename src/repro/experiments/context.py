"""The shared experiment context: one week, simulated once.

Most figures read from the same three artefacts -- the synthetic
workload, the cloud run over it, and the AP replay of the 1000-request
Unicom sample -- so the context builds each lazily and memoises.  A
module-level default context (keyed by scale and seed) lets independent
benchmark files share a single simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.ap.benchrig import ApBenchmarkReport, ApBenchmarkRig
from repro.cloud import CloudConfig, CloudRunResult, XuanfengCloud
from repro.obs.registry import AnyRegistry, NOOP
from repro.core import (
    CloudOnlyStrategy,
    OdrMiddleware,
    OdrReplayResult,
    OdrStrategy,
    ReplayEvaluator,
    SmartApOnlyStrategy,
)
from repro.workload import (
    Workload,
    WorkloadConfig,
    WorkloadGenerator,
    sample_benchmark_requests,
)
from repro.workload.records import RequestRecord

#: Default scale for experiment runs: 2% of the real week (~82 k tasks).
#: Below this the per-ISP upload pools hold only a handful of concurrent
#: flows and admission granularity inflates congestion artefacts.
DEFAULT_SCALE = 0.02
DEFAULT_SEED = 20150222


@dataclass(frozen=True)
class ExperimentFailure:
    """One experiment driver that raised instead of reporting.

    The runner degrades gracefully: a failing driver becomes one of
    these (error + formatted traceback), the remaining experiments
    still run, and the process exits non-zero at the end.
    """

    experiment_id: str
    error: str
    traceback: str


@dataclass
class ExperimentContext:
    """Lazily built shared artefacts for all experiment drivers."""

    scale: float = DEFAULT_SCALE
    seed: int = DEFAULT_SEED
    #: Observability registry shared by every artefact this context
    #: builds (cloud run, AP replay, ODR evaluations); the default NOOP
    #: keeps experiment/bench runs uninstrumented.
    metrics: AnyRegistry = field(default=NOOP, repr=False)
    #: Per-experiment wall-clock seconds, filled by the runner.
    timings: dict[str, float] = field(default_factory=dict, repr=False)
    #: Drivers that raised, in run order (graceful degradation).
    failures: list[ExperimentFailure] = field(default_factory=list,
                                              repr=False)
    _workload: Optional[Workload] = field(default=None, repr=False)
    _cloud: Optional[XuanfengCloud] = field(default=None, repr=False)
    _cloud_result: Optional[CloudRunResult] = field(default=None,
                                                    repr=False)
    _sample: Optional[list[RequestRecord]] = field(default=None,
                                                   repr=False)
    _ap_report: Optional[ApBenchmarkReport] = field(default=None,
                                                    repr=False)
    _odr_result: Optional[OdrReplayResult] = field(default=None,
                                                   repr=False)
    _cloud_only_result: Optional[OdrReplayResult] = field(default=None,
                                                          repr=False)
    _ap_only_result: Optional[OdrReplayResult] = field(default=None,
                                                       repr=False)

    @property
    def workload(self) -> Workload:
        if self._workload is None:
            config = WorkloadConfig(scale=self.scale, seed=self.seed)
            self._workload = WorkloadGenerator(config).generate()
        return self._workload

    @property
    def cloud(self) -> XuanfengCloud:
        if self._cloud is None:
            self.cloud_result  # building the result builds the cloud
        assert self._cloud is not None
        return self._cloud

    @property
    def cloud_result(self) -> CloudRunResult:
        if self._cloud_result is None:
            self._cloud = XuanfengCloud(CloudConfig(scale=self.scale),
                                        metrics=self.metrics)
            self._cloud_result = self._cloud.run(self.workload)
        return self._cloud_result

    @property
    def peak_heap_depth(self) -> float:
        """Deepest pending-event queue an instrumented simulation
        showed, among the samples the engine takes as each sim-time
        bin closes (and as a run starts and returns) -- not a
        per-event maximum."""
        if not self.metrics.enabled:
            return 0.0
        return max(self.metrics.gauge("repro_sim_heap_depth").peak, 0.0)

    @property
    def sample(self) -> list[RequestRecord]:
        """The 1000-request Unicom benchmark sample (section 5.1)."""
        if self._sample is None:
            self._sample = sample_benchmark_requests(self.workload, 1000)
        return self._sample

    @property
    def ap_report(self) -> ApBenchmarkReport:
        if self._ap_report is None:
            rig = ApBenchmarkRig(self.workload.catalog,
                                 metrics=self.metrics)
            self._ap_report = rig.replay(self.sample)
        return self._ap_report

    def evaluator(self) -> ReplayEvaluator:
        return ReplayEvaluator(self.workload.catalog,
                               self.cloud.database,
                               metrics=self.metrics)

    @property
    def odr_result(self) -> OdrReplayResult:
        if self._odr_result is None:
            strategy = OdrStrategy(OdrMiddleware(self.cloud.database))
            self._odr_result = self.evaluator().replay(self.sample,
                                                       strategy)
        return self._odr_result

    @property
    def cloud_only_result(self) -> OdrReplayResult:
        if self._cloud_only_result is None:
            strategy = CloudOnlyStrategy(self.cloud.database)
            self._cloud_only_result = self.evaluator().replay(
                self.sample, strategy)
        return self._cloud_only_result

    @property
    def ap_only_result(self) -> OdrReplayResult:
        if self._ap_only_result is None:
            self._ap_only_result = self.evaluator().replay(
                self.sample, SmartApOnlyStrategy())
        return self._ap_only_result

    def warm(self, *artefacts: str) -> None:
        """Build the named lazy artefacts up front (e.g. ``"workload"``,
        ``"cloud_result"``).  Used by the parallel group runner so each
        worker's heavy simulation happens in one predictable place."""
        for name in artefacts:
            getattr(self, name)


_CONTEXTS: dict[tuple[float, int], ExperimentContext] = {}


def default_context(scale: float = DEFAULT_SCALE,
                    seed: int = DEFAULT_SEED) -> ExperimentContext:
    """The shared memoised context for a (scale, seed) pair."""
    key = (scale, seed)
    if key not in _CONTEXTS:
        _CONTEXTS[key] = ExperimentContext(scale=scale, seed=seed)
    return _CONTEXTS[key]
