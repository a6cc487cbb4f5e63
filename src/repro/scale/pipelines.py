"""The parallel AP replay: one worker process per benchmarked AP.

:func:`sharded_ap_replay` maps a module-level (spawn-picklable) worker
over the APs through :func:`~repro.scale.executor.durable_run` and
reassembles the sequential rig's report.  The result is invariant to
the number of worker processes -- asserted by ``tests/test_scale.py``
-- which is what makes ``repro ap --jobs`` a pure wall-clock knob.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.ap.benchrig import ApBenchmarkReport, ApBenchmarkRig
from repro.ap.models import BENCHMARKED_APS
from repro.ap.smartap import ApPreDownloadResult, SmartAP
from repro.obs.registry import AnyRegistry, NOOP
from repro.recovery.durable import RecoveryConfig
from repro.scale.executor import ScaleRunInfo, durable_run
from repro.transfer.source import SourceModel
from repro.workload.catalog import FileCatalog
from repro.workload.records import RequestRecord


@dataclass(frozen=True)
class ApReplayTask:
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
    ap_count: int
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
                      ) -> tuple[ApBenchmarkReport, ScaleRunInfo]:
    """Replay the AP campaign with one process per benchmarked AP.

    Results are reassembled into the sequential round-robin order, so
    the merged report is identical to ``ApBenchmarkRig.replay`` on the
    full request sequence (per-AP RNG streams and clocks are
    self-contained).  ``jobs`` caps worker processes; the fan-out is
    fixed at one task per AP.  Routed through
    :func:`~repro.recovery.durable.durable_map`, so a killed or hung
    worker costs a bounded requeue and ``recovery`` makes the campaign
    durable/resumable with per-AP checkpoints.

    ``requests_trace`` -- ``(path, row_indices)`` naming ``requests``'
    rows in a columnar ``.col`` trace -- switches the workers to
    zero-copy mode: each memory-maps the shared trace and decodes only
    its own slice instead of unpickling the request objects.  The
    replay itself (and its results) is identical either way.
    """
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
            ap_index=index, ap_count=ap_count, catalog_files=files,
            requests=(), seed=seed, throttle_to_user=throttle_to_user,
            requests_trace=(str(trace_path),
                            tuple(rows[index::ap_count])))
            for index in range(ap_count)
            if rows[index::ap_count]]
    else:
        tasks = [ApReplayTask(ap_index=index, ap_count=ap_count,
                              catalog_files=files,
                              requests=tuple(requests[index::ap_count]),
                              seed=seed,
                              throttle_to_user=throttle_to_user)
                 for index in range(ap_count)
                 if requests[index::ap_count]]
    results, info = durable_run(
        [f"ap-{task.ap_index:02d}" for task in tasks], tasks,
        ap_replay_worker, jobs=jobs, metrics=metrics, recovery=recovery,
        identity={"kind": "ap-replay", "seed": seed,
                  "throttle_to_user": throttle_to_user,
                  "requests": len(requests), "ap_count": ap_count})

    merged: list[Optional[ApPreDownloadResult]] = [None] * len(requests)
    for task, ap_results in zip(tasks, results):
        for position, result in enumerate(ap_results):
            merged[task.ap_index + position * ap_count] = result
    assert all(result is not None for result in merged)
    report = ApBenchmarkReport(list(merged))      # type: ignore[arg-type]
    _record_ap_metrics(report, metrics)
    return report, info


def _record_ap_metrics(report: ApBenchmarkReport,
                       metrics: AnyRegistry) -> None:
    """Mirror the sequential rig's instruments for a merged report."""
    if not metrics.enabled:
        return
    replays = metrics.counter("repro_ap_replays_total")
    iowait = metrics.histogram("repro_ap_iowait_ratio")
    write_rate = metrics.histogram(
        "repro_ap_write_throughput_bytes_per_second")
    for result in report.results:
        replays.inc()
        if result.record.success:
            iowait.observe(result.iowait_ratio)
            write_rate.observe(result.record.average_speed)
        else:
            metrics.counter(
                "repro_ap_failures_total",
                cause=result.record.failure_cause or "unknown").inc()
