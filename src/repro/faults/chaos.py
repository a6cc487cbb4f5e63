"""The chaos driver: seeded fault campaigns over the cloud replay.

``python -m repro.faults`` generates one week, replays it through
:class:`~repro.cloud.system.XuanfengCloud` under a
:class:`~repro.faults.plan.FaultPlan` and emits a canonical JSON
report.  Two invariants make the report useful as a regression
artifact:

* *Determinism*: the report contains no wall-clock material, its keys
  are sorted, and every number derives from seeded computation -- two
  runs with the same plan/seed/scale are byte-identical (asserted by
  the CI chaos smoke job).
* *Comparability*: running with ``--policies both`` replays the *same*
  week under the *same* fault schedule twice, policies off and on, so
  the difference is purely what the resilience policies recovered.

This module imports :mod:`repro.cloud` (which imports
:mod:`repro.faults.injector`), so it must never be imported from
``repro.faults.__init__``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

import numpy as np

from repro.cloud.config import CloudConfig
from repro.cloud.system import CloudRunResult, XuanfengCloud
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, default_chaos_plan
from repro.faults.policies import DEFAULT_POLICIES
from repro.obs.registry import AnyRegistry, NOOP
from repro.workload.generator import (
    Workload,
    WorkloadConfig,
    WorkloadGenerator,
)

#: Quantiles summarised per distribution in the report.
REPORT_QUANTILES = (0.5, 0.9, 0.99)

#: Default workload knobs for ``python -m repro.faults``: small enough
#: for CI, large enough that every fault window catches real traffic.
DEFAULT_CHAOS_SCALE = 0.003
DEFAULT_WORKLOAD_SEED = 20150222

#: The scoreboard of a run with no fault plan.
_NO_FAULTS = {"injected": 0, "impacts": 0, "retries": 0, "failovers": 0,
              "aborts": 0, "recoveries": 0}


def _cdf_summary(cdf_of) -> dict:
    """Count, mean and :data:`REPORT_QUANTILES` of one of the result's
    distributions (``{"count": 0}`` when it is empty)."""
    try:
        cdf = cdf_of()
    except ValueError:
        return {"count": 0}
    return {
        "count": len(cdf),
        "mean": cdf.mean,
        "quantiles": {f"p{int(q * 100)}": cdf.quantile(q)
                      for q in REPORT_QUANTILES},
    }


def stats_report(result: CloudRunResult,
                 scoreboard: Optional[dict] = None) -> dict:
    """A deterministic, JSON-ready view of one replay and the fault
    injector's ``scoreboard`` (all zeros without a plan)."""
    table = result.table
    tasks = len(table.order)
    failures = int(np.count_nonzero(table.ordered("success") == 0))
    return {
        "tasks": tasks,
        "failures": failures,
        "failure_ratio": failures / tasks if tasks else 0.0,
        "failure_ratio_by_class": {
            klass.value: ratio for klass, ratio
            in sorted(result.failure_ratio_by_class().items(),
                      key=lambda item: item[0].value)},
        "cache_hits": int(np.count_nonzero(table.ordered("cache_hit"))),
        "cache_hit_ratio": result.cache_hit_ratio,
        "impeded_fetch_share": result.impeded_fetch_share,
        "rejection_ratio": result.rejection_ratio,
        "pre_speed": _cdf_summary(result.attempt_speed_cdf),
        "fetch_speed": _cdf_summary(result.fetch_speed_cdf),
        "e2e_delay": _cdf_summary(result.e2e_delay_cdf),
        "faults": dict(scoreboard or _NO_FAULTS),
    }


def generate_week(scale: float = DEFAULT_CHAOS_SCALE,
                  seed: int = DEFAULT_WORKLOAD_SEED) -> Workload:
    """The week every replay of a campaign runs over."""
    return WorkloadGenerator(WorkloadConfig(scale=scale,
                                            seed=seed)).generate()


def run_chaos(workload: Workload, *, plan: Optional[FaultPlan] = None,
              policies_on: bool = True, metrics: AnyRegistry = NOOP
              ) -> tuple[CloudRunResult, Optional[FaultInjector]]:
    """One cloud replay of ``workload`` under ``plan`` (or fault-free),
    with the default resilience policies on or off; returns the result
    and the injector (None without a plan)."""
    injector = FaultInjector(plan, metrics=metrics) \
        if plan is not None else None
    cloud = XuanfengCloud(CloudConfig(scale=workload.config.scale),
                          metrics=metrics, faults=injector,
                          policies=DEFAULT_POLICIES if policies_on
                          else None)
    return cloud.run(workload), injector


def chaos_campaign(scale: float = DEFAULT_CHAOS_SCALE,
                   seed: int = DEFAULT_WORKLOAD_SEED, *,
                   plan: Optional[FaultPlan] = None,
                   policies: str = "both",
                   metrics: AnyRegistry = NOOP) -> dict:
    """Run the requested campaign and build the canonical report.

    ``policies`` is ``"on"``, ``"off"``, or ``"both"``; with ``both``
    the same plan runs twice over the same week and the report carries
    both sections plus the recovery delta.
    """
    plan = plan if plan is not None else default_chaos_plan()
    workload = generate_week(scale, seed)
    report: dict = {
        "plan": {"name": plan.name, "seed": plan.seed,
                 "spec_count": len(plan.specs)},
        "workload": {"scale": scale, "seed": seed},
        "runs": {},
    }
    for label, policies_on in (("off", False), ("on", True)):
        if policies not in ("both", label):
            continue
        result, injector = run_chaos(workload, plan=plan,
                                     policies_on=policies_on,
                                     metrics=metrics)
        report["runs"][f"policies_{label}"] = stats_report(
            result, injector.scoreboard())
    if policies == "both":
        off_failures = report["runs"]["policies_off"]["failures"]
        on_failures = report["runs"]["policies_on"]["failures"]
        recovered = off_failures - on_failures
        report["recovery"] = {
            "policies_off_failures": off_failures,
            "policies_on_failures": on_failures,
            "recovered_tasks": recovered,
            "recovered_fraction": recovered / off_failures
            if off_failures else 0.0,
        }
    report["digest"] = report_digest(report)
    return report


def canonical_json(report: dict) -> str:
    """The byte-stable serialisation the CI smoke job diffs."""
    return json.dumps(report, sort_keys=True, indent=2)


def report_digest(report: dict) -> str:
    """SHA-256 over the canonical serialisation, digest field excluded."""
    body = {key: value for key, value in report.items()
            if key != "digest"}
    return hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()).hexdigest()
