"""Resilience scorecard: how much of the chaos damage the policies undo.

Runs the same fault plan twice over one generated week's cloud replay
-- policies off, then on -- and scores the delta::

    PYTHONPATH=src python -m repro.experiments.resilience_scorecard \
        --scale 0.002 --out resilience_scorecard.json

The script is deliberately *not* a registered experiment driver: the
EXPERIMENTS.md pipeline reproduces the paper's (fault-free) numbers,
while this scorecard is the repo's own robustness regression gate.  It
exits non-zero unless

* the policies-on run recovers a strictly positive fraction of the
  policies-off failures, and
* the fault-free chaos-driver baseline is identical to a plain
  :class:`~repro.cloud.system.XuanfengCloud` replay of the same week
  (the injection machinery is provably inert when no plan is loaded).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.cloud import CloudConfig, XuanfengCloud
from repro.faults.chaos import (
    DEFAULT_CHAOS_SCALE,
    DEFAULT_WORKLOAD_SEED,
    canonical_json,
    chaos_campaign,
    generate_week,
    run_chaos,
)
from repro.faults.plan import FaultPlan, default_chaos_plan
from repro.perf.golden import cloud_payload


def render_scorecard(report: dict, baseline_consistent: bool) -> str:
    recovery = report["recovery"]
    on = report["runs"]["policies_on"]
    off = report["runs"]["policies_off"]
    lines = [
        "RESILIENCE SCORECARD",
        f"  plan:                {report['plan']['name']} "
        f"(seed {report['plan']['seed']}, "
        f"{report['plan']['spec_count']} faults)",
        f"  workload:            scale {report['workload']['scale']}, "
        f"seed {report['workload']['seed']}",
        f"  tasks:               {on['tasks']}",
        f"  failures (off):      {recovery['policies_off_failures']} "
        f"({off['failure_ratio']:.2%})",
        f"  failures (on):       {recovery['policies_on_failures']} "
        f"({on['failure_ratio']:.2%})",
        f"  recovered:           {recovery['recovered_tasks']} tasks "
        f"({recovery['recovered_fraction']:.1%} of policies-off "
        "failures)",
        f"  policy activity:     {on['faults']['retries']} retries, "
        f"{on['faults']['failovers']} failovers, "
        f"{on['faults']['recoveries']} recoveries, "
        f"{on['faults']['aborts']} aborts",
        f"  baseline consistent: {baseline_consistent} "
        "(fault-free driver == plain replay)",
        f"  report digest:       {report['digest'][:16]}",
    ]
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--plan", type=Path, default=None,
                        help="fault plan JSON (default: built-in)")
    parser.add_argument("--scale", type=float,
                        default=DEFAULT_CHAOS_SCALE)
    parser.add_argument("--seed", type=int,
                        default=DEFAULT_WORKLOAD_SEED)
    parser.add_argument("--out", type=Path, default=None,
                        help="write the full JSON report here")
    args = parser.parse_args(argv)

    plan = FaultPlan.from_file(args.plan) if args.plan is not None \
        else default_chaos_plan()
    report = chaos_campaign(args.scale, args.seed, plan=plan,
                            policies="both")

    workload = generate_week(args.scale, args.seed)
    plain = XuanfengCloud(CloudConfig(scale=args.scale)).run(workload)
    baseline, _injector = run_chaos(workload, plan=None)
    baseline_consistent = cloud_payload(baseline) == cloud_payload(plain)

    report["baseline_consistent"] = baseline_consistent
    print(render_scorecard(report, baseline_consistent))
    if args.out is not None:
        from repro.recovery.atomic import atomic_write_text
        atomic_write_text(args.out, canonical_json(report) + "\n")
        print(f"report written to {args.out}")

    recovered = report["recovery"]["recovered_tasks"]
    if recovered <= 0:
        print(f"FAIL: policies recovered {recovered} tasks "
              "(expected > 0)", file=sys.stderr)
        return 1
    if not baseline_consistent:
        print("FAIL: fault-free chaos baseline diverges from the "
              "plain replay", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(None))
