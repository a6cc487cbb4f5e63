"""``python -m repro.faults`` -- the chaos campaign CLI.

Runs a fault plan against a generated week's cloud replay and prints
(or writes) the canonical JSON report.  Examples::

    # Built-in plan, policies off vs on, deterministic report:
    python -m repro.faults --scale 0.003 --policies both

    # A custom plan, twice, proving byte-identical output:
    python -m repro.faults --plan chaos.json --out a.json
    python -m repro.faults --plan chaos.json --out b.json
    diff a.json b.json

    # Export the built-in plan for editing:
    python -m repro.faults --write-plan examples/chaos_plan.json
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.faults.chaos import (
    DEFAULT_CHAOS_SCALE,
    DEFAULT_WORKLOAD_SEED,
    canonical_json,
    chaos_campaign,
)
from repro.faults.plan import (
    DEFAULT_CHAOS_SEED,
    FaultPlan,
    default_chaos_plan,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Run a deterministic chaos campaign over the "
                    "cloud replay and emit a canonical JSON report.")
    parser.add_argument("--plan", metavar="PATH", default=None,
                        help="fault plan JSON (default: built-in plan)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the plan's gating seed")
    parser.add_argument("--scale", type=float,
                        default=DEFAULT_CHAOS_SCALE,
                        help="workload scale (default %(default)s)")
    parser.add_argument("--workload-seed", type=int,
                        default=DEFAULT_WORKLOAD_SEED,
                        help="workload seed (default %(default)s)")
    parser.add_argument("--policies", choices=("on", "off", "both"),
                        default="both",
                        help="resilience policies (default %(default)s)")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write the report here instead of stdout")
    parser.add_argument("--write-plan", metavar="PATH", default=None,
                        help="write the effective plan JSON and exit")
    return parser


def load_plan(path: Optional[str], seed: Optional[int]) -> FaultPlan:
    if path is not None:
        plan = FaultPlan.from_file(path)
    else:
        plan = default_chaos_plan(
            seed if seed is not None else DEFAULT_CHAOS_SEED)
    if seed is not None and plan.seed != seed:
        plan = FaultPlan(name=plan.name, seed=seed, specs=plan.specs)
    return plan


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    plan = load_plan(args.plan, args.seed)

    if args.write_plan is not None:
        plan.to_file(args.write_plan)
        print(f"wrote {len(plan.specs)}-spec plan {plan.name!r} "
              f"to {args.write_plan}", file=sys.stderr)
        return 0

    report = chaos_campaign(args.scale, args.workload_seed, plan=plan,
                            policies=args.policies)
    text = canonical_json(report)
    if args.out is not None:
        from pathlib import Path

        from repro.recovery.atomic import atomic_write_text
        atomic_write_text(Path(args.out), text + "\n")
        print(f"report written to {args.out} "
              f"(digest {report['digest'][:12]})", file=sys.stderr)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
