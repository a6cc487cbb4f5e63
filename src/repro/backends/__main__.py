"""CLI: ``python -m repro.backends`` -- the comparison scorecard.

Replays one deterministic synthetic trace under every shipped
(backend set, policy) combination and prints the scorecard; the JSON
(``--json`` / ``--out``) carries a canonical digest that reproduces
across runs, shard counts, and process counts.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.backends.policies import DEFAULT_DEADLINE_SECONDS
from repro.backends.replay import (
    DEFAULT_LIMIT,
    DEFAULT_SCALE,
    DEFAULT_SEED,
    DEFAULT_SHARDS,
    compare,
    default_combos,
    format_scorecard,
)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.backends",
        description="Compare (backend set, policy) combinations on one "
                    "deterministic workload trace.")
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                        help="workload scale factor "
                             f"(default {DEFAULT_SCALE})")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"master seed (default {DEFAULT_SEED})")
    parser.add_argument("--limit", type=positive_int,
                        default=DEFAULT_LIMIT,
                        help="trace rows to replay "
                             f"(default {DEFAULT_LIMIT})")
    parser.add_argument("--shards", type=positive_int,
                        default=DEFAULT_SHARDS,
                        help="content shards; any value yields the "
                             f"same scorecard (default {DEFAULT_SHARDS})")
    parser.add_argument("--jobs", type=positive_int, default=1,
                        help="worker processes (default 1; results are "
                             "identical at any job count)")
    parser.add_argument("--deadline-hours", type=positive_float,
                        default=DEFAULT_DEADLINE_SECONDS / 3600.0,
                        help="delay-aware policy deadline in hours "
                             "(default 8)")
    parser.add_argument("--combo", action="append", dest="combos",
                        metavar="NAME",
                        help="run only combos whose name contains NAME "
                             "(repeatable)")
    parser.add_argument("--faults", action="store_true",
                        help="route under the default chaos plan "
                             "(fault-window-aware deprioritisation)")
    parser.add_argument("--json", action="store_true",
                        help="print the JSON scorecard instead of the "
                             "table")
    parser.add_argument("--out", metavar="PATH",
                        help="also write the JSON scorecard to PATH")
    parser.add_argument("--quiet", action="store_true",
                        help="print only the scorecard digest")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    combos = default_combos()
    if args.combos:
        combos = tuple(combo for combo in combos
                       if any(needle in combo.name
                              for needle in args.combos))
        if not combos:
            known = ", ".join(combo.name for combo in default_combos())
            print(f"no combo matches {args.combos}; known: {known}",
                  file=sys.stderr)
            return 2
    scorecard = compare(
        scale=args.scale, seed=args.seed, limit=args.limit,
        shards=args.shards, jobs=args.jobs,
        deadline_seconds=args.deadline_hours * 3600.0,
        faults=args.faults, combos=combos)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(scorecard, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.quiet:
        print(scorecard["digest"])
    elif args.json:
        json.dump(scorecard, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print(format_scorecard(scorecard))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
