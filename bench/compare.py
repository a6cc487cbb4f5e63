"""Compare two benchmark reports, one workload and metric at a time.

    python3 bench/compare.py BASE CHANGE [--pairs]

BASE and CHANGE are reports written by ``bench/run.py --out``, or
directories of them; a directory's rounds are concatenated in file-name
order and each metric becomes the median of those rounds.  For every
workload and end-to-end metric it prints both sides' medians and
quartiles and one verdict, judged against the metric's bound in
BENCHMARK.json:

* ``regressed`` -- the change's median is worse by more than the bound;
* ``improved`` -- better by more than the bound and by more than the
  distance between the base's quartiles;
* ``unresolved`` -- the rounds of either side spread wider than the
  bound, so neither can be told; unless every change round reads better
  (``improved``) or worse (``regressed``) than every base round;
* ``unchanged`` -- otherwise.

``--pairs`` pairs round i of BASE with round i of CHANGE (run them
alternately) and claims a gain only when the change wins at least nine
in ten of at least ten pairs, ties counting for neither.  The exit code
is 1 when any metric regressed or the change failed a correctness gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

from stats import quartiles, spread

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
PAIR_WIN_SHARE = 0.9


def load(path: Path) -> dict[str, Any]:
    """One report, or the rounds of every report in a directory merged."""
    if path.is_file():
        return json.loads(path.read_text())
    reports = [json.loads(child.read_text())
               for child in sorted(path.glob("*.json"))]
    if not reports:
        raise FileNotFoundError(f"{path}: no reports")
    merged = {"workloads": {}}
    for name in reports[0]["workloads"]:
        sides = [report["workloads"][name] for report in reports]
        metrics = {}
        for metric, entry in sides[0]["metrics"].items():
            rounds = [value for side in sides
                      for value in side["metrics"][metric]["rounds"]]
            metrics[metric] = {"unit": entry["unit"],
                               "value": quartiles(rounds)[1],
                               "rounds": rounds}
        merged["workloads"][name] = {
            "correct": all(side["correct"] for side in sides),
            "metrics": metrics}
    return merged


def _worse(base: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``base``, as a share of base."""
    sign = 1.0 if better == "lower" else -1.0
    return sign * (change - base) / abs(base)


def verdict(base_value: float, base_rounds: Sequence[float],
            change_value: float, change_rounds: Sequence[float],
            bound: float, better: str, pairs: bool = False
            ) -> tuple[str, str]:
    """(verdict, note) for one workload and metric."""
    worse = _worse(base_value, change_value, better)
    q1, _mid, q3 = quartiles(base_rounds)
    beyond_noise = abs(change_value - base_value) > q3 - q1
    sign = 1.0 if better == "lower" else -1.0
    every_better = all(sign * change < sign * base for change
                       in change_rounds for base in base_rounds)
    every_worse = all(sign * change > sign * base for change
                      in change_rounds for base in base_rounds)
    note = ""
    if pairs:
        matched = list(zip(base_rounds, change_rounds))
        wins = sum(sign * change < sign * base for base, change in matched)
        note = f"{wins}/{len(matched)} pairs won"
        if len(matched) < MIN_PAIRS:
            note += f" (fewer than {MIN_PAIRS} pairs)"
        elif wins >= PAIR_WIN_SHARE * len(matched) and worse < 0 \
                and beyond_noise:
            return "improved", note
    widest = max(spread(base_rounds), spread(change_rounds))
    if widest > bound:
        if every_better and not pairs:
            return "improved", note
        if every_worse and worse > bound:
            return "regressed", note
        return "unresolved", \
            f"spread {widest:.1%} > bound {bound:.0%}" + \
            (f"; {note}" if note else "")
    if worse > bound:
        return "regressed", note
    if not pairs and -worse > bound and beyond_noise:
        return "improved", note
    return "unchanged", note


def compare(base: dict[str, Any], change: dict[str, Any],
            catalogue: dict[str, Any], pairs: bool = False
            ) -> tuple[list[str], bool]:
    """Rendered rows and whether the change passes (no regression)."""
    specs = {spec["name"]: spec for spec in catalogue["end_to_end"]}
    lines = [f"{'workload':<20} {'metric':<12} {'base (q1..q3)':>30} "
             f"{'change (q1..q3)':>30}  verdict"]
    passed = True
    for name, change_workload in change["workloads"].items():
        base_workload = base["workloads"].get(name)
        if base_workload is None:
            lines.append(f"{name:<20} (not in base)")
            continue
        if not change_workload["correct"]:
            lines.append(f"{name:<20} change FAILED a correctness gate")
            passed = False
        for metric, spec in specs.items():
            sides = []
            for workload in (base_workload, change_workload):
                entry = workload["metrics"][metric]
                q1, _mid, q3 = quartiles(entry["rounds"])
                sides.append((entry["value"], entry["rounds"],
                              f"{entry['value']:.5g} "
                              f"({q1:.4g}..{q3:.4g})"))
            outcome, note = verdict(sides[0][0], sides[0][1], sides[1][0],
                                    sides[1][1], spec["bound"],
                                    spec["better"], pairs)
            passed = passed and outcome != "regressed"
            lines.append(f"{name:<20} {metric:<12} {sides[0][2]:>30} "
                         f"{sides[1][2]:>30}  {outcome}"
                         + (f"  [{note}]" if note else ""))
    return lines, passed


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two benchmark reports metric by metric.")
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", action="store_true",
                        help="judge gains by alternating pairs of rounds")
    args = parser.parse_args(argv)
    catalogue = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, passed = compare(load(args.base), load(args.change), catalogue,
                            pairs=args.pairs)
    print("\n".join(lines))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
