#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs.

    python3 benchmarks/e2e/compare.py A1.json A2.json ... -- B1.json B2.json ...

Each file is the standard output of one ``run.py`` run (its last two
lines: the ``{"report": ...}`` object and the result).  ``A`` is the
baseline (parent commit), ``B`` the change.  For each workload and
end-to-end metric it prints each side's median and quartiles, the
change of the median, the metric's bound from ``BENCHMARK.json`` and a
verdict:

- ``unresolved``: either side's spread (quartile distance over median)
  is wider than the bound, and not every B run beats every A run;
- ``regressed``: B's median is worse than A's by more than the bound;
- ``improved``: B's median is better by more than A's own spread, and B
  wins at least 9 of 10 of the (A, B) pairs;
- ``ok``: none of these.

Then, from ``--trace 1`` runs, it prints every per-layer metric's change
of the median, largest absolute change first within each unit, so a
regression names its stage.  Exits 1 if any metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def load(path: str) -> Tuple[str, int, Dict]:
    """(workload, trace flag, result) of one saved run."""
    lines = [line for line in Path(path).read_text().splitlines()
             if line.startswith("{")]
    report = json.loads(lines[-2])["report"]
    return report["workload"], report["trace"], json.loads(lines[-1])


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: List[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(a: List[float], b: List[float], bound: float,
            lower_is_better: bool) -> Tuple[str, float]:
    """The verdict and B's relative change of the median (worse > 0)."""
    sign = 1.0 if lower_is_better else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    better_pairs = [sign * (y - x) < 0 for x in a for y in b]
    if max(spread(a), spread(b)) > bound and not all(better_pairs):
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if -worse > spread(a) and sum(better_pairs) >= 0.9 * len(better_pairs):
        return "improved", worse
    return "ok", worse


def _group(paths: List[str]):
    runs = defaultdict(list)
    for path in paths:
        workload, trace, result = load(path)
        runs[(workload, trace)].append(result)
    return runs


def _values(results: List[Dict], name: str) -> List[float]:
    return [r["metrics"][name]["value"] for r in results]


def main(argv: List[str]) -> int:
    if "--" not in argv:
        print("usage: compare.py A.json... -- B.json...", file=sys.stderr)
        return 2
    split = argv.index("--")
    side_a, side_b = _group(argv[:split]), _group(argv[split + 1:])
    spec = json.loads(BENCHMARK.read_text())
    regressed = False

    print(f"{'workload':<14} {'metric':<14} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'change':>8} {'bound':>6}  verdict")
    for workload, trace in sorted(side_a):
        if trace or (workload, trace) not in side_b:
            continue
        a_runs, b_runs = side_a[workload, trace], side_b[workload, trace]
        for metric in spec["end_to_end"]:
            a = _values(a_runs, metric["name"])
            b = _values(b_runs, metric["name"])
            name, change = verdict(a, b, metric["bound"],
                                   metric["better"] == "lower")
            regressed |= name == "regressed"
            cells = []
            for values in (a, b):
                q1, q2, q3 = quartiles(values)
                cells.append(f"{q2:.6g} [{q1:.6g}, {q3:.6g}]")
            print(f"{workload:<14} {metric['name']:<14} {cells[0]:>34} "
                  f"{cells[1]:>34} {100 * change:+7.2f}% "
                  f"{100 * metric['bound']:5.0f}%  {name}")
        failed = [sum(r["failed"] for r in runs) for runs in (a_runs, b_runs)]
        tried = [sum(r["attempted"] for r in runs) for runs in (a_runs, b_runs)]
        print(f"{workload:<14} failed: A {failed[0]}/{tried[0]}, "
              f"B {failed[1]}/{tried[1]}")

    for workload, trace in sorted(side_a):
        if not trace or (workload, trace) not in side_b:
            continue
        print(f"\nper-layer deltas, {workload} (B - A, median of runs)")
        rows = []
        for metric in spec["per_layer"]:
            med_a = statistics.median(_values(side_a[workload, trace],
                                              metric["name"]))
            med_b = statistics.median(_values(side_b[workload, trace],
                                              metric["name"]))
            rows.append((metric["unit"], -abs(med_b - med_a),
                         metric["name"], med_a, med_b))
        for unit, _, name, med_a, med_b in sorted(rows):
            if med_a == med_b == 0:
                continue
            print(f"  {name:<30} {med_a:14.6g} -> {med_b:14.6g} "
                  f"({med_b - med_a:+.6g} {unit})")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
