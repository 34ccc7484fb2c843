#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the bounds of BENCHMARK.json.

    python3 perfbench/compare.py A.jsonl B.jsonl

Each file is what ``run.py --record FILE`` appended: one JSON line per
run.  A is the base (the parent commit), B the change.  For every
workload and end-to-end metric the medians of the two sets are compared
and one row is printed with both bases:

* ``regression`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — the run-to-run spread of either set (distance between
  its quartiles, as a share of its median) is wider than the bound, so
  the pair says nothing — unless every run of B reads better than every
  run of A;
* ``within`` — neither.

Runs of the same workload, seed and mode must also report identical
exact counts and digests.  Exit status is 1 on a regression, on a higher
fail ratio or on differing exact counts; otherwise 0.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else 0.0


def metric_values(runs: List[dict], workload: str, metric: str) -> List[float]:
    return [
        run["metrics"][metric]["value"]
        for run in runs
        if run["workload"] == workload and not run["trace"]
    ]


def judge(a: List[float], b: List[float], better: str, bound: float) -> Tuple[float, str]:
    """(share by which B's median is worse than A's, verdict)."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse = (med_b - med_a) / med_a if med_a else 0.0
    if better == "higher":
        worse = -worse
        b_wins_every_pair = min(b) > max(a)
    else:
        b_wins_every_pair = max(b) < min(a)
    if b_wins_every_pair:
        return worse, "within"
    if max(spread(a), spread(b)) > bound:
        return worse, "unresolved"
    return worse, "regression" if worse > bound else "within"


def fail_ratio(runs: List[dict], workload: str) -> float:
    chosen = [run for run in runs if run["workload"] == workload]
    attempted = sum(run["attempted"] for run in chosen)
    return sum(run["failed"] for run in chosen) / attempted if attempted else 0.0


def exact_by_key(runs: List[dict]) -> Dict[Tuple[str, int, float, int], dict]:
    return {
        (run["workload"], run["seed"], run["seconds"], run["trace"]): run["exact"]
        for run in runs
    }


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    runs_a, runs_b = load_runs(argv[1]), load_runs(argv[2])
    bad = 0
    print(f"A = {argv[1]} ({len(runs_a)} runs), B = {argv[2]} ({len(runs_b)} runs)")
    print(f"{'workload':16s} {'metric':12s} {'A median':>12s} {'n':>2s} {'spread':>7s} "
          f"{'B median':>12s} {'n':>2s} {'spread':>7s} {'worse by':>9s} {'bound':>6s}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            a = metric_values(runs_a, workload, metric["name"])
            b = metric_values(runs_b, workload, metric["name"])
            if not a or not b:
                print(f"{workload:16s} {metric['name']:12s} missing from "
                      f"{'A' if not a else 'B'}")
                bad += 1
                continue
            worse, verdict = judge(a, b, metric["better"], metric["bound"])
            bad += verdict == "regression"
            print(f"{workload:16s} {metric['name']:12s} "
                  f"{statistics.median(a):12.6g} {len(a):2d} {spread(a):7.2%} "
                  f"{statistics.median(b):12.6g} {len(b):2d} {spread(b):7.2%} "
                  f"{worse:+9.2%} {metric['bound']:6.0%}  {verdict} [{metric['unit']}]")
        ratio_a, ratio_b = fail_ratio(runs_a, workload), fail_ratio(runs_b, workload)
        verdict = "regression" if ratio_b > ratio_a else "within"
        bad += verdict == "regression"
        print(f"{workload:16s} {'fail_ratio':12s} {ratio_a:12.6g} {'':10s} "
              f"{ratio_b:12.6g} {'':27s}  {verdict} [failed/attempted]")
    exact_a, exact_b = exact_by_key(runs_a), exact_by_key(runs_b)
    shared = sorted(set(exact_a) & set(exact_b))
    differing = [key for key in shared if exact_a[key] != exact_b[key]]
    print(f"exact counts and digests: {len(shared)} runs share (workload, seed, "
          f"seconds, trace); {len(differing)} differ")
    for key in differing:
        one, other = exact_a[key], exact_b[key]
        names = [k for k in sorted(set(one) | set(other)) if one.get(k) != other.get(k)]
        print(f"  {key[0]} seed={key[1]} trace={key[3]}: {', '.join(names)}")
    bad += len(differing)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
