"""The in-repo benchmark trajectory stays readable by machine.

``benchmarks/results/BENCH_history.jsonl`` holds one line per
performance PR: the parent/change medians of every ``perfbench``
workload and end-to-end metric.  A line that names a workload or metric
``BENCHMARK.json`` does not declare can be compared with nothing.
"""

import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
HISTORY = ROOT / "benchmarks" / "results" / "BENCH_history.jsonl"


def test_every_row_covers_exactly_the_declared_benchmark():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {entry["name"] for entry in declared["workloads"]}
    metrics = {entry["name"] for entry in declared["end_to_end"]}
    lines = HISTORY.read_text(encoding="utf-8").splitlines()
    assert lines, "the history has at least PR 15's row"
    rows = [json.loads(line) for line in lines]
    assert [row["pr"] for row in rows] == sorted({row["pr"] for row in rows})
    for row in rows:
        assert set(row["workloads"]) == workloads, row["pr"]
        for name, cells in row["workloads"].items():
            assert set(cells) == metrics, (row["pr"], name)
            for pair in cells.values():
                assert pair["parent"] > 0 and pair["change"] > 0
