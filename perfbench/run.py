#!/usr/bin/env python3
"""The repo benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N [--seconds S] [--trace [0|1]]
    python3 perfbench/run.py --workload all --seed N --record perfbench/out/A.jsonl
    python3 perfbench/run.py --selfcheck

Each workload runs in a fresh child interpreter with a pinned
environment, against the ``src/`` tree next to this directory.  The
child measures, and reads the host's speed between ops (``hostprobe``)
so that every time is stated at one nominal speed; this process
verifies, prints every metric by name with its unit, and ends with one
JSON line.  Without ``--trace`` the metrics
are the end-to-end ones of ``BENCHMARK.json``; with it, the workload is
run twice — untraced, then traced through ``op_traced`` — the simulated
statistics of the two runs are compared, and the metrics are the
per-layer ones.  Exit status is non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
#: One child may not outlive this; the harness allows 180 s per run.
CHILD_TIMEOUT_S = 80.0
#: Hand-driven sampling may order same-instant events differently from
#: the collector's own event (figure_sweep only).
STAT_TOLERANCE = 0.01

_clock = time.perf_counter


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# child: measure one workload in this process
# ----------------------------------------------------------------------


def _plain(value: Any) -> Any:
    """JSON fallback for numpy scalars."""
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


def run_child(name: str, seed: int, seconds: float, traced: bool, tiny: bool) -> dict:
    sys.path.insert(0, SOURCE)
    from hostprobe import HostProbe
    from spans import Tracer
    from workloads import WORKLOADS

    tracer = Tracer(traced)
    workload = WORKLOADS[name](seed, seconds, tracer, tiny)
    run_op = workload.op_traced if traced else workload.op
    # The host is read about as often in a run of three ops as in one
    # of thirty.
    probe = HostProbe()
    readings_per_gap = max(3, -(-24 // (workload.ops + 1)))
    setup_s: List[float] = []
    op_s: List[float] = []
    attempted = failed = checked_ops = 0
    error = None
    peak_kb = 0
    last_read = float("-inf")
    setup_readings = 0
    try:
        for repeat in range(workload.setup_repeats):
            with tracer.span(f"teardown:{repeat}"):
                workload.teardown()
            gc.collect()
            # Cheap set-ups are repeated dozens of times; read the host
            # beside them about once a second.
            if _clock() - last_read >= 1.0:
                probe.read(3)
                last_read = _clock()
            started = _clock()
            with tracer.span(f"setup:{repeat}"):
                workload.setup()
            setup_s.append(_clock() - started)
        probe.read(3)
        setup_readings = len(probe.readings)
        gc.collect()
        probe.read(readings_per_gap)
        for index in range(workload.ops):
            started = _clock()
            with tracer.span(f"op:{index}"):
                out = run_op(index)
            op_s.append(_clock() - started)
            probe.read(readings_per_gap)
            units, bad = workload.check(index, out)
            attempted += units
            failed += bad
            checked_ops += 1
        with tracer.span("finish"):
            if not workload.finish():
                failed = attempted
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except Exception as exc:  # the run is over, but it must be reported
        traceback.print_exc()
        error = f"{type(exc).__name__}: {exc}"
        # An exception fails every op that did not get checked.
        per_op = attempted // checked_ops if checked_ops else 1
        remaining = (workload.ops - checked_ops) * per_op
        attempted += remaining
        failed += remaining
    finally:
        with tracer.span("teardown:last"):
            workload.teardown()
    timed = sum(op_s)
    weights = [workload.op_weight(index) for index in range(len(op_s))]
    raw = {
        "setup_s": statistics.median(setup_s) if setup_s else 0.0,
        "op_s_p50": (
            statistics.median(t / w for t, w in zip(op_s, weights))
            * statistics.mean(weights) if op_s else 0.0
        ),
        "work_per_s": workload.work / timed if timed else 0.0,
    }
    setup_factor = probe.factor(last=setup_readings)
    op_factor = probe.factor(first=setup_readings)
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "traced": traced,
        "tiny": tiny, "error": error,
        "attempted": max(attempted, 1), "failed": failed,
        "checked_unit": workload.checked_unit,
        "ops": len(op_s), "op_s": op_s, "setup_s_all": setup_s,
        "timed_wall_s": timed,
        "work": workload.work, "work_unit": workload.work_unit,
        "raw": raw,
        "setup_factor": setup_factor, "op_factor": op_factor,
        "probe_readings": len(probe.readings),
        # Every time at the speed at which the probe takes its nominal time.
        "setup_s": raw["setup_s"] / setup_factor,
        "op_s_p50": raw["op_s_p50"] / op_factor,
        "work_per_s": raw["work_per_s"] * op_factor,
        "peak_rss_mb": peak_kb / 1024.0,
        "exact": workload.exact, "approx": workload.approx, "notes": workload.notes,
    }
    if traced and error is None:
        result["layers"] = workload.layers()  # also adds its exact counts
        result["layer_table"] = tracer.layer_table()
        result["attributed_ratio"] = tracer.attributed_ratio()
        os.makedirs(OUT_DIR, exist_ok=True)
        suffix = "-tiny" if tiny else ""
        tracer.dump(
            os.path.join(OUT_DIR, f"trace-{name}{suffix}.json"),
            {"workload": name, "seed": seed, "seconds": seconds},
        )
    return result


# ----------------------------------------------------------------------
# parent: spawn, verify, report
# ----------------------------------------------------------------------


def pinned_environment() -> Dict[str, str]:
    """The child's environment: defaults measured, hashing fixed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(name: str, seed: int, seconds: float, traced: bool, tiny: bool) -> dict:
    """Run one workload in a fresh interpreter; return its result."""
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(traced)),
    ]
    if tiny:
        command.append("--tiny")
    # Its own session, so a timeout can take the shard workers with it.
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=pinned_environment(),
        cwd=ROOT, start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {name} exceeded {CHILD_TIMEOUT_S:.0f} s")
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        process.wait()
    if process.returncode != 0:
        raise SystemExit(f"perfbench: {name} child exited with {process.returncode}")
    return json.loads(stdout.decode("utf-8").strip().splitlines()[-1])


def cross_check(untraced: dict, traced: dict) -> Tuple[List[str], float]:
    """Where both runs computed a statistic, they must agree."""
    problems = []
    for key, value in untraced["exact"].items():
        if key in traced["exact"] and traced["exact"][key] != value:
            problems.append(f"{key}: traced run disagrees with untraced run")
    delta = 0.0
    for key, value in untraced["approx"].items():
        if key in traced["approx"]:
            delta = max(delta, abs(traced["approx"][key] - value))
    if delta > STAT_TOLERANCE:
        problems.append(f"approximate statistics differ by {delta:.4f}")
    return problems, delta


def metric_rows(spec: dict, group: str, values: Dict[str, float]) -> Dict[str, dict]:
    """``values`` as the final line's metrics: every name of the group."""
    return {
        metric["name"]: {
            "value": float(values.get(metric["name"], 0.0)),
            "unit": metric["unit"],
        }
        for metric in spec[group]
    }


def describe_environment() -> str:
    import numpy

    cleared = [k for k in os.environ if k.startswith("REPRO_")]
    return (
        f"python {sys.version.split()[0]}, numpy {numpy.__version__}, "
        f"nproc {os.cpu_count()}, PYTHONHASHSEED=0, "
        f"REPRO_GRAPH_BACKEND/REPRO_NODE_PLANE/REPRO_FULL unset"
        + (f" (cleared {', '.join(sorted(cleared))})" if cleared else "")
    )


def measure(
    spec: dict, name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
    quiet: bool = False,
) -> dict:
    """One benchmark run of one workload.

    Returns the children's results beside ``final``, the object printed
    as the run's last line.
    """
    say = (lambda *a: None) if quiet else print
    say(f"perfbench {name}: seed={seed} seconds={seconds:g} trace={int(trace)}")
    say(f"  environment: {describe_environment()}")
    untraced = spawn(name, seed, seconds, False, tiny)
    problems = [untraced["error"]] if untraced["error"] else []
    say(f"  {untraced['ops']} ops, {untraced['work']} {untraced['work_unit']}, "
        f"timed region {untraced['timed_wall_s']:.3f} s, "
        f"set-up x{len(untraced['setup_s_all'])}")
    say(f"  host factor {untraced['op_factor']:.3f} over the ops, "
        f"{untraced['setup_factor']:.3f} over set-up "
        f"({untraced['probe_readings']} probe readings; 1 = nominal speed); "
        "as measured: " + ", ".join(
            f"{key} {value:.6g}" for key, value in untraced["raw"].items()))
    traced = None
    exact = untraced["exact"]
    group = "end_to_end"
    values = {key: untraced[key] for key in
              ("setup_s", "work_per_s", "op_s_p50", "peak_rss_mb")}
    if trace:
        group, values = "per_layer", {}
        traced = spawn(name, seed, seconds, True, tiny)
        if traced["error"]:
            problems.append(traced["error"])
        else:
            mismatches, delta = cross_check(untraced, traced)
            problems.extend(mismatches)
            if traced["failed"]:
                problems.append(f"traced run failed {traced['failed']} checks")
            exact = traced["exact"]
            factor = traced["op_factor"]
            times = {m["name"] for m in spec["per_layer"] if m["unit"] in ("s", "us")}
            values = {key: value / factor if key in times else value
                      for key, value in traced["layers"].items()}
            values["bench.host_factor"] = factor
            values["bench.trace_overhead_ratio"] = (
                (traced["timed_wall_s"] / factor)
                / (untraced["timed_wall_s"] / untraced["op_factor"]) - 1.0
            )
            values["bench.trace_stat_delta"] = delta
            values["bench.trace_attributed_ratio"] = traced["attributed_ratio"]
            say(f"  traced run: timed region {traced['timed_wall_s']:.3f} s, "
                f"host factor {factor:.3f}; layer self times as measured "
                "(calls, busy s, self s):")
            for layer, row in sorted(traced["layer_table"].items()):
                say(f"    {layer:34s} {row['calls']:8d} {row['busy_s']:10.4f} "
                    f"{row['self_s']:10.4f}")
    # A layer this workload never enters reports 0: no time, no work.
    metrics = metric_rows(spec, group, values)
    for stray in sorted(set(values) - set(metrics)):
        problems.append(f"{stray} is not a metric of BENCHMARK.json")
    attempted = untraced["attempted"]
    failed = untraced["failed"] or (attempted if problems else 0)
    for metric_name, row in metrics.items():
        if metric_name in values:
            say(f"  {metric_name} = {row['value']:.6g} {row['unit']}")
    for key, value in untraced["notes"].items():
        say(f"  note {key}: {value}")
    say(f"  checks: {attempted} {untraced['checked_unit']}s attempted, "
        f"{failed} failed, fail_ratio = {failed / attempted:.6g}")
    for problem in problems:
        say(f"  FAILED: {problem}")
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "ops": untraced["ops"], "exact": exact,
        "host": {key: untraced[key] for key in ("op_factor", "setup_factor", "raw")},
        "untraced": untraced, "traced": traced,
        "final": {"correct": failed == 0, "attempted": attempted,
                  "failed": failed, "metrics": metrics},
    }


def selfcheck(spec: dict) -> int:
    """Every workload, tiny: same seed twice must agree, another seed differ."""
    bad = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        first = measure(spec, name, 1, 1.0, True, tiny=True, quiet=True)
        again = measure(spec, name, 1, 1.0, True, tiny=True, quiet=True)
        other = measure(spec, name, 2, 1.0, True, tiny=True, quiet=True)
        verdicts = {
            "checks pass": first["final"]["correct"] and other["final"]["correct"],
            "same seed repeats exactly": (
                first["exact"] == again["exact"]
                and first["untraced"]["exact"] == again["untraced"]["exact"]
            ),
            "another seed differs": first["exact"] != other["exact"],
        }
        for verdict, ok in verdicts.items():
            print(f"selfcheck {name}: {verdict}: {'ok' if ok else 'FAILED'}")
            bad += not ok
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length the op counts are sized for")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--record", metavar="FILE",
                        help="append each run's final line to this JSONL file")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print("perfbench: no src/repro beside perfbench/; nothing to measure",
              file=sys.stderr)
        return 2
    if args.child:
        result = run_child(args.workload, args.seed, args.seconds,
                           bool(args.trace), args.tiny)
        print(json.dumps(result, default=_plain))
        return 0
    # A terminated driver must still take its children with it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = load_spec()
    if args.selfcheck:
        return selfcheck(spec)
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload not in names + ["all"]:
        parser.error(f"--workload must be one of {', '.join(names)}, or all")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    status = 0
    for name in names if args.workload == "all" else [args.workload]:
        record = measure(spec, name, args.seed, seconds, bool(args.trace), args.tiny)
        final = record["final"]
        if args.record:
            os.makedirs(os.path.dirname(os.path.abspath(args.record)), exist_ok=True)
            with open(args.record, "a", encoding="utf-8") as handle:
                line = {key: record[key] for key in
                        ("workload", "seed", "seconds", "trace", "ops", "host", "exact")}
                handle.write(json.dumps({**line, **final}) + "\n")
        print(json.dumps(final))
        if not final["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
