"""``repro sweep`` — run a parameter sweep from the command line.

Usage::

    repro sweep --scale smoke --seed 3 --axis availability=0.3,0.6 \
        --workers 2 --store /tmp/sweep-results
    repro sweep ... --resume --expect-no-compute   # verify completion

Each ``--axis name=v1,v2,...`` adds one grid dimension over a
:class:`~repro.config.SystemConfig` field; the sweep runs the standard
overlay point experiment (:class:`OverlayPointExperiment`) over the
cartesian product, shards points across ``--workers`` processes, and
memoizes every point in ``--store`` with an append-only run ledger, so
re-running with ``--resume`` computes only the missing points.

With ``--shards N`` each point instead runs the round-based batch
engine over an N-shard grid (:class:`~repro.parallel.shard.ShardedOverlay`
with ``--workers`` shard workers); points run serially in that mode,
since daemonic sweep workers cannot fork shard workers.
"""

from __future__ import annotations

import argparse
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ExperimentError, ParallelError
from ..shutdown import EXIT_INTERRUPTED, graceful_shutdown
from .experiments import BatchPointExperiment, OverlayPointExperiment
from .sweep import run_parallel_sweep

__all__ = ["main", "parse_axis"]


def parse_axis(text: str) -> Tuple[str, List[Any]]:
    """Parse ``name=v1,v2,...`` into an axis; values become int/float
    when they look numeric, strings otherwise."""
    name, sep, rest = text.partition("=")
    name = name.strip()
    if not sep or not name or not rest.strip():
        raise argparse.ArgumentTypeError(
            f"expected name=v1,v2,... got {text!r}"
        )
    values: List[Any] = []
    for raw in rest.split(","):
        raw = raw.strip()
        if not raw:
            continue
        value: Any
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        values.append(value)
    if not values:
        raise argparse.ArgumentTypeError(f"axis {name!r} has no values")
    return name, values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description="Run a (optionally multiprocess) parameter sweep of "
        "the overlay experiment with a resumable on-disk run ledger.",
    )
    parser.add_argument(
        "--scale",
        choices=("paper", "quick", "smoke"),
        default="quick",
        help="experiment scale (default: quick)",
    )
    parser.add_argument("--seed", type=int, default=1, help="root random seed")
    parser.add_argument(
        "--axis",
        dest="axes",
        type=parse_axis,
        action="append",
        required=True,
        metavar="NAME=V1,V2,...",
        help="one grid dimension over a SystemConfig field (repeatable)",
    )
    parser.add_argument(
        "--f", type=float, default=0.5, help="trust-graph sampling parameter"
    )
    parser.add_argument(
        "--workers", type=int, default=1, help="worker process count"
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="run each point on the round-based batch engine over an "
        "N-shard grid (ShardedOverlay) instead of the event-driven "
        "overlay; points then run serially — daemonic sweep workers "
        "cannot fork shard workers — and --workers becomes the shard "
        "worker count per point",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=20,
        help="shuffle rounds per point with --shards (default: 20)",
    )
    parser.add_argument(
        "--store",
        default="sweep-results",
        help="result-store directory (holds point results and the ledger)",
    )
    parser.add_argument(
        "--prefix", default="sweep", help="store namespace for this sweep"
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="continue a previous run: recompute only points the ledger "
        "does not record as completed",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-point timeout in seconds (worker is killed and the "
        "point retried)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=3,
        help="attempts per point before it is recorded as failed",
    )
    parser.add_argument(
        "--expect-no-compute",
        action="store_true",
        help="exit nonzero if any point had to be computed (CI check "
        "that a --resume run was a pure no-op)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro sweep``; returns a process exit code."""
    from ..experiments import (
        ResultStore,
        format_table,
        make_config,
        scale_by_name,
        sweep_table_rows,
    )

    args = _build_parser().parse_args(list(argv) if argv is not None else None)

    axes: Dict[str, List[Any]] = {}
    for name, values in args.axes:
        axes.setdefault(name, []).extend(values)

    scale = scale_by_name(args.scale)
    base_config = make_config(scale, alpha=0.5, f=args.f, seed=args.seed)
    if args.shards is not None:
        if args.shards < 1:
            print("error: --shards must be at least 1")
            return 2
        # The shard engine forks its own workers per point, and daemonic
        # sweep workers cannot fork children — so points run serially
        # and the --workers budget goes to the shard engine instead.
        experiment = BatchPointExperiment(
            rounds=max(1, args.rounds),
            num_shards=args.shards,
            shard_workers=max(1, args.workers),
        )
        sweep_workers = 1
    else:
        experiment = OverlayPointExperiment(scale_name=scale.name, f=args.f)
        sweep_workers = args.workers
    store = ResultStore(args.store)

    try:
        with graceful_shutdown():
            run = run_parallel_sweep(
                base_config,
                axes,
                experiment,
                workers=sweep_workers,
                store=store,
                store_prefix=args.prefix,
                resume=args.resume,
                timeout=args.timeout,
                max_attempts=max(1, args.retries),
                # Wall-clock feeds only operator-facing ledger durations and
                # timeout enforcement, never results.  Passing the clock by
                # reference (not calling it here) keeps the package clean
                # under lint rule DET003.
                clock=time.perf_counter,
                sleep=time.sleep,
            )
    except KeyboardInterrupt:
        # Every completed point is already on disk (the ledger flushes
        # per append), so the run picks up where it stopped.
        print(
            f"\ninterrupted: completed points are in {args.store}; "
            "rerun with --resume to finish"
        )
        return EXIT_INTERRUPTED
    except (ExperimentError, ParallelError) as exc:
        print(f"error: {exc}")
        return 1

    if run.points:
        headers, rows = sweep_table_rows(run.points)
        print(format_table(headers, rows, title=f"sweep ({scale.name} scale)"))
    print(
        f"points: {len(run.records)} total, {run.computed} computed, "
        f"{run.reused} reused; ledger: {run.ledger_path}"
    )
    if run.failures:
        print(run.failure_report())
        return 1
    if args.expect_no_compute and run.computed > 0:
        print(
            f"error: expected a no-op resume but {run.computed} point(s) "
            "were computed"
        )
        return 1
    return 0
