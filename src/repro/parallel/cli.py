"""``repro sweep`` — run a parameter sweep from the command line.

Usage::

    repro sweep --scale smoke --seed 3 --axis availability=0.3,0.6 \
        --workers 2 --store /tmp/sweep-results

Each ``--axis name=v1,v2,...`` adds one grid dimension over a
:class:`~repro.config.SystemConfig` field; the sweep runs the figures'
point experiment with its ``summary`` record
(:class:`~repro.experiments.figures.FigurePoint`) over the cartesian
product through :func:`~repro.experiments.sweeps.grid_sweep`,
fans points out to ``--workers`` processes, and memoizes every point in
``--store`` as soon as it finishes.  Re-running the same command
computes only the points the store does not hold yet.

With ``--shards N`` each point instead runs the round-based batch
engine over an N-shard grid (:class:`~repro.parallel.shard.ShardedOverlay`
with ``--workers`` shard workers) on the same trust graph, one round
per period, sampled by the same
:class:`~repro.metrics.MetricsCollector`, and prints the same columns;
points run serially in that mode, since daemonic sweep workers cannot
fork shard workers.
"""

from __future__ import annotations

import argparse
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ExperimentError
from ..shutdown import EXIT_INTERRUPTED, graceful_shutdown
from .shard import ShardOptions

__all__ = ["main", "parse_axis", "positive_int"]


def positive_int(text: str) -> int:
    """Argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


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
        "the overlay experiment, memoizing every point in a result store.",
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
        "--f",
        type=float,
        default=0.5,
        help="trust-graph sampling parameter: the base config's sampling_f "
        "(a sampling_f axis overrides it per point)",
    )
    parser.add_argument(
        "--workers", type=positive_int, default=1, help="worker process count"
    )
    parser.add_argument(
        "--shards",
        type=positive_int,
        default=None,
        metavar="N",
        help="run each point on the round-based batch engine over an "
        "N-shard grid (ShardedOverlay) instead of the event-driven "
        "overlay, for the scale's horizon in rounds; points then run "
        "serially — daemonic sweep workers cannot fork shard workers — "
        "and --workers becomes the shard worker count per point",
    )
    parser.add_argument(
        "--store",
        default="sweep-results",
        help="result-store directory; a re-run reuses the points it holds",
    )
    parser.add_argument(
        "--prefix", default="sweep", help="store namespace for this sweep"
    )
    return parser


def _file_stamps(root) -> Dict[str, int]:
    """Modification time of every stored result, by file name."""
    return {path.stem: path.stat().st_mtime_ns for path in root.glob("*.json")}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro sweep``; returns a process exit code."""
    from ..experiments import (
        FigurePoint,
        ResultStore,
        format_table,
        grid_sweep,
        make_config,
        point_store_key,
        scale_by_name,
        sweep_table_rows,
    )

    args = _build_parser().parse_args(list(argv) if argv is not None else None)

    axes: Dict[str, List[Any]] = {}
    for name, values in args.axes:
        axes.setdefault(name, []).extend(values)

    scale = scale_by_name(args.scale)
    base_config = make_config(scale, alpha=0.5, f=args.f, seed=args.seed)
    shards = None
    sweep_workers = args.workers
    if args.shards is not None:
        # The shard engine forks its own workers per point, and daemonic
        # sweep workers cannot fork children — so points run serially
        # and the --workers budget goes to the shard engine instead.
        shards = ShardOptions(num_shards=args.shards, workers=args.workers)
        sweep_workers = 1
    experiment = FigurePoint("summary", scale, shards)
    store = ResultStore(args.store)

    before = _file_stamps(store.root)
    try:
        with graceful_shutdown():
            points = grid_sweep(
                base_config,
                axes,
                experiment,
                store=store,
                store_prefix=args.prefix,
                workers=sweep_workers,
            )
    except KeyboardInterrupt:
        # Every finished point was saved by the process that computed it.
        print(
            f"\ninterrupted: completed points are in {args.store}; "
            "rerun the same command to finish"
        )
        return EXIT_INTERRUPTED
    except ExperimentError as exc:
        print(f"error: {exc}")
        return 1

    after = _file_stamps(store.root)
    computed = sum(
        before.get(key) != after.get(key)
        for key in (point_store_key(args.prefix, p.overrides) for p in points)
    )
    headers, rows = sweep_table_rows(points)
    print(format_table(headers, rows, title=f"sweep ({scale.name} scale)"))
    print(
        f"points: {len(points)} total, {computed} computed, "
        f"{len(points) - computed} reused; store: {args.store}"
    )
    return 0
