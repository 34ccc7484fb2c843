"""Command-line front end: regenerate any figure of the paper.

Usage::

    repro fig3 --scale quick --seed 1
    repro fig8 --plot               # ASCII plot of the time series
    repro all  --scale quick
    repro fig3 --scale quick --workers 4   # fan points out across processes
    repro lint src examples         # determinism/hygiene linter
    repro sweep --axis availability=0.25,0.5 --workers 4  # memoized grid
    repro mesh --nodes 20 --duration 40     # live localhost mesh
    repro node --port 9000 --node-id 0      # one live UDP node
    python -m repro.cli fig9

Scales: ``smoke`` (tests), ``quick`` (default), ``paper`` (Table I).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, List, Optional

from .experiments import (
    PAPER,
    QUICK,
    SMOKE,
    ExperimentScale,
    by_f,
    figure3,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    figure_table,
    lifetime_label,
)
from .experiments.figures import DEGREE_BUCKET, degree_buckets, mean_degrees
from .parallel.cli import positive_int
from .viz import bar_chart, line_plot

__all__ = ["main"]

_SCALES: Dict[str, ExperimentScale] = {
    "paper": PAPER,
    "quick": QUICK,
    "smoke": SMOKE,
}


def _availability(figure: str, metric: str, what: str):
    """The Figure-3 or Figure-4 command: one table (and plot) per f."""

    def run(scale: ExperimentScale, seed: int, plot: bool, workers: int) -> None:
        for f, records in by_f(figure3(scale, seed=seed, workers=workers)).items():
            print(figure_table(figure, records))
            if plot:
                alphas = [record["alpha"] for record in records]
                print()
                print(
                    line_plot(
                        {
                            name: (alphas, [r[f"{name}_{metric}"] for r in records])
                            for name in ("trust", "overlay", "random")
                        },
                        title=f"Figure {figure[3:]} (f={f:g}): {what} vs availability",
                        y_label=what,
                    )
                )
            print()

    return run


def _run_fig5(scale: ExperimentScale, seed: int, plot: bool, workers: int) -> None:
    for f, records in by_f(figure5(scale, seed=seed, workers=workers)).items():
        print(figure_table("fig5", records))
        trust_mean, overlay_mean, random_mean = mean_degrees(records[0])
        print(
            f"mean degrees: trust {trust_mean:.1f}, overlay {overlay_mean:.1f},"
            f" random {random_mean:.1f}"
        )
        if plot:
            buckets = degree_buckets(records[0]["overlay_histogram"])
            print()
            print(
                bar_chart(
                    {
                        f"deg {key}-{key + DEGREE_BUCKET - 1}": count
                        for key, count in sorted(buckets.items())
                    },
                    title=f"overlay degree histogram (f={f:g})",
                )
            )
        print()


def _run_fig6(scale: ExperimentScale, seed: int, plot: bool, workers: int) -> None:
    for records in by_f(figure6(scale, seed=seed, workers=workers)).values():
        print(figure_table("fig6", records))
        print()


def _run_fig7(scale: ExperimentScale, seed: int, plot: bool, workers: int) -> None:
    records = figure7(scale, seed=seed, workers=workers)
    print(figure_table("fig7", records))
    if plot:
        alphas = list(dict.fromkeys(r["alpha"] for r in records))
        first = records[0]["ratio"]
        series = {
            f"r={lifetime_label(ratio)}": (
                alphas,
                [r["disconnected"] for r in records if r["ratio"] == ratio],
            )
            for ratio in dict.fromkeys(r["ratio"] for r in records)
        }
        series["trust"] = (
            alphas,
            [r["trust_graph"] for r in records if r["ratio"] == first],
        )
        print()
        print(
            line_plot(
                series,
                title="Figure 7: disconnected fraction vs availability",
                y_label="disconnected fraction",
            )
        )


def _run_fig8(scale: ExperimentScale, seed: int, plot: bool, workers: int) -> None:
    records = figure8(scale, seed=seed, workers=workers)
    print(figure_table("fig8", records))
    if plot:
        series = {
            f"overlay r={lifetime_label(r['ratio'])}": (r["times"], r["disconnected"])
            for r in records
        }
        series["trust"] = (records[0]["times"], records[0]["trust_disconnected"])
        print()
        print(
            line_plot(
                series,
                title="Figure 8: connectivity over time (alpha=0.25)",
                y_label="disconnected fraction",
            )
        )


def _run_fig9(scale: ExperimentScale, seed: int, plot: bool, workers: int) -> None:
    records = figure9(scale, seed=seed, workers=workers)
    print(figure_table("fig9", records))
    if plot:
        series = {
            f"r={lifetime_label(r['ratio'])}": (r["times"], r["replacements"])
            for r in records
        }
        print()
        print(
            line_plot(
                series,
                title="Figure 9: link replacements per node per period",
                y_label="replacements/node/sp",
            )
        )


_FIGURES: Dict[str, Callable[[ExperimentScale, int, bool, int], None]] = {
    "fig3": _availability("fig3", "disconnected", "disconnected fraction"),
    "fig4": _availability("fig4", "path_length", "normalized path length"),
    "fig5": _run_fig5,
    "fig6": _run_fig6,
    "fig7": _run_fig7,
    "fig8": _run_fig8,
    "fig9": _run_fig9,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.  Returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # The linter has its own argument grammar (paths, --rules);
        # dispatch before the figure parser sees it.
        from .lint.cli import main as lint_main

        return lint_main(list(argv[1:]))
    if argv and argv[0] == "sweep":
        # Likewise for the parallel sweep runner (--axis, --workers,
        # --shards, --store); see docs/parallel.md.
        from .parallel.cli import main as sweep_main

        return sweep_main(list(argv[1:]))
    if argv and argv[0] in ("node", "mesh"):
        # And for the live-network layer (repro node / repro mesh);
        # see docs/networking.md.
        from .net.cli import main as net_main

        return net_main(list(argv))

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce figures from 'Robust overlays for privacy-"
        "preserving data dissemination over a social graph' (ICDCS 2012).",
        epilog="Subcommands, each with its own --help: 'repro lint [paths]' "
        "runs the determinism/hygiene linter, 'repro sweep' a memoized "
        "parameter sweep, 'repro node' one live overlay node over UDP, "
        "and 'repro mesh' a loopback mesh checked against the simulator.",
    )
    parser.add_argument(
        "figure",
        choices=sorted(_FIGURES) + ["all", "report", "audit"],
        help="which figure to regenerate ('report' assembles saved "
        "benchmark results into one markdown document; 'audit' runs "
        "the Section III-E privacy-attack battery)",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default="quick",
        help="experiment scale (default: quick; 'paper' is Table I)",
    )
    parser.add_argument("--seed", type=int, default=1, help="root random seed")
    parser.add_argument(
        "--workers",
        type=positive_int,
        default=1,
        help="worker processes for the figure's independent points "
        "(results are identical for any count)",
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="render ASCII plots of the series in addition to tables",
    )
    parser.add_argument(
        "--results-dir",
        default="benchmarks/results",
        help="where benchmark tables were saved (for 'report')",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="write the report here instead of stdout (for 'report')",
    )
    args = parser.parse_args(argv)

    if args.figure == "audit":
        from .attacks import run_privacy_audit
        from .experiments import make_config, make_trust_graph

        scale = _SCALES[args.scale]
        trust_graph = make_trust_graph(scale, f=0.5, seed=args.seed)
        config = make_config(scale, alpha=0.6, f=0.5, seed=args.seed)
        report = run_privacy_audit(
            trust_graph,
            config,
            warmup=min(60.0, scale.stabilization_horizon),
            seed=args.seed,
        )
        print(report.format_report())
        return 0

    if args.figure == "report":
        from .experiments import build_report

        report = build_report(
            args.results_dir,
            title="Reproduction report — Robust overlays (ICDCS 2012)",
        )
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(report + "\n")
            print(f"report written to {args.output}")
        else:
            print(report)
        return 0

    scale = _SCALES[args.scale]
    targets = sorted(_FIGURES) if args.figure == "all" else [args.figure]
    for target in targets:
        # Progress display: this file is on DET003's exempt-path list
        # because the reading goes to the terminal, never into results.
        started = time.perf_counter()
        print(f"== {target} (scale={scale.name}, seed={args.seed}) ==")
        _FIGURES[target](scale, args.seed, args.plot, args.workers)
        elapsed = time.perf_counter() - started
        print(f"[{target} done in {elapsed:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
