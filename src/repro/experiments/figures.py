"""Per-figure experiment harnesses.

One function per figure of the paper's evaluation (Figures 3-9); each
returns a structured result object whose ``format_table()`` prints the
rows/series the corresponding figure plots.  See DESIGN.md §3 for the
experiment index and expected shapes.

Every harness accepts ``workers=``: its independent simulation points
(availability values, lifetime ratios, sampling parameters) are pure
functions of their inputs, so they fan out across the
:mod:`repro.parallel` worker pool and merge back in grid order with
results identical to a serial run.  The per-point bodies live in
module-level ``_*_task`` functions shared by both paths, so serial and
parallel cannot drift apart.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graphs.fastgraph import SnapshotAnalysis
from ..metrics import NodeOverhead, message_overhead_by_rank
from ..metrics.series import TimeSeries
from ..parallel.engine import parallel_map
from ..rng import RandomStreams
from .results import format_table
from .runner import (
    OverlayRunResult,
    random_baseline_graph,
    run_overlay_experiment,
    static_churn_metrics,
)
from .scenarios import ExperimentScale, lifetime_label, make_config, make_trust_graph

__all__ = [
    "AvailabilityPoint",
    "AvailabilitySweep",
    "availability_sweep",
    "figure3",
    "figure4",
    "DegreeDistributions",
    "figure5",
    "MessageOverheadResult",
    "figure6",
    "LifetimeSweep",
    "figure7",
    "ConvergenceResult",
    "figure8",
    "ReplacementResult",
    "figure9",
]


# ----------------------------------------------------------------------
# Figures 3 & 4: connectivity and path length vs availability
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class AvailabilityPoint:
    """All curves of Figures 3/4 at one availability value."""

    alpha: float
    trust_disconnected: float
    overlay_disconnected: float
    random_disconnected: float
    trust_path_length: float
    overlay_path_length: float
    random_path_length: float


@dataclasses.dataclass
class AvailabilitySweep:
    """One full availability sweep for a given sampling parameter f."""

    f: float
    scale_name: str
    points: List[AvailabilityPoint]
    trust_edges: int

    def format_table(self, metric: str = "disconnected") -> str:
        """Rows of Figure 3 (``disconnected``) or Figure 4 (``path``)."""
        if metric == "disconnected":
            headers = ["alpha", "trust_graph", "overlay", "random_graph"]
            rows = [
                (
                    point.alpha,
                    point.trust_disconnected,
                    point.overlay_disconnected,
                    point.random_disconnected,
                )
                for point in self.points
            ]
            title = (
                f"Figure 3 (f={self.f:g}, {self.scale_name} scale): "
                "fraction of disconnected nodes vs availability"
            )
        else:
            headers = ["alpha", "trust_graph", "overlay", "random_graph"]
            rows = [
                (
                    point.alpha,
                    point.trust_path_length,
                    point.overlay_path_length,
                    point.random_path_length,
                )
                for point in self.points
            ]
            title = (
                f"Figure 4 (f={self.f:g}, {self.scale_name} scale): "
                "normalized average path length vs availability"
            )
        return format_table(headers, rows, title=title)


def _availability_point_task(args) -> AvailabilityPoint:
    """One Figure-3/4 point: overlay run plus both static baselines.

    A pure function of ``(scale, f, seed, lifetime_ratio, alpha)``: the
    trust graph derives from (scale, f, seed) and the baseline rng is an
    independent substream keyed by (alpha, f), so points compute the
    same values in any order, on any worker.
    """
    scale, f, seed, lifetime_ratio, alpha = args
    trust_graph = make_trust_graph(scale, f, seed)
    config = make_config(scale, alpha, f=f, lifetime_ratio=lifetime_ratio, seed=seed)
    result = run_overlay_experiment(
        trust_graph,
        config,
        horizon=scale.total_horizon,
        measure_window=scale.measure_window,
        collector_interval=scale.collector_interval,
        path_length_every=scale.path_length_every,
        path_sources=scale.path_sources,
    )
    baseline_rng = RandomStreams(seed).substream("baseline", str(alpha), str(f))
    trust_static = static_churn_metrics(
        trust_graph,
        alpha,
        scale.mask_draws,
        baseline_rng,
        path_sources=scale.path_sources,
    )
    random_graph = random_baseline_graph(result, baseline_rng)
    random_static = static_churn_metrics(
        random_graph,
        alpha,
        scale.mask_draws,
        baseline_rng,
        path_sources=scale.path_sources,
    )
    return AvailabilityPoint(
        alpha=alpha,
        trust_disconnected=trust_static.disconnected,
        overlay_disconnected=result.disconnected,
        random_disconnected=random_static.disconnected,
        trust_path_length=trust_static.path_length,
        overlay_path_length=result.path_length or 0.0,
        random_path_length=random_static.path_length,
    )


def availability_sweep(
    scale: ExperimentScale,
    f: float,
    seed: int = 1,
    lifetime_ratio: float = 3.0,
    alphas: Optional[Sequence[float]] = None,
    workers: int = 1,
) -> AvailabilitySweep:
    """Run the overlay and both static baselines across availabilities."""
    # Build (and memoize) the trust graph before any fan-out so forked
    # workers inherit it instead of each re-sampling the social graph.
    trust_graph = make_trust_graph(scale, f, seed)
    alpha_list = list(alphas if alphas is not None else scale.alphas)
    points = parallel_map(
        _availability_point_task,
        [(scale, f, seed, lifetime_ratio, alpha) for alpha in alpha_list],
        workers,
    )
    return AvailabilitySweep(
        f=f,
        scale_name=scale.name,
        points=points,
        trust_edges=trust_graph.number_of_edges(),
    )


def figure3(
    scale: ExperimentScale,
    seed: int = 1,
    fs: Sequence[float] = (1.0, 0.5),
    workers: int = 1,
) -> Dict[float, AvailabilitySweep]:
    """Connectivity for different trust graphs (one sweep per f)."""
    return {
        f: availability_sweep(scale, f, seed=seed, workers=workers) for f in fs
    }


def figure4(
    scale: ExperimentScale,
    seed: int = 1,
    fs: Sequence[float] = (1.0, 0.5),
    workers: int = 1,
) -> Dict[float, AvailabilitySweep]:
    """Normalized average path length for different trust graphs.

    Shares its computation with Figure 3; calling this separately
    reruns the sweep, so benches that need both should call
    :func:`figure3` once and format both metrics.
    """
    return figure3(scale, seed=seed, fs=fs, workers=workers)


# ----------------------------------------------------------------------
# Figure 5: degree distribution at alpha = 0.5
# ----------------------------------------------------------------------


@dataclasses.dataclass
class DegreeDistributions:
    """Online-node degree histograms for one f at alpha = 0.5."""

    f: float
    alpha: float
    trust_histogram: Dict[int, int]
    overlay_histogram: Dict[int, int]
    random_histogram: Dict[int, int]

    def format_table(self, bucket: int = 10) -> str:
        """Histograms bucketed for readability."""

        def bucketize(histogram: Dict[int, int]) -> Dict[int, int]:
            buckets: Dict[int, int] = {}
            for degree, count in histogram.items():
                key = (degree // bucket) * bucket
                buckets[key] = buckets.get(key, 0) + count
            return buckets

        trust = bucketize(self.trust_histogram)
        overlay = bucketize(self.overlay_histogram)
        random_ = bucketize(self.random_histogram)
        keys = sorted(set(trust) | set(overlay) | set(random_))
        rows = [
            (
                f"{key}-{key + bucket - 1}",
                trust.get(key, 0),
                overlay.get(key, 0),
                random_.get(key, 0),
            )
            for key in keys
        ]
        return format_table(
            ["degree", "trust_graph", "overlay", "random_graph"],
            rows,
            title=(
                f"Figure 5 (f={self.f:g}, alpha={self.alpha:g}): "
                "degree distribution over online nodes"
            ),
        )

    def mean_degrees(self) -> Tuple[float, float, float]:
        """Mean online degree of (trust, overlay, random)."""

        def mean(histogram: Dict[int, int]) -> float:
            total = sum(histogram.values())
            if total == 0:
                return 0.0
            return sum(degree * count for degree, count in histogram.items()) / total

        return (
            mean(self.trust_histogram),
            mean(self.overlay_histogram),
            mean(self.random_histogram),
        )


def _figure5_task(args) -> DegreeDistributions:
    """Degree distributions for one sampling parameter f."""
    from ..churn import stationary_online_mask
    from ..graphs import erdos_renyi_gnm

    scale, f, seed, alpha = args
    trust_graph = make_trust_graph(scale, f, seed)
    config = make_config(scale, alpha, f=f, seed=seed)
    result = run_overlay_experiment(
        trust_graph,
        config,
        horizon=scale.total_horizon,
        measure_window=scale.measure_window,
        collector_interval=scale.collector_interval,
    )
    rng = RandomStreams(seed).substream("fig5", str(f))
    mask = stationary_online_mask(config.num_nodes, alpha, rng)
    trust_online = trust_graph.induced_by_labels(mask)
    # The random reference for the degree comparison matches the
    # *online* overlay snapshot (same node and edge counts), so the
    # two histograms share their mean and differ only in shape.
    random_online = erdos_renyi_gnm(
        max(1, result.snapshot.number_of_nodes()),
        result.snapshot.number_of_edges(),
        rng=rng,
    )
    return DegreeDistributions(
        f=f,
        alpha=alpha,
        trust_histogram=SnapshotAnalysis(trust_online).degree_histogram(),
        overlay_histogram=SnapshotAnalysis(result.snapshot).degree_histogram(),
        random_histogram=SnapshotAnalysis(random_online).degree_histogram(),
    )


def figure5(
    scale: ExperimentScale,
    seed: int = 1,
    fs: Sequence[float] = (1.0, 0.5),
    alpha: float = 0.5,
    workers: int = 1,
) -> Dict[float, DegreeDistributions]:
    """Degree distributions for different trust graphs at alpha=0.5."""
    distributions = parallel_map(
        _figure5_task, [(scale, f, seed, alpha) for f in fs], workers
    )
    return dict(zip(fs, distributions))


# ----------------------------------------------------------------------
# Figure 6: messages per shuffle period by trust-degree rank
# ----------------------------------------------------------------------


@dataclasses.dataclass
class MessageOverheadResult:
    """Figure 6 data for one f."""

    f: float
    alpha: float
    overheads: List[NodeOverhead]
    system_mean: float

    def format_table(self, max_rows: int = 20) -> str:
        step = max(1, len(self.overheads) // max_rows)
        rows = [
            (
                rank + 1,
                entry.trust_degree,
                entry.max_out_degree,
                entry.messages_per_period,
            )
            for rank, entry in enumerate(self.overheads)
            if rank % step == 0
        ]
        table = format_table(
            ["rank", "trust_degree", "max_out_degree", "messages_per_period"],
            rows,
            title=(
                f"Figure 6 (f={self.f:g}, alpha={self.alpha:g}): messages "
                f"per shuffle period by trust-degree rank "
                f"(system mean {self.system_mean:.2f})"
            ),
        )
        return table


def _figure6_task(args) -> MessageOverheadResult:
    """Message overhead by trust-degree rank for one f."""
    from ..metrics import mean_messages_per_period

    scale, f, seed, alpha = args
    trust_graph = make_trust_graph(scale, f, seed)
    config = make_config(scale, alpha, f=f, seed=seed)
    result = run_overlay_experiment(
        trust_graph,
        config,
        horizon=scale.total_horizon,
        measure_window=scale.measure_window,
        collector_interval=scale.collector_interval,
    )
    overheads = message_overhead_by_rank(
        result.overlay, result.collector.max_out_degrees()
    )
    return MessageOverheadResult(
        f=f,
        alpha=alpha,
        overheads=overheads,
        system_mean=mean_messages_per_period(result.overlay),
    )


def figure6(
    scale: ExperimentScale,
    seed: int = 1,
    fs: Sequence[float] = (1.0, 0.5),
    alpha: float = 0.5,
    workers: int = 1,
) -> Dict[float, MessageOverheadResult]:
    """Per-node message overhead, ranked by trust-graph degree."""
    results = parallel_map(
        _figure6_task, [(scale, f, seed, alpha) for f in fs], workers
    )
    return dict(zip(fs, results))


# ----------------------------------------------------------------------
# Figure 7: connectivity vs availability for pseudonym lifetimes
# ----------------------------------------------------------------------


@dataclasses.dataclass
class LifetimeSweep:
    """Figure 7: one disconnected-fraction curve per lifetime ratio."""

    f: float
    scale_name: str
    alphas: List[float]
    trust_curve: List[float]
    random_curve: List[float]
    overlay_curves: Dict[float, List[float]]  # keyed by lifetime ratio

    def format_table(self) -> str:
        ratios = sorted(self.overlay_curves, key=lambda r: (math.isinf(r), r))
        headers = ["alpha", "trust_graph"] + [
            f"r={lifetime_label(ratio)}" for ratio in ratios
        ] + ["random_graph"]
        rows = []
        for index, alpha in enumerate(self.alphas):
            row: List = [alpha, self.trust_curve[index]]
            row.extend(self.overlay_curves[ratio][index] for ratio in ratios)
            row.append(self.random_curve[index])
            rows.append(tuple(row))
        return format_table(
            headers,
            rows,
            title=(
                f"Figure 7 (f={self.f:g}, {self.scale_name} scale): "
                "connectivity for different pseudonym lifetimes"
            ),
        )


def _figure7_run_task(args) -> Tuple[float, int]:
    """One Figure-7 overlay run: (disconnected fraction, edge count)."""
    scale, f, seed, lifetime_ratio, alpha = args
    trust_graph = make_trust_graph(scale, f, seed)
    config = make_config(scale, alpha, f=f, lifetime_ratio=lifetime_ratio, seed=seed)
    result = run_overlay_experiment(
        trust_graph,
        config,
        horizon=scale.total_horizon,
        measure_window=scale.measure_window,
        collector_interval=scale.collector_interval,
    )
    return result.disconnected, result.full_edge_count


def figure7(
    scale: ExperimentScale,
    seed: int = 1,
    f: float = 0.5,
    ratios: Sequence[float] = (1.0, 3.0, 9.0, math.inf),
    alphas: Optional[Sequence[float]] = None,
    workers: int = 1,
) -> LifetimeSweep:
    """Connectivity for different pseudonym lifetime ratios."""
    from ..graphs import erdos_renyi_gnm

    trust_graph = make_trust_graph(scale, f, seed)
    streams = RandomStreams(seed)
    alpha_list = list(alphas if alphas is not None else scale.alphas)

    # The overlay runs — the expensive part — are independent per
    # (alpha, ratio) point and fan out across workers; the static
    # baselines stay in the parent because the random reference reuses
    # the edge count of the overall-first overlay run.
    runs = parallel_map(
        _figure7_run_task,
        [
            (scale, f, seed, ratio, alpha)
            for alpha in alpha_list
            for ratio in ratios
        ],
        workers,
    )
    run_iter = iter(runs)

    overlay_curves: Dict[float, List[float]] = {ratio: [] for ratio in ratios}
    trust_curve: List[float] = []
    random_curve: List[float] = []
    reference_edges: Optional[int] = None

    for alpha in alpha_list:
        baseline_rng = streams.substream("fig7-baseline", str(alpha))
        trust_static = static_churn_metrics(
            trust_graph, alpha, scale.mask_draws, baseline_rng, measure_paths=False
        )
        trust_curve.append(trust_static.disconnected)
        for ratio in ratios:
            disconnected, full_edge_count = next(run_iter)
            overlay_curves[ratio].append(disconnected)
            if reference_edges is None:
                reference_edges = full_edge_count
        random_graph = erdos_renyi_gnm(
            scale.num_nodes, reference_edges or 0, rng=baseline_rng
        )
        random_static = static_churn_metrics(
            random_graph, alpha, scale.mask_draws, baseline_rng, measure_paths=False
        )
        random_curve.append(random_static.disconnected)

    return LifetimeSweep(
        f=f,
        scale_name=scale.name,
        alphas=alpha_list,
        trust_curve=trust_curve,
        random_curve=random_curve,
        overlay_curves=overlay_curves,
    )


# ----------------------------------------------------------------------
# Figure 8: connectivity over time at alpha = 0.25
# ----------------------------------------------------------------------


@dataclasses.dataclass
class ConvergenceResult:
    """Figure 8: disconnected-fraction time series."""

    alpha: float
    trust_series: TimeSeries
    overlay_series: Dict[float, TimeSeries]  # keyed by lifetime ratio
    convergence_times: Dict[float, Optional[float]]

    def format_table(self, max_rows: int = 25) -> str:
        ratios = sorted(self.overlay_series)
        headers = ["time", "trust_graph"] + [
            f"overlay r={lifetime_label(ratio)}" for ratio in ratios
        ]
        times = self.trust_series.times
        step = max(1, len(times) // max_rows)
        rows = []
        for index in range(0, len(times), step):
            row: List = [float(times[index]), float(self.trust_series.values[index])]
            for ratio in ratios:
                series = self.overlay_series[ratio]
                row.append(float(series.values[index]))
            rows.append(tuple(row))
        return format_table(
            headers,
            rows,
            title=(
                f"Figure 8 (alpha={self.alpha:g}): connectivity over time "
                f"(convergence: "
                + ", ".join(
                    f"r={lifetime_label(ratio)} -> "
                    + (f"{time:.0f} sp" if time is not None else "never")
                    for ratio, time in sorted(self.convergence_times.items())
                )
                + ")"
            ),
        )


def _figure8_task(args) -> Tuple[TimeSeries, TimeSeries, Optional[float]]:
    """One Figure-8 run: (overlay series, trust series, convergence time)."""
    scale, f, seed, lifetime_ratio, alpha = args
    trust_graph = make_trust_graph(scale, f, seed)
    config = make_config(scale, alpha, f=f, lifetime_ratio=lifetime_ratio, seed=seed)
    result = run_overlay_experiment(
        trust_graph,
        config,
        horizon=scale.fig8_horizon,
        measure_window=max(1.0, scale.fig8_horizon * 0.2),
        collector_interval=scale.collector_interval,
    )
    return (
        result.collector.disconnected,
        result.collector.trust_disconnected,
        result.collector.convergence_time(threshold=0.05),
    )


def figure8(
    scale: ExperimentScale,
    seed: int = 1,
    f: float = 0.5,
    alpha: float = 0.25,
    ratios: Sequence[float] = (3.0, 9.0),
    workers: int = 1,
) -> ConvergenceResult:
    """Connectivity over time starting from a cold overlay."""
    runs = parallel_map(
        _figure8_task,
        [(scale, f, seed, ratio, alpha) for ratio in ratios],
        workers,
    )
    overlay_series: Dict[float, TimeSeries] = {}
    convergence: Dict[float, Optional[float]] = {}
    trust_series: Optional[TimeSeries] = None
    for ratio, (series, trust, convergence_time) in zip(ratios, runs):
        overlay_series[ratio] = series
        convergence[ratio] = convergence_time
        if trust_series is None:
            trust_series = trust
    assert trust_series is not None
    return ConvergenceResult(
        alpha=alpha,
        trust_series=trust_series,
        overlay_series=overlay_series,
        convergence_times=convergence,
    )


# ----------------------------------------------------------------------
# Figure 9: link replacements per node per shuffle period
# ----------------------------------------------------------------------


@dataclasses.dataclass
class ReplacementResult:
    """Figure 9: link-replacement-rate time series per lifetime ratio."""

    alpha: float
    series: Dict[float, TimeSeries]  # keyed by lifetime ratio
    stable_rates: Dict[float, float]

    def format_table(self, max_rows: int = 25) -> str:
        ratios = sorted(self.series, key=lambda r: (math.isinf(r), r))
        headers = ["time"] + [f"r={lifetime_label(ratio)}" for ratio in ratios]
        reference = self.series[ratios[0]]
        times = reference.times
        step = max(1, len(times) // max_rows)
        rows = []
        for index in range(0, len(times), step):
            row: List = [float(times[index])]
            for ratio in ratios:
                values = self.series[ratio].values
                row.append(float(values[index]) if index < len(values) else None)
            rows.append(tuple(row))
        stable = ", ".join(
            f"r={lifetime_label(ratio)}: {rate:.2f}/sp"
            for ratio, rate in sorted(
                self.stable_rates.items(), key=lambda kv: (math.isinf(kv[0]), kv[0])
            )
        )
        return format_table(
            headers,
            rows,
            title=(
                f"Figure 9 (alpha={self.alpha:g}): links replaced per node "
                f"per shuffle period (stable rates: {stable})"
            ),
        )


def _figure9_task(args) -> TimeSeries:
    """One Figure-9 run: the replacements-per-node series for one ratio."""
    scale, f, seed, lifetime_ratio, alpha = args
    trust_graph = make_trust_graph(scale, f, seed)
    config = make_config(scale, alpha, f=f, lifetime_ratio=lifetime_ratio, seed=seed)
    result = run_overlay_experiment(
        trust_graph,
        config,
        horizon=scale.fig9_horizon,
        measure_window=max(1.0, scale.fig9_horizon * 0.2),
        collector_interval=scale.collector_interval,
    )
    return result.collector.replacements_per_node


def figure9(
    scale: ExperimentScale,
    seed: int = 1,
    f: float = 0.5,
    alpha: float = 0.25,
    ratios: Sequence[float] = (3.0, 9.0, math.inf),
    workers: int = 1,
) -> ReplacementResult:
    """Link-replacement overhead over a long horizon."""
    runs = parallel_map(
        _figure9_task,
        [(scale, f, seed, ratio, alpha) for ratio in ratios],
        workers,
    )
    series: Dict[float, TimeSeries] = {}
    stable: Dict[float, float] = {}
    for ratio, replacement_series in zip(ratios, runs):
        series[ratio] = replacement_series
        stable[ratio] = replacement_series.tail_mean(0.25)
    return ReplacementResult(alpha=alpha, series=series, stable_rates=stable)
