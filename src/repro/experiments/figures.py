"""The paper's evaluation (Figures 3-9) as grid sweeps of one point.

:class:`FigurePoint` is the one point experiment: a frozen, picklable
callable that builds the trust graph for its config's ``sampling_f``
and ``seed``, runs the overlay once (on the event simulator, or on the
sharded batch engine), computes its figure's per-point baselines and
returns one flat record of JSON values.  Each
``figureN(...)`` is a :func:`make_config` base plus the figure's
:func:`~repro.experiments.sweeps.grid_sweep` axes, so its points fan
out across ``workers`` with results identical to a serial run, and the
seed is an ordinary axis.  Tables are functions of records alone
(:func:`figure_table`), whether the records come from a run or a
result store.  See DESIGN.md §3 for the experiment index and expected
shapes.
"""

from __future__ import annotations

import dataclasses
import math
from statistics import fmean, stdev
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..config import SystemConfig
from ..metrics import mean_messages_per_period, message_overhead_by_rank
from ..parallel.shard import ShardOptions
from ..rng import RandomStreams
from .results import format_table
from .runner import (
    OverlayRunResult,
    random_baseline_graph,
    run_overlay_experiment,
    static_churn_metrics,
)
from .scenarios import ExperimentScale, lifetime_label, make_config, make_trust_graph
from .sweeps import grid_sweep

__all__ = [
    "AvailabilityPoint",
    "AvailabilitySweep",
    "FigurePoint",
    "Interval",
    "Point",
    "availability_sweep",
    "by_f",
    "degree_buckets",
    "figure3",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure_horizon",
    "figure_table",
    "group",
    "mean_degrees",
]

Record = Dict[str, Any]

#: Degree-histogram bucket width of the Figure-5 table.
DEGREE_BUCKET = 10
#: Rows the Figure-6 table samples the rank list down to.
_OVERHEAD_ROWS = 20
#: Rows the Figure-8/9 tables sample a time series down to.
_SERIES_ROWS = 25
_GRAPHS = ("trust", "overlay", "random")


# ----------------------------------------------------------------------
# The point experiment
# ----------------------------------------------------------------------


class Point(NamedTuple):
    """The coordinates a figure record carries: every key but its measures."""

    scale: str
    f: float
    alpha: float
    ratio: float


class Interval(NamedTuple):
    """A measure's mean ± standard error over the seeds of one point."""

    mean: float
    stderr: float

    lo = property(lambda self: self.mean - self.stderr)
    hi = property(lambda self: self.mean + self.stderr)


def _where(scale: ExperimentScale, config: SystemConfig) -> Record:
    """The coordinates a figure record carries for its table."""
    where = (scale.name, config.sampling_f, config.availability, config.lifetime_ratio)
    return Point(*where)._asdict()


def _summary(scale, config, trust_graph, result: OverlayRunResult) -> Record:
    """The scalars ``repro sweep`` tabulates."""
    return {
        "disconnected": result.disconnected,
        "trust_disconnected": result.trust_disconnected,
        "online_fraction": result.online_fraction,
        "full_edge_count": result.full_edge_count,
    }


def _availability_record(scale, config, trust_graph, result) -> Record:
    """Figures 3/4: the overlay plus both static baselines.

    The baseline rng is a substream keyed by (alpha, f), so a point
    computes the same values in any order, on any worker.
    """
    alpha = config.availability
    rng = RandomStreams(config.seed).substream(
        "baseline", str(alpha), str(config.sampling_f)
    )
    trust = static_churn_metrics(
        trust_graph, alpha, scale.mask_draws, rng, path_sources=scale.path_sources
    )
    random_ = static_churn_metrics(
        random_baseline_graph(result, rng),
        alpha,
        scale.mask_draws,
        rng,
        path_sources=scale.path_sources,
    )
    return {
        **_where(scale, config),
        "trust_disconnected": trust.disconnected,
        "overlay_disconnected": result.disconnected,
        "random_disconnected": random_.disconnected,
        "trust_path_length": trust.path_length,
        "overlay_path_length": result.path_length or 0.0,
        "random_path_length": random_.path_length,
    }


def _degree_record(scale, config, trust_graph, result) -> Record:
    """Figure 5: online-degree histograms, ``histogram[d]`` nodes of degree d."""
    from ..churn import stationary_online_mask
    from ..graphs import erdos_renyi_gnm

    rng = RandomStreams(config.seed).substream("fig5", str(config.sampling_f))
    mask = stationary_online_mask(config.num_nodes, config.availability, rng)
    # The random reference matches the *online* overlay snapshot (same
    # node and edge counts), so the two histograms share their mean and
    # differ only in shape.
    random_online = erdos_renyi_gnm(
        max(1, result.snapshot.number_of_nodes()),
        result.snapshot.number_of_edges(),
        rng=rng,
    )
    graphs = (trust_graph.induced_by_labels(mask), result.snapshot, random_online)
    return {
        **_where(scale, config),
        **{
            f"{name}_histogram": np.bincount(graph.degrees()).tolist()
            for name, graph in zip(_GRAPHS, graphs)
        },
    }


def _overhead_record(scale, config, trust_graph, result) -> Record:
    """Figure 6: per-node message rates, ranked by trust degree."""
    overheads = message_overhead_by_rank(
        result.overlay, result.collector.max_out_degrees()
    )
    return {
        **_where(scale, config),
        "system_mean": mean_messages_per_period(result.overlay),
        "trust_degree": [int(entry.trust_degree) for entry in overheads],
        "max_out_degree": [int(entry.max_out_degree) for entry in overheads],
        "messages_per_period": [
            float(entry.messages_per_period) for entry in overheads
        ],
    }


def _lifetime_record(scale, config, trust_graph, result) -> Record:
    """Figure 7: the overlay's connectivity; baselines span points."""
    return {**_where(scale, config), **_summary(scale, config, trust_graph, result)}


def _convergence_record(scale, config, trust_graph, result) -> Record:
    """Figure 8: the disconnected-fraction series of overlay and trust graph."""
    collector = result.collector
    return {
        **_where(scale, config),
        "times": collector.disconnected.times.tolist(),
        "disconnected": collector.disconnected.values.tolist(),
        "trust_disconnected": collector.trust_disconnected.values.tolist(),
        "convergence": collector.convergence_time(threshold=0.05),
    }


def _replacement_record(scale, config, trust_graph, result) -> Record:
    """Figure 9: the link-replacement series and its stable rate."""
    series = result.collector.replacements_per_node
    return {
        **_where(scale, config),
        "times": series.times.tolist(),
        "replacements": series.values.tolist(),
        "stable_rate": series.tail_mean(0.25),
    }


_RECORDS = {
    "fig3": _availability_record,
    "fig5": _degree_record,
    "fig6": _overhead_record,
    "fig7": _lifetime_record,
    "fig8": _convergence_record,
    "fig9": _replacement_record,
    "summary": _summary,
}


#: Figures that follow a cold start over their own ``scale.figN_horizon``.
_COLD_STARTS = ("fig8", "fig9")


def figure_horizon(figure: str, scale: ExperimentScale) -> float:
    """The shuffling periods one ``figure`` point runs for."""
    if figure in _COLD_STARTS:
        return getattr(scale, f"{figure}_horizon")
    return scale.total_horizon


@dataclasses.dataclass(frozen=True)
class FigurePoint:
    """One point of a figure: an overlay run plus that figure's baselines.

    ``figure`` names the record returned (``fig3`` ... ``fig9``, Figure 4
    reading Figure 3's, or ``summary`` for ``repro sweep``).  The point
    carries its :class:`ExperimentScale`, not a name, so a replaced scale
    runs its own horizons; the ``repr`` names every parameter, which is
    what the sweep memo keys.  The trust graph comes from the memoized
    :func:`make_trust_graph`, so a forked worker inherits a parent-built
    graph and a spawned one rebuilds it identically.

    ``shards`` picks the engine: ``None`` runs the event-driven
    :class:`~repro.core.Overlay`, and a :class:`ShardOptions` runs the
    round-based :class:`ShardedOverlay` over that grid on the same trust
    graph, one round per period of the horizon.  Both are sampled by
    the one :class:`~repro.metrics.MetricsCollector`, so every figure
    has a record on either engine.  A point with ``shards`` forks its
    own shard workers, so a sweep of it runs its points serially:
    daemonic sweep workers cannot fork.
    """

    figure: str
    scale: ExperimentScale
    shards: Optional[ShardOptions] = None

    def __call__(self, config: SystemConfig) -> Record:
        scale = self.scale
        trust_graph = make_trust_graph(scale, config.sampling_f, config.seed)
        horizon = figure_horizon(self.figure, scale)
        cold = self.figure in _COLD_STARTS
        window = max(1.0, horizon * 0.2) if cold else scale.measure_window
        result = run_overlay_experiment(
            trust_graph,
            config,
            horizon=horizon,
            measure_window=window,
            path_length_every=scale.path_length_every if self.figure == "fig3" else 0,
            path_sources=scale.path_sources,
            shards=self.shards,
        )
        try:
            return _RECORDS[self.figure](scale, config, trust_graph, result)
        finally:
            if self.shards is not None:
                result.overlay.close()


def _records(
    figure: str,
    scale: ExperimentScale,
    base: SystemConfig,
    axes: Mapping[str, Sequence[Any]],
    workers: int,
) -> List[Record]:
    """``FigurePoint(figure, scale)`` over ``axes``: records in grid order."""
    # Build (and memoize) the trust graphs before any fan-out so forked
    # workers inherit them instead of each re-sampling the social graph.
    for f in axes.get("sampling_f", [base.sampling_f]):
        make_trust_graph(scale, f, base.seed)
    points = grid_sweep(base, axes, FigurePoint(figure, scale), workers=workers)
    return [point.outcome for point in points]


def by_f(records: Sequence[Record]) -> Dict[float, List[Record]]:
    """Records grouped by trust graph (``f``), in first-seen order."""
    groups: Dict[float, List[Record]] = {}
    for record in records:
        groups.setdefault(record["f"], []).append(record)
    return groups


def group(records: Sequence[Record], measure: Any) -> Dict[Point, Interval]:
    """``measure`` (a record key, or a function of a record) per :class:`Point`.

    Records that differ only in their seed share a point, so a run over
    several seeds reads as mean ± stderr; one seed is the value itself.
    """
    seen: Dict[Point, List[float]] = {}
    for record in records:
        value = record[measure] if isinstance(measure, str) else measure(record)
        point = Point(*(record[key] for key in Point._fields))
        seen.setdefault(point, []).append(float(value))
    out = {}
    for point, xs in seen.items():
        stderr = stdev(xs) / math.sqrt(len(xs)) if len(xs) > 1 else 0.0
        out[point] = Interval(fmean(xs), stderr)
    return out


# ----------------------------------------------------------------------
# The figures
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
    """The Figure-3/4 points of one trust graph, in availability order."""

    points: List[AvailabilityPoint]


def availability_sweep(
    scale: ExperimentScale,
    f: float,
    seed: int = 1,
    lifetime_ratio: float = 3.0,
    alphas: Optional[Sequence[float]] = None,
    workers: int = 1,
) -> AvailabilitySweep:
    """Run the overlay and both static baselines across availabilities."""
    records = _records(
        "fig3",
        scale,
        make_config(scale, 0.5, f=f, lifetime_ratio=lifetime_ratio, seed=seed),
        {"availability": list(alphas if alphas is not None else scale.alphas)},
        workers,
    )
    fields = [field.name for field in dataclasses.fields(AvailabilityPoint)]
    return AvailabilitySweep(
        [AvailabilityPoint(*(record[name] for name in fields)) for record in records]
    )


def figure3(
    scale: ExperimentScale,
    seed: int = 1,
    fs: Sequence[float] = (1.0, 0.5),
    workers: int = 1,
) -> List[Record]:
    """Figures 3 and 4: connectivity and path length per (f, alpha)."""
    return _records(
        "fig3",
        scale,
        make_config(scale, 0.5, seed=seed),
        {"sampling_f": list(fs), "availability": list(scale.alphas)},
        workers,
    )


def figure5(
    scale: ExperimentScale,
    seed: int = 1,
    fs: Sequence[float] = (1.0, 0.5),
    alpha: float = 0.5,
    workers: int = 1,
) -> List[Record]:
    """Degree distributions for different trust graphs, one record per f."""
    base = make_config(scale, alpha, seed=seed)
    return _records("fig5", scale, base, {"sampling_f": list(fs)}, workers)


def figure6(
    scale: ExperimentScale,
    seed: int = 1,
    fs: Sequence[float] = (1.0, 0.5),
    alpha: float = 0.5,
    workers: int = 1,
) -> List[Record]:
    """Per-node message overhead ranked by trust degree, one record per f."""
    base = make_config(scale, alpha, seed=seed)
    return _records("fig6", scale, base, {"sampling_f": list(fs)}, workers)


def figure7(
    scale: ExperimentScale,
    seed: int = 1,
    f: float = 0.5,
    ratios: Sequence[float] = (1.0, 3.0, 9.0, math.inf),
    alphas: Optional[Sequence[float]] = None,
    workers: int = 1,
) -> List[Record]:
    """Connectivity per (alpha, lifetime ratio), with per-alpha baselines.

    Each record gains the static ``trust_graph`` and ``random_graph``
    disconnected fractions at its alpha.  They span points: the random
    reference is sized by the overall-first run's edge count, so they
    are one pass over the records here.
    """
    from ..graphs import erdos_renyi_gnm

    alpha_list = list(alphas if alphas is not None else scale.alphas)
    records = _records(
        "fig7",
        scale,
        make_config(scale, 0.5, f=f, seed=seed),
        {"availability": alpha_list, "lifetime_ratio": list(ratios)},
        workers,
    )
    trust_graph = make_trust_graph(scale, f, seed)
    reference_edges = records[0]["full_edge_count"]
    streams = RandomStreams(seed)
    baselines: Dict[float, Record] = {}
    for alpha in alpha_list:
        rng = streams.substream("fig7-baseline", str(alpha))
        trust = static_churn_metrics(
            trust_graph, alpha, scale.mask_draws, rng, measure_paths=False
        )
        random_graph = erdos_renyi_gnm(scale.num_nodes, reference_edges, rng=rng)
        random_ = static_churn_metrics(
            random_graph, alpha, scale.mask_draws, rng, measure_paths=False
        )
        baselines[alpha] = {
            "trust_graph": trust.disconnected,
            "random_graph": random_.disconnected,
        }
    return [{**record, **baselines[record["alpha"]]} for record in records]


def figure8(
    scale: ExperimentScale,
    seed: int = 1,
    f: float = 0.5,
    alpha: float = 0.25,
    ratios: Sequence[float] = (3.0, 9.0),
    workers: int = 1,
) -> List[Record]:
    """Connectivity over time from a cold overlay, one record per ratio."""
    return _records(
        "fig8",
        scale,
        make_config(scale, alpha, f=f, seed=seed),
        {"lifetime_ratio": list(ratios)},
        workers,
    )


def figure9(
    scale: ExperimentScale,
    seed: int = 1,
    f: float = 0.5,
    alpha: float = 0.25,
    ratios: Sequence[float] = (3.0, 9.0, math.inf),
    workers: int = 1,
) -> List[Record]:
    """Link-replacement overhead over a long horizon, one record per ratio."""
    return _records(
        "fig9",
        scale,
        make_config(scale, alpha, f=f, seed=seed),
        {"lifetime_ratio": list(ratios)},
        workers,
    )


# ----------------------------------------------------------------------
# Tables: functions of records alone
# ----------------------------------------------------------------------


def degree_buckets(histogram: Sequence[int]) -> Dict[int, int]:
    """Node counts per ``DEGREE_BUCKET``-wide degree bucket, by bucket start."""
    buckets: Dict[int, int] = {}
    for degree, count in enumerate(histogram):
        if count:
            key = degree - degree % DEGREE_BUCKET
            buckets[key] = buckets.get(key, 0) + count
    return buckets


def mean_degrees(record: Record) -> Tuple[float, ...]:
    """Mean online degree of (trust, overlay, random) in a Figure-5 record."""

    def mean(histogram: Sequence[int]) -> float:
        total = sum(histogram)
        if total == 0:
            return 0.0
        return sum(degree * count for degree, count in enumerate(histogram)) / total

    return tuple(mean(record[f"{name}_histogram"]) for name in _GRAPHS)


def _availability_table(figure: str, metric: str, what: str):
    def table(records: Sequence[Record]) -> str:
        first = records[0]
        return format_table(
            ["alpha", "trust_graph", "overlay", "random_graph"],
            [
                (record["alpha"], *(record[f"{name}_{metric}"] for name in _GRAPHS))
                for record in records
            ],
            title=(
                f"Figure {figure} (f={first['f']:g}, {first['scale']} scale): "
                f"{what} vs availability"
            ),
        )

    return table


def _degree_table(records: Sequence[Record]) -> str:
    (record,) = records
    buckets = [degree_buckets(record[f"{name}_histogram"]) for name in _GRAPHS]
    keys = sorted(set().union(*buckets))
    return format_table(
        ["degree", "trust_graph", "overlay", "random_graph"],
        [
            (f"{key}-{key + DEGREE_BUCKET - 1}", *(b.get(key, 0) for b in buckets))
            for key in keys
        ],
        title=(
            f"Figure 5 (f={record['f']:g}, alpha={record['alpha']:g}): "
            "degree distribution over online nodes"
        ),
    )


def _overhead_table(records: Sequence[Record]) -> str:
    (record,) = records
    rates = record["messages_per_period"]
    step = max(1, len(rates) // _OVERHEAD_ROWS)
    return format_table(
        ["rank", "trust_degree", "max_out_degree", "messages_per_period"],
        [
            (
                rank + 1,
                record["trust_degree"][rank],
                record["max_out_degree"][rank],
                rates[rank],
            )
            for rank in range(0, len(rates), step)
        ],
        title=(
            f"Figure 6 (f={record['f']:g}, alpha={record['alpha']:g}): messages "
            f"per shuffle period by trust-degree rank "
            f"(system mean {record['system_mean']:.2f})"
        ),
    )


def _lifetime_table(records: Sequence[Record]) -> str:
    point = {(record["alpha"], record["ratio"]): record for record in records}
    alphas = list(dict.fromkeys(alpha for alpha, _ in point))
    ratios = sorted({ratio for _, ratio in point})
    rows = []
    for alpha in alphas:
        baselines = point[alpha, ratios[0]]
        rows.append(
            (
                alpha,
                baselines["trust_graph"],
                *(point[alpha, ratio]["disconnected"] for ratio in ratios),
                baselines["random_graph"],
            )
        )
    first = records[0]
    return format_table(
        ["alpha", "trust_graph"]
        + [f"r={lifetime_label(ratio)}" for ratio in ratios]
        + ["random_graph"],
        rows,
        title=(
            f"Figure 7 (f={first['f']:g}, {first['scale']} scale): "
            "connectivity for different pseudonym lifetimes"
        ),
    )


def _convergence_table(records: Sequence[Record]) -> str:
    by_ratio = {record["ratio"]: record for record in records}
    ratios = sorted(by_ratio)
    # The trust-graph curve is the first ratio's run.
    first = records[0]
    times = first["times"]
    step = max(1, len(times) // _SERIES_ROWS)
    rows = [
        (
            times[index],
            first["trust_disconnected"][index],
            *(by_ratio[ratio]["disconnected"][index] for ratio in ratios),
        )
        for index in range(0, len(times), step)
    ]
    convergence = ", ".join(
        f"r={lifetime_label(ratio)} -> "
        + ("never" if run["convergence"] is None else f"{run['convergence']:.0f} sp")
        for ratio, run in sorted(by_ratio.items())
    )
    return format_table(
        ["time", "trust_graph"]
        + [f"overlay r={lifetime_label(ratio)}" for ratio in ratios],
        rows,
        title=(
            f"Figure 8 (alpha={first['alpha']:g}): connectivity over time "
            f"(convergence: {convergence})"
        ),
    )


def _replacement_table(records: Sequence[Record]) -> str:
    by_ratio = {record["ratio"]: record for record in records}
    ratios = sorted(by_ratio)
    times = by_ratio[ratios[0]]["times"]
    step = max(1, len(times) // _SERIES_ROWS)
    rows = []
    for index in range(0, len(times), step):
        row: List[Any] = [times[index]]
        for ratio in ratios:
            values = by_ratio[ratio]["replacements"]
            row.append(values[index] if index < len(values) else None)
        rows.append(tuple(row))
    stable = ", ".join(
        f"r={lifetime_label(ratio)}: {by_ratio[ratio]['stable_rate']:.2f}/sp"
        for ratio in ratios
    )
    return format_table(
        ["time"] + [f"r={lifetime_label(ratio)}" for ratio in ratios],
        rows,
        title=(
            f"Figure 9 (alpha={records[0]['alpha']:g}): links replaced per node "
            f"per shuffle period (stable rates: {stable})"
        ),
    )


_TABLES = {
    "fig3": _availability_table("3", "disconnected", "fraction of disconnected nodes"),
    "fig4": _availability_table("4", "path_length", "normalized average path length"),
    "fig5": _degree_table,
    "fig6": _overhead_table,
    "fig7": _lifetime_table,
    "fig8": _convergence_table,
    "fig9": _replacement_table,
}


def figure_table(figure: str, records: Sequence[Record]) -> str:
    """The table ``figure`` (``fig3`` ... ``fig9``) prints for ``records``.

    Figures 3-6 draw one table per trust graph: pass one :func:`by_f`
    group.  Figure 4 reads Figure 3's records.
    """
    return _TABLES[figure](records)
