"""Experiment execution: overlay runs and static baselines.

Two measurement modes cover everything in the evaluation:

* :func:`run_overlay_experiment` — build an overlay (either engine)
  over a trust graph, run it under churn to a stable state with a
  :class:`~repro.metrics.MetricsCollector` attached, and summarize.
* :func:`static_churn_metrics` — the trust-graph and random-graph
  baselines need no protocol: restrict the static graph to random
  stationary online sets and average the Section IV-C metrics over
  several draws.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional, Union

import numpy as np

from ..config import SystemConfig
from ..core import Overlay
from ..churn import stationary_online_mask
from ..errors import ExperimentError
from ..graphs.fastgraph import FlatSnapshot, SnapshotAnalysis
from ..metrics import MetricsCollector
from ..parallel.shard import ShardedOverlay, ShardOptions

__all__ = [
    "OverlayRunResult",
    "run_overlay_experiment",
    "StaticMetrics",
    "static_churn_metrics",
    "random_baseline_graph",
]


@dataclasses.dataclass
class OverlayRunResult:
    """Summary of one overlay run.

    ``snapshot`` and ``trust_snapshot`` are the final overlay and trust
    graph restricted to the nodes online at ``horizon``.
    ``full_edge_count`` counts the overlay's links across *all* nodes
    (online or not, expired links excluded); it sizes the matching
    random-graph baseline.  A :class:`ShardedOverlay` is still open:
    its owner closes it once done reading.
    """

    config: SystemConfig
    horizon: float
    disconnected: float
    trust_disconnected: float
    path_length: Optional[float]
    trust_path_length: Optional[float]
    online_fraction: float
    full_edge_count: int
    snapshot: FlatSnapshot
    trust_snapshot: FlatSnapshot
    collector: MetricsCollector
    overlay: Union[Overlay, ShardedOverlay]


def run_overlay_experiment(
    trust_graph: FlatSnapshot,
    config: SystemConfig,
    horizon: float,
    measure_window: float,
    path_length_every: int = 0,
    path_sources: Optional[int] = 32,
    shards: Optional[ShardOptions] = None,
    **build_options: Any,
) -> OverlayRunResult:
    """Run one overlay to ``horizon`` and summarize its stable state.

    The overlay is ``Overlay.build(trust_graph, config, **build_options)``
    (churn specs, link-layer factory, ...), sampled once per shuffle
    period, or with ``shards`` a :class:`ShardedOverlay` on the same
    trust graph, run ``int(horizon)`` rounds and sampled after each.
    Tail statistics average over the trailing ``measure_window`` of the
    series.  Path lengths are reported only when ``path_length_every``
    is non-zero.
    """
    if measure_window <= 0 or measure_window > horizon:
        raise ExperimentError("measure_window must be in (0, horizon]")
    if shards is None:
        overlay = Overlay.build(trust_graph, config, **build_options)
    else:
        overlay = ShardedOverlay(
            config, trust_graph.indptr, trust_graph.indices, shards, **build_options
        )
    collector = MetricsCollector(
        overlay,
        path_length_every=path_length_every,
        path_length_sources=path_sources,
        rng=overlay.substream("collector"),
    )
    try:
        if shards is None:
            overlay.start()
            collector.start()
            overlay.run_until(horizon)
        else:
            for _ in range(int(horizon)):
                overlay.step()
                collector.sample(float(overlay.round))
    except BaseException:
        if shards is not None:
            overlay.close()
        raise

    tail_fraction = min(1.0, measure_window / horizon)
    disconnected = collector.disconnected.tail_mean(tail_fraction)
    trust_disconnected = collector.trust_disconnected.tail_mean(tail_fraction)
    path_length = None
    trust_path_length = None
    if path_length_every and len(collector.path_length):
        path_length = collector.path_length.tail_mean(0.5)
        trust_path_length = collector.trust_path_length.tail_mean(0.5)

    online_ids = overlay.online_ids()
    return OverlayRunResult(
        config=config,
        horizon=horizon,
        disconnected=disconnected,
        trust_disconnected=trust_disconnected,
        path_length=path_length,
        trust_path_length=trust_path_length,
        online_fraction=len(online_ids) / config.num_nodes,
        full_edge_count=overlay.snapshot(online_only=False).number_of_edges(),
        snapshot=overlay.snapshot(online_ids=online_ids),
        trust_snapshot=overlay.trust_snapshot(online_ids=online_ids),
        collector=collector,
        overlay=overlay,
    )


@dataclasses.dataclass(frozen=True)
class StaticMetrics:
    """Availability-averaged metrics of a static graph under churn."""

    disconnected: float
    path_length: float
    mean_online_degree: float


def static_churn_metrics(
    graph: FlatSnapshot,
    alpha: float,
    draws: int,
    rng: np.random.Generator,
    path_sources: Optional[int] = 32,
    measure_paths: bool = True,
) -> StaticMetrics:
    """Baseline metrics: restrict ``graph`` to random online sets.

    Each draw marks every node online independently with probability
    ``alpha`` (the stationary distribution of the paper's churn model)
    and measures the induced subgraph; results average over draws.

    ``graph`` has labels ``0..n-1``; each draw's subgraph is induced
    with the mask.
    """
    if draws < 1:
        raise ExperimentError("draws must be at least 1")
    total_nodes = graph.number_of_nodes()
    disconnected_values = []
    path_values = []
    degree_values = []
    for _ in range(draws):
        mask = stationary_online_mask(total_nodes, alpha, rng)
        analysis = SnapshotAnalysis(graph.induced_by_labels(mask))
        disconnected_values.append(analysis.fraction_disconnected())
        if analysis.snapshot.number_of_nodes() > 0:
            degree_values.append(float(np.mean(analysis.snapshot.degrees())))
        if measure_paths:
            path_values.append(
                analysis.normalized_path_length(
                    total_nodes, sample_sources=path_sources, rng=rng
                )
            )
    return StaticMetrics(
        disconnected=float(np.mean(disconnected_values)),
        path_length=float(np.mean(path_values)) if path_values else 0.0,
        mean_online_degree=float(np.mean(degree_values)) if degree_values else 0.0,
    )


def random_baseline_graph(
    overlay_result: OverlayRunResult, rng: np.random.Generator
) -> FlatSnapshot:
    """The paper's random baseline: Erdős–Rényi with the same node count
    as the trust graph and the same edge count as the full overlay."""
    from ..graphs import erdos_renyi_gnm

    return erdos_renyi_gnm(
        overlay_result.config.num_nodes, overlay_result.full_edge_count, rng=rng
    )
