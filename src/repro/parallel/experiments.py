"""Ready-made picklable experiments for parallel sweeps.

:class:`OverlayPointExperiment` packages "run one overlay to its stable
state and summarize it as scalars" as a frozen dataclass, so the
``repro sweep`` CLI can fan it out without closures, and its ``repr``
names every parameter — which is what lets the sweep memo tell two
experiments apart.  Outcomes are plain JSON-friendly dicts, which is
what the result store and ``sweep_table_rows`` want.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional

from ..config import SystemConfig
from ..experiments.runner import run_overlay_experiment
from ..experiments.scenarios import make_trust_graph, scale_by_name

__all__ = ["BatchPointExperiment", "OverlayPointExperiment"]


@dataclasses.dataclass(frozen=True)
class OverlayPointExperiment:
    """One sweep point: an overlay run summarized as scalar metrics.

    The trust graph derives from ``(scale, f, config.seed)`` through the
    memoized :func:`~repro.experiments.scenarios.make_trust_graph`, so a
    forked worker inherits a parent-built graph for free and a spawned
    one rebuilds it identically.
    """

    scale_name: str
    f: float = 0.5
    #: Simulation horizon; defaults to the scale's ``total_horizon``.
    horizon: Optional[float] = None
    #: Tail window; defaults to the scale's ``measure_window``.
    measure_window: Optional[float] = None

    def __call__(self, config: SystemConfig) -> Dict[str, Any]:
        scale = scale_by_name(self.scale_name)
        trust_graph = make_trust_graph(scale, self.f, config.seed)
        horizon = self.horizon if self.horizon is not None else scale.total_horizon
        window = (
            self.measure_window
            if self.measure_window is not None
            else scale.measure_window
        )
        result = run_overlay_experiment(
            trust_graph,
            config,
            horizon=horizon,
            measure_window=min(window, horizon),
            collector_interval=scale.collector_interval,
        )
        return {
            "disconnected": result.disconnected,
            "trust_disconnected": result.trust_disconnected,
            "online_fraction": result.online_fraction,
            "full_edge_count": result.full_edge_count,
        }


@dataclasses.dataclass(frozen=True)
class BatchPointExperiment:
    """One sweep point on the round-based batch engine.

    Runs ``rounds`` shuffle periods of the batch engine over a
    ``num_shards`` grid hosted on ``shard_workers`` processes
    (:class:`~repro.parallel.shard.ShardedOverlay`; one worker is the
    serial :class:`~repro.core.batch.BatchOverlay`) and summarizes the
    end state.  Because the shard engine forks its own workers, sweeps
    using it must run their *points* serially — daemonic pool workers
    cannot fork children — which is exactly what ``repro sweep
    --shards N`` arranges.
    """

    rounds: int = 20
    extra_edges_per_node: int = 4
    num_shards: int = 1
    shard_workers: int = 1

    def __call__(self, config: SystemConfig) -> Dict[str, Any]:
        from .shard import ShardedOverlay, ShardOptions

        with ShardedOverlay.build(
            config,
            extra_edges_per_node=self.extra_edges_per_node,
            options=ShardOptions(
                num_shards=self.num_shards, workers=self.shard_workers
            ),
        ) as overlay:
            overlay.run(self.rounds)
            stats = overlay.stats()
            return {
                "disconnected": overlay.analysis().fraction_disconnected(),
                "online_fraction": stats["online_nodes"] / config.num_nodes,
                "mean_degree": overlay.mean_out_degree(),
                "exchanges": stats["exchanges"],
                "state_digest": overlay.state_digest(),
            }
