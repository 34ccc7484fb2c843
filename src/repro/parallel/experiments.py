"""The batch-engine point experiment ``repro sweep --shards`` runs.

:class:`BatchPointExperiment` packages "run the round-based engine and
summarize it as scalars" as a frozen dataclass, so the sweep can fan it
out without closures, and its ``repr`` names every parameter, which is
what lets the sweep memo tell two experiments apart.  The event-driven
point is :class:`~repro.experiments.figures.FigurePoint`.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict

from ..config import SystemConfig

__all__ = ["BatchPointExperiment"]


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
