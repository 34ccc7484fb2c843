"""Periodic measurement of a running overlay (paper Section IV-C).

:class:`MetricsCollector` is the one sampler of both engines; each
:meth:`~MetricsCollector.sample` records:

* the fraction of online nodes disconnected from the overlay's largest
  component, and the same metric on the trust-graph baseline;
* the normalized average path length (optionally less frequently,
  since it is the expensive metric);
* the per-period rate of pseudonym-link replacements per online node
  (Figure 9's overhead metric);
* the per-period rate of messages per online node;
* each node's maximum observed out-degree (Figure 6).

On an :class:`~repro.core.Overlay`, :meth:`~MetricsCollector.start`
schedules the samples as simulator events, so the series align exactly
with simulated time; a batch driver calls ``sample`` after each round.
Each sample materializes the online set **once**, takes one flat
snapshot and shares a single
:class:`~repro.graphs.fastgraph.SnapshotAnalysis` component labeling
across every metric (see docs/metrics.md).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

import numpy as np

from ..core import BatchOverlay, Overlay
from ..errors import ExperimentError
from ..graphs.fastgraph import FlatSnapshot, SnapshotAnalysis
from ..rng import fallback_rng
from .series import TimeSeries

__all__ = ["MetricsCollector"]


class MetricsCollector:
    """Samples overlay health metrics on a fixed time grid."""

    def __init__(
        self,
        overlay: Union[Overlay, BatchOverlay],
        interval: float = 1.0,
        path_length_every: int = 0,
        path_length_sources: Optional[int] = 32,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        """
        Parameters
        ----------
        overlay:
            The system under measurement (not yet started is fine).
        interval:
            Sampling interval in shuffling periods (1 on a batch run).
        path_length_every:
            Measure normalized path length every this many samples
            (0 disables the metric entirely).
        path_length_sources:
            BFS source sample size for the path-length estimate
            (None = exact).
        rng:
            Randomness for path-length source sampling.  Prefer an
            overlay substream (``overlay.substream("collector")``); the
            default is a seeded fallback generator derived from
            :data:`repro.config.DEFAULT_SEED`.  The collector owns this
            stream across samples, which is what keeps repeated source
            draws independent — see the hazard note on
            :meth:`repro.graphs.SnapshotAnalysis.average_path_length`.
        """
        if interval <= 0:
            raise ExperimentError("interval must be positive")
        if path_length_every < 0:
            raise ExperimentError("path_length_every must be non-negative")
        self._overlay = overlay
        self._interval = interval
        self._path_length_every = path_length_every
        self._path_length_sources = path_length_sources
        self._rng = rng if rng is not None else fallback_rng("metrics.collector")

        self.disconnected = TimeSeries("overlay disconnected fraction")
        self.trust_disconnected = TimeSeries("trust-graph disconnected fraction")
        self.path_length = TimeSeries("overlay normalized path length")
        self.trust_path_length = TimeSeries("trust-graph normalized path length")
        self.online_count = TimeSeries("online nodes")
        self.replacements_per_node = TimeSeries("link replacements per node per period")
        self.messages_per_node = TimeSeries("messages per node per period")

        self._max_out_degree = np.zeros(overlay.num_nodes, dtype=np.int64)
        # Trust-baseline labeling cache: Overlay.trust_snapshot
        # returns the identical object while the online set and trust
        # graph are unchanged, so its component labeling is reused too.
        self._trust_analysis_cache: Optional[SnapshotAnalysis] = None
        self._samples = 0
        self._last_replacements = 0
        self._last_messages = 0
        self._started = False

    @property
    def interval(self) -> float:
        """Sampling interval in shuffling periods."""
        return self._interval

    @property
    def max_out_degree(self) -> Dict[int, int]:
        """Per-node maximum observed out-degree, keyed by node id."""
        return {
            node_id: int(value)
            for node_id, value in enumerate(self._max_out_degree.tolist())
        }

    def start(self, initial_delay: Optional[float] = None) -> None:
        """Begin sampling on the simulator (after ``initial_delay``)."""
        if self._started:
            raise ExperimentError("collector already started")
        self._started = True
        delay = self._interval if initial_delay is None else initial_delay
        self._overlay.sim.post_after(delay, self._tick)

    def _trust_analysis(self, trust_snapshot: FlatSnapshot) -> SnapshotAnalysis:
        cached = self._trust_analysis_cache
        if cached is not None and cached.snapshot is trust_snapshot:
            return cached
        analysis = SnapshotAnalysis(trust_snapshot)
        self._trust_analysis_cache = analysis
        return analysis

    def _grow_degree_tracking(self, total_nodes: int) -> None:
        if total_nodes > len(self._max_out_degree):
            grown = np.zeros(total_nodes, dtype=np.int64)
            grown[: len(self._max_out_degree)] = self._max_out_degree
            self._max_out_degree = grown

    def _tick(self) -> None:
        # Repost before measuring: event order is pinned.
        self._overlay.sim.post_after(self._interval, self._tick)
        self.sample(self._overlay.sim.now)

    def sample(self, now: float) -> None:
        """Measure the overlay as it stands, recording at time ``now``."""
        self._samples += 1
        overlay = self._overlay
        total_nodes = overlay.num_nodes
        online_ids = overlay.online_ids()
        online = len(online_ids)
        self.online_count.append(now, float(online))
        self._grow_degree_tracking(total_nodes)
        measure_paths = bool(
            self._path_length_every
            and self._samples % self._path_length_every == 0
        )

        # One labeling per snapshot per sample: every metric below reads
        # the same SnapshotAnalysis.
        analysis = SnapshotAnalysis(overlay.snapshot(online_ids=online_ids))
        self.disconnected.append(now, analysis.fraction_disconnected())

        trust_analysis = self._trust_analysis(
            overlay.trust_snapshot(online_ids=online_ids)
        )
        self.trust_disconnected.append(now, trust_analysis.fraction_disconnected())

        if measure_paths:
            # RNG draw order (overlay first, trust second) is pinned by
            # the golden hashes.
            self.path_length.append(
                now,
                analysis.normalized_path_length(
                    total_nodes,
                    sample_sources=self._path_length_sources,
                    rng=self._rng,
                ),
            )
            self.trust_path_length.append(
                now,
                trust_analysis.normalized_path_length(
                    total_nodes,
                    sample_sources=self._path_length_sources,
                    rng=self._rng,
                ),
            )

        if len(online_ids):
            ids = np.asarray(online_ids, dtype=np.int64)
            self._max_out_degree[ids] = np.maximum(
                self._max_out_degree[ids], overlay.out_degrees(now)[ids]
            )

        # Per-period rates from cumulative counters.
        counters = overlay.node_counters()
        replacements = int(counters["link_replacements"].sum())
        messages = int(counters["messages_sent"].sum())
        denominator = max(1, online) * self._interval
        self.replacements_per_node.append(
            now, (replacements - self._last_replacements) / denominator
        )
        self.messages_per_node.append(
            now, (messages - self._last_messages) / denominator
        )
        self._last_replacements = replacements
        self._last_messages = messages

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------

    def stable_disconnected(self, fraction: float = 0.25) -> float:
        """Tail-mean of the overlay's disconnected fraction."""
        return self.disconnected.tail_mean(fraction)

    def convergence_time(self, threshold: float = 0.05) -> Optional[float]:
        """First time the overlay's disconnected fraction fell below
        ``threshold`` (None if it never did)."""
        return self.disconnected.time_to_reach(threshold, below=True)

    def max_out_degrees(self) -> List[int]:
        """Per-node maximum observed out-degree, indexed by node id."""
        return [int(value) for value in self._max_out_degree.tolist()]
