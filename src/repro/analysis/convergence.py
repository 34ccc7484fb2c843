"""Convergence analysis across seeds.

Section V reports convergence speed from a single run; this module
quantifies it properly: repeated runs with independent seeds, the
distribution of times-to-connectivity, and a summary suitable for
tables (mean, standard deviation, worst case, failure count).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

import numpy as np

from ..config import SystemConfig
from ..core import Overlay
from ..errors import ExperimentError
from ..graphs import FlatSnapshot
from ..metrics import MetricsCollector

__all__ = ["ConvergenceSummary", "measure_convergence"]


@dataclasses.dataclass(frozen=True)
class ConvergenceSummary:
    """Distribution of convergence times over repeated runs."""

    threshold: float
    horizon: float
    times: tuple
    failures: int

    @property
    def runs(self) -> int:
        """Total runs measured."""
        return len(self.times) + self.failures

    @property
    def mean(self) -> Optional[float]:
        """Mean convergence time of the successful runs."""
        if not self.times:
            return None
        return float(np.mean(self.times))

    @property
    def std(self) -> Optional[float]:
        """Standard deviation of the successful runs."""
        if not self.times:
            return None
        return float(np.std(self.times))

    @property
    def worst(self) -> Optional[float]:
        """Slowest successful convergence."""
        if not self.times:
            return None
        return float(max(self.times))

    def __str__(self) -> str:
        if not self.times:
            return (
                f"never converged below {self.threshold:g} within "
                f"{self.horizon:g} sp ({self.failures} runs)"
            )
        return (
            f"converged below {self.threshold:g} in "
            f"{self.mean:.1f} ± {self.std:.1f} sp "
            f"(worst {self.worst:.1f}, {self.failures}/{self.runs} failures)"
        )


def measure_convergence(
    trust_graph: FlatSnapshot,
    config: SystemConfig,
    seeds: Sequence[int],
    threshold: float = 0.05,
    horizon: float = 300.0,
    collector_interval: float = 1.0,
) -> ConvergenceSummary:
    """Time for the overlay to first dip below ``threshold`` disconnected.

    Each seed gets an independent full system (protocol randomness and
    churn).  Runs that never dip below the threshold within ``horizon``
    count as failures.
    """
    if not seeds:
        raise ExperimentError("need at least one seed")
    if not 0.0 < threshold < 1.0:
        raise ExperimentError("threshold must be in (0, 1)")
    times: List[float] = []
    failures = 0
    for seed in seeds:
        overlay = Overlay.build(trust_graph, config.replace(seed=seed))
        collector = MetricsCollector(overlay, interval=collector_interval)
        overlay.start()
        collector.start()
        overlay.run_until(horizon)
        converged_at = collector.convergence_time(threshold=threshold)
        if converged_at is None:
            failures += 1
        else:
            times.append(converged_at)
    return ConvergenceSummary(
        threshold=threshold,
        horizon=horizon,
        times=tuple(times),
        failures=failures,
    )
