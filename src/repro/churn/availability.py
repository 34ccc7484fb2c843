"""Availability math and static online sampling.

The paper defines a node's average availability as
``alpha = Ton / (Ton + Toff)``.  Some of its measurements (the trust
graph and random-graph baselines in Figures 3-5) do not need a running
protocol at all: the static graph is simply restricted to a random set
of online nodes drawn with probability ``alpha``.  This module draws
that set; :meth:`repro.graphs.FlatSnapshot.induced_by_labels` restricts
a graph to it.
"""

from __future__ import annotations

import numpy as np

from ..errors import ChurnError

__all__ = [
    "availability",
    "mean_online_for",
    "stationary_online_mask",
]


def availability(mean_online: float, mean_offline: float) -> float:
    """``alpha = Ton / (Ton + Toff)``."""
    if mean_online <= 0 or mean_offline <= 0:
        raise ChurnError("mean durations must be positive")
    return mean_online / (mean_online + mean_offline)


def mean_online_for(alpha: float, mean_offline: float) -> float:
    """Solve ``alpha = Ton / (Ton + Toff)`` for ``Ton``.

    The one place ``Ton`` is derived: :class:`~repro.config.SystemConfig`,
    :func:`~repro.churn.model.homogeneous_specs` and
    :class:`~repro.churn.batch.ShardedChurn` all call it, so both
    engines churn with the same float.
    """
    if not 0.0 < alpha < 1.0:
        raise ChurnError(
            f"availability must be strictly between 0 and 1, got {alpha}"
        )
    if mean_offline <= 0:
        raise ChurnError(f"mean_offline_time must be positive, got {mean_offline}")
    return alpha * mean_offline / (1.0 - alpha)


def stationary_online_mask(
    num_nodes: int, alpha: float, rng: np.random.Generator
) -> np.ndarray:
    """Boolean mask of online nodes under stationary availability ``alpha``."""
    if not 0.0 < alpha <= 1.0:
        raise ChurnError("alpha must be in (0, 1]")
    return rng.random(num_nodes) < alpha

