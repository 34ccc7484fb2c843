"""Churn substrate: the Yao et al. alternating-renewal model the paper
uses (Section IV-B), one model per engine — :class:`ChurnProcess` over
per-node :class:`NodeChurnSpec` durations on the event simulator, and
:class:`~repro.churn.batch.ShardedChurn` per round on the batch
engine — plus the duration distributions and availability math.
"""

from .availability import (
    availability,
    mean_online_for,
    stationary_online_mask,
)
from .distributions import DurationDistribution, Exponential, Pareto
from .model import ChurnProcess, NodeChurnSpec, homogeneous_specs

__all__ = [
    "DurationDistribution",
    "Exponential",
    "Pareto",
    "ChurnProcess",
    "NodeChurnSpec",
    "homogeneous_specs",
    "availability",
    "mean_online_for",
    "stationary_online_mask",
]
