"""Churn substrate: the Yao et al. alternating-renewal model the paper
uses (Section IV-B), duration distributions, availability math, and
pre-generated session traces.
"""

from .availability import (
    availability,
    mean_online_for,
    stationary_online_mask,
)
from .batch import BatchChurnModel
from .distributions import (
    DurationDistribution,
    Exponential,
    Pareto,
    Weibull,
    distribution_from_name,
)
from .model import ChurnProcess, NodeChurnSpec, homogeneous_specs
from .session import SessionTrace, Transition, generate_trace, replay_trace

__all__ = [
    "DurationDistribution",
    "Exponential",
    "Pareto",
    "Weibull",
    "distribution_from_name",
    "BatchChurnModel",
    "ChurnProcess",
    "NodeChurnSpec",
    "homogeneous_specs",
    "availability",
    "mean_online_for",
    "stationary_online_mask",
    "SessionTrace",
    "Transition",
    "generate_trace",
    "replay_trace",
]
