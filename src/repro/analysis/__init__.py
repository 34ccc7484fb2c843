"""Post-hoc analyses: structural robustness (targeted failures,
articulation points) and seed-replicated convergence measurement.
"""

from .convergence import ConvergenceSummary, measure_convergence
from .robustness import FailurePoint, articulation_ratio, targeted_failure_curve

__all__ = [
    "FailurePoint",
    "targeted_failure_curve",
    "articulation_ratio",
    "ConvergenceSummary",
    "measure_convergence",
]
