"""Post-hoc analyses: structural robustness (targeted failures,
articulation points).
"""

from .robustness import FailurePoint, articulation_ratio, targeted_failure_curve

__all__ = [
    "FailurePoint",
    "targeted_failure_curve",
    "articulation_ratio",
]
