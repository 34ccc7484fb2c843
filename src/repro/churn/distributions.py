"""Duration distributions for the churn model.

Yao et al. (the churn model the paper adopts, Section IV-B) consider
exponential and Pareto distributions for the time a node spends in each
of its online/offline states.  The paper's evaluation uses exponential
durations only; we implement both behind one small interface, so the
event simulator's :class:`~repro.churn.model.ChurnProcess` is
distribution-agnostic.  The batch engine's
:class:`~repro.churn.batch.ShardedChurn` is exponential only.
"""

from __future__ import annotations

import abc

import numpy as np

from ..errors import ChurnError

__all__ = ["DurationDistribution", "Exponential", "Pareto"]


class DurationDistribution(abc.ABC):
    """A positive-duration distribution with a known mean."""

    @property
    @abc.abstractmethod
    def mean(self) -> float:
        """Expected duration."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator) -> float:
        """Draw one strictly positive duration."""


class Exponential(DurationDistribution):
    """Exponential durations — the paper's choice.

    Parameterized directly by the mean (the paper's ``Ton``/``Toff``).
    """

    def __init__(self, mean: float) -> None:
        if mean <= 0:
            raise ChurnError(f"exponential mean must be positive, got {mean}")
        self._mean = mean

    @property
    def mean(self) -> float:
        return self._mean

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(self._mean))

    def __repr__(self) -> str:
        return f"Exponential(mean={self._mean})"


class Pareto(DurationDistribution):
    """Pareto (heavy-tailed) durations, Yao et al.'s alternative.

    Uses the Lomax form with scale chosen so the requested mean holds:
    for shape ``a > 1`` and mean ``m``, scale ``= m * (a - 1)`` and the
    sampled duration is ``scale * X`` where ``X ~ Lomax(a)``.
    """

    def __init__(self, mean: float, shape: float = 3.0) -> None:
        if mean <= 0:
            raise ChurnError(f"pareto mean must be positive, got {mean}")
        if shape <= 1.0:
            raise ChurnError(f"pareto shape must exceed 1 for a finite mean, got {shape}")
        self._mean = mean
        self._shape = shape
        self._scale = mean * (shape - 1.0)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def shape(self) -> float:
        """Tail exponent; lower values mean heavier tails."""
        return self._shape

    def sample(self, rng: np.random.Generator) -> float:
        return float(self._scale * rng.pareto(self._shape))

    def __repr__(self) -> str:
        return f"Pareto(mean={self._mean}, shape={self._shape})"

