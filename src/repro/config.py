"""System configuration.

:class:`SystemConfig` gathers every tunable of the overlay-maintenance
protocol and the simulation around it.  Defaults follow Table I of the
paper:

=============================================  =========
Parameter                                      Default
=============================================  =========
Number of nodes in trust graph                 1000
Trust-graph sampling parameter (f)             0.5
Mean offline time in shuffling periods (Toff)  30
Pseudonym lifetime                             3 x Toff
Size of pseudonym cache                        400
Pseudonyms exchanged during a shuffle (l)      40
Target number of overlay links per node        50
=============================================  =========

Time is measured in *shuffling periods* throughout, as in the paper.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Union

import numpy as np

from .churn.availability import mean_online_for
from .errors import ConfigError

__all__ = ["SystemConfig", "INFINITE_LIFETIME", "DEFAULT_SEED"]

#: Sentinel for pseudonyms that never expire (the paper's ``r = Infinite``).
INFINITE_LIFETIME = math.inf

#: Root seed used whenever no explicit seed (or RNG) is supplied.  Every
#: fallback generator in the library derives from this constant instead
#: of OS entropy so that "I forgot to pass rng=" still yields exactly
#: reproducible runs (enforced statically by ``repro.lint`` rule DET001).
DEFAULT_SEED = 1


@dataclasses.dataclass(frozen=True)
class SystemConfig:
    """All protocol and simulation parameters.

    Attributes
    ----------
    num_nodes:
        Number of nodes in the sampled trust graph.
    sampling_f:
        The paper's ``f`` parameter: fraction of each visited node's
        neighbors added during trust-graph sampling (0 = depth-first
        chain of invitations, 1 = full breadth-first).
    mean_offline_time:
        ``Toff``, mean time a node spends offline before rejoining, in
        shuffling periods.
    lifetime_ratio:
        ``r``, the ratio of pseudonym lifetime to ``Toff``.  May be
        :data:`INFINITE_LIFETIME` for non-expiring pseudonyms.
    cache_size:
        Capacity of each node's pseudonym cache.
    shuffle_length:
        ``l``: maximum number of pseudonyms exchanged per shuffle
        message (own pseudonym plus up to ``l - 1`` cache entries).
    target_degree:
        Target number of overlay links per node.  Each node's sampler
        size ``S`` is ``max(min_pseudonym_links, target_degree -
        trusted_degree)`` so total degree is roughly uniform.
    min_pseudonym_links:
        Lower bound on the per-node sampler size ``S``; keeps hubs from
        dropping pseudonym links entirely (0 reproduces the paper's
        "hubs do not need the extra random links").
    availability:
        Node availability ``alpha = Ton / (Ton + Toff)``; together with
        ``mean_offline_time`` it determines the mean online time.
    message_latency:
        Upper bound on simulated one-way link latency, as a fraction of
        a shuffling period.  The paper assumes ideal low-latency links.
    seed:
        Root seed for all random streams.
    sampler_mode:
        ``"slots"`` for the paper's Brahms-style sampler; ``"cache"``
        for the naive newest-cache-entries ablation.
    adaptive_lifetime:
        When true, each node sizes its pseudonym lifetimes from an EWMA
        of its own observed offline stints instead of the global
        ``lifetime_ratio x mean_offline_time`` (the paper's suggested
        per-node adaptation, Section III-C).
    adaptive_smoothing:
        EWMA weight for the adaptive policy.
    """

    num_nodes: int = 1000
    sampling_f: float = 0.5
    mean_offline_time: float = 30.0
    lifetime_ratio: float = 3.0
    cache_size: int = 400
    shuffle_length: int = 40
    target_degree: int = 50
    min_pseudonym_links: int = 0
    availability: float = 0.5
    message_latency: float = 0.05
    seed: int = DEFAULT_SEED
    sampler_mode: str = "slots"
    adaptive_lifetime: bool = False
    adaptive_smoothing: float = 0.3

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise ConfigError("num_nodes must be at least 2")
        if not 0.0 <= self.sampling_f <= 1.0:
            raise ConfigError("sampling_f must be in [0, 1]")
        # Negated comparisons, so that NaN (every comparison false) fails.
        if not self.mean_offline_time > 0:
            raise ConfigError("mean_offline_time must be positive")
        if not self.lifetime_ratio > 0:
            raise ConfigError("lifetime_ratio must be positive")
        if self.cache_size < 1:
            raise ConfigError("cache_size must be at least 1")
        if self.shuffle_length < 1:
            raise ConfigError("shuffle_length must be at least 1")
        if self.target_degree < 1:
            raise ConfigError("target_degree must be at least 1")
        if self.min_pseudonym_links < 0:
            raise ConfigError("min_pseudonym_links must be non-negative")
        if not 0.0 < self.availability < 1.0:
            raise ConfigError("availability must be strictly between 0 and 1")
        if not self.message_latency >= 0:
            raise ConfigError("message_latency must be non-negative")
        if self.sampler_mode not in ("slots", "cache"):
            raise ConfigError(
                "sampler_mode must be 'slots' (the paper's Brahms-style "
                "sampler) or 'cache' (the naive ablation)"
            )
        if self.adaptive_lifetime and math.isinf(self.lifetime_ratio):
            raise ConfigError(
                "adaptive_lifetime requires a finite lifetime_ratio"
            )
        if not 0.0 < self.adaptive_smoothing <= 1.0:
            raise ConfigError("adaptive_smoothing must be in (0, 1]")

    @property
    def pseudonym_lifetime(self) -> float:
        """Pseudonym lifetime in shuffling periods (``r * Toff``)."""
        if math.isinf(self.lifetime_ratio):
            return INFINITE_LIFETIME
        return self.lifetime_ratio * self.mean_offline_time

    def sampler_size(
        self, trusted_degree: Union[int, np.ndarray]
    ) -> Union[np.int64, np.ndarray]:
        """The sampler size ``S`` of a node with ``trusted_degree`` friends.

        Elementwise over an array of degrees: both engines size every
        node's sampler here.
        """
        return np.maximum(
            self.min_pseudonym_links, self.target_degree - trusted_degree
        )

    @property
    def mean_online_time(self) -> float:
        """``Ton`` derived from availability and ``Toff``.

        From ``alpha = Ton / (Ton + Toff)`` we get
        ``Ton = alpha * Toff / (1 - alpha)``.
        """
        return mean_online_for(self.availability, self.mean_offline_time)

    def replace(self, **changes: object) -> "SystemConfig":
        """Return a copy with the given fields changed."""
        return dataclasses.replace(self, **changes)

    @staticmethod
    def paper_defaults(availability: Optional[float] = None) -> "SystemConfig":
        """The Table I default configuration.

        Parameters
        ----------
        availability:
            Optional availability override (the paper has no default
            churn setting; most figures sweep it).
        """
        config = SystemConfig()
        if availability is not None:
            config = config.replace(availability=availability)
        return config
