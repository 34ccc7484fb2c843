"""Experiment scales and input construction.

The paper's evaluation runs 1000-node trust graphs for hundreds to
thousands of shuffling periods.  A pure-Python simulation can do that,
but not inside a quick benchmark pass, so every experiment is
parameterized by an :class:`ExperimentScale`:

* ``PAPER`` — Table I parameters, paper horizons.
* ``QUICK`` — proportionally reduced (default for benchmarks); the
  qualitative shapes survive, as EXPERIMENTS.md documents.
* ``SMOKE`` — minimal settings for unit/integration tests.

``scale_from_env()`` picks ``PAPER`` when ``REPRO_FULL=1`` is set.

Trust graphs are sampled from a synthetic Facebook-like social graph
(see DESIGN.md for the substitution rationale) with the paper's
``f``-sampler, and memoized per (scale, f, seed) so sweeps share
inputs.
"""

from __future__ import annotations

import dataclasses
import math
import os
from typing import Dict, Optional, Tuple

from ..config import SystemConfig
from ..errors import ExperimentError
from ..graphs import FlatSnapshot, generate_social_graph, sample_trust_graph
from ..rng import RandomStreams

__all__ = [
    "ExperimentScale",
    "PAPER",
    "QUICK",
    "SMOKE",
    "scale_from_env",
    "scale_by_name",
    "make_config",
    "make_trust_graph",
    "clear_graph_cache",
    "lifetime_label",
]


@dataclasses.dataclass(frozen=True)
class ExperimentScale:
    """All scale-dependent experiment parameters."""

    name: str
    num_nodes: int
    source_multiplier: int
    mean_offline_time: float
    cache_size: int
    shuffle_length: int
    target_degree: int
    stabilization_horizon: float
    measure_window: float
    alphas: Tuple[float, ...]
    mask_draws: int
    path_sources: Optional[int]
    path_length_every: int
    fig8_horizon: float
    fig9_horizon: float

    @property
    def total_horizon(self) -> float:
        """Stabilization plus measurement window."""
        return self.stabilization_horizon + self.measure_window


PAPER = ExperimentScale(
    name="paper",
    num_nodes=1000,
    source_multiplier=10,
    mean_offline_time=30.0,
    cache_size=400,
    shuffle_length=40,
    target_degree=50,
    stabilization_horizon=300.0,
    measure_window=100.0,
    alphas=(0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875),
    mask_draws=10,
    path_sources=64,
    path_length_every=10,
    fig8_horizon=1000.0,
    fig9_horizon=10000.0,
)

# Note: quick scale keeps the paper's Toff = 30 shuffling periods.  The
# protocol's dynamics (shuffles per session, expiries per offline stint)
# are expressed in shuffling periods, so shrinking Toff would distort
# them; only the population and the horizons shrink.
QUICK = ExperimentScale(
    name="quick",
    num_nodes=250,
    source_multiplier=8,
    mean_offline_time=30.0,
    cache_size=150,
    shuffle_length=24,
    target_degree=30,
    stabilization_horizon=150.0,
    measure_window=50.0,
    alphas=(0.125, 0.25, 0.375, 0.5, 0.7, 0.9),
    mask_draws=5,
    path_sources=24,
    path_length_every=8,
    fig8_horizon=300.0,
    fig9_horizon=900.0,
)

SMOKE = ExperimentScale(
    name="smoke",
    num_nodes=80,
    source_multiplier=6,
    mean_offline_time=8.0,
    cache_size=60,
    shuffle_length=12,
    target_degree=12,
    stabilization_horizon=30.0,
    measure_window=15.0,
    alphas=(0.25, 0.5),
    mask_draws=3,
    path_sources=16,
    path_length_every=5,
    fig8_horizon=60.0,
    fig9_horizon=120.0,
)

_SCALES = {"paper": PAPER, "quick": QUICK, "smoke": SMOKE}


def scale_from_env(default: str = "quick") -> ExperimentScale:
    """Resolve the scale from the environment.

    ``REPRO_FULL=1`` selects the paper scale; otherwise ``REPRO_SCALE``
    may name one of paper/quick/smoke; otherwise ``default`` applies.
    """
    if os.environ.get("REPRO_FULL") == "1":
        return PAPER
    name = os.environ.get("REPRO_SCALE", default).lower()
    return _SCALES.get(name, _SCALES[default])


def scale_by_name(name: str) -> ExperimentScale:
    """Resolve a scale by name (``paper``/``quick``/``smoke``)."""
    try:
        return _SCALES[name.lower()]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment scale {name!r}; expected one of "
            f"{sorted(_SCALES)}"
        ) from None


def make_config(
    scale: ExperimentScale,
    alpha: float,
    f: float = 0.5,
    lifetime_ratio: float = 3.0,
    seed: int = 1,
) -> SystemConfig:
    """A :class:`SystemConfig` for one experiment point."""
    return SystemConfig(
        num_nodes=scale.num_nodes,
        sampling_f=f,
        mean_offline_time=scale.mean_offline_time,
        lifetime_ratio=lifetime_ratio,
        cache_size=scale.cache_size,
        shuffle_length=scale.shuffle_length,
        target_degree=scale.target_degree,
        availability=alpha,
        seed=seed,
    )


_graph_cache: Dict[Tuple[str, int, int, float, int], FlatSnapshot] = {}


def make_trust_graph(
    scale: ExperimentScale, f: float, seed: int = 1
) -> FlatSnapshot:
    """The trust graph for one (scale, f, seed) triple, memoized.

    The synthetic social source graph is ``source_multiplier`` times the
    trust-graph size, so the sampler has room to behave like a crawl of
    a much larger network.  The memo key holds both sizes as well as the
    name (which seeds the substreams): a replaced scale keeps its name.
    """
    key = (scale.name, scale.num_nodes, scale.source_multiplier, f, seed)
    cached = _graph_cache.get(key)
    if cached is not None:
        return cached
    streams = RandomStreams(seed)
    source = generate_social_graph(
        scale.num_nodes * scale.source_multiplier,
        rng=streams.substream("social", scale.name),
    )
    trust = sample_trust_graph(
        source,
        scale.num_nodes,
        f=f,
        rng=streams.substream("trust-sample", scale.name, str(f)),
    )
    _graph_cache[key] = trust
    return trust


def clear_graph_cache() -> None:
    """Drop memoized trust graphs (tests use this to bound memory)."""
    _graph_cache.clear()


def lifetime_label(ratio: float) -> str:
    """Human-readable label for a lifetime ratio (``inf`` -> Infinite)."""
    return "Infinite" if math.isinf(ratio) else f"{ratio:g}"
