"""repro — robust privacy-preserving overlays over social trust graphs.

A from-scratch reproduction of Singh, Urdaneta, van Steen, Vitenberg,
"Robust overlays for privacy-preserving data dissemination over a
social graph" (ICDCS 2012).

Quickstart
----------
>>> from repro import SystemConfig, Overlay
>>> from repro.graphs import generate_social_graph, sample_trust_graph
>>> from repro.rng import RandomStreams
>>> streams = RandomStreams(7)
>>> social = generate_social_graph(2000, rng=streams.substream("social"))
>>> config = SystemConfig(num_nodes=200, availability=0.5, cache_size=100,
...                       shuffle_length=20, target_degree=20, seed=7)
>>> trust = sample_trust_graph(social, 200, f=0.5,
...                            rng=streams.substream("sample"))
>>> overlay = Overlay.build(trust, config)
>>> overlay.start()
>>> overlay.run_until(50.0)
>>> snapshot = overlay.snapshot()

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured results.
"""

from .config import INFINITE_LIFETIME, SystemConfig
from .core import (
    Overlay,
    OverlayNode,
    OverlayStats,
    Pseudonym,
)
from .errors import ReproError
from .rng import RandomStreams
from .sim import Simulator

__version__ = "1.0.0"

__all__ = [
    "SystemConfig",
    "INFINITE_LIFETIME",
    "Overlay",
    "OverlayNode",
    "OverlayStats",
    "Pseudonym",
    "ReproError",
    "RandomStreams",
    "Simulator",
    "__version__",
]
