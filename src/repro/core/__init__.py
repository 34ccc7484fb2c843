"""The paper's core contribution: privacy-preserving overlay maintenance.

Builds and maintains an overlay that starts from a trust graph and —
through ephemeral pseudonyms, gossip-based distribution, and
Brahms-style sampling — converges to random-graph-like robustness
without ever disclosing node identities or trust relations.
"""

from .arena import (
    ArenaCache,
    ArenaLinkSet,
    ArenaSlots,
    NodeArena,
    PseudonymArena,
)
from .batch import BatchOverlay
from .links import LinkTarget
from .maintenance import AdaptiveLifetime, FixedLifetime, LifetimePolicy
from .node import NodeCounters, OverlayNode
from .protocol import Overlay, OverlayStats
from .pseudonym import Pseudonym, mint_pseudonym
from .shuffle import ShuffleRequest, ShuffleResponse, make_shuffle_set

__all__ = [
    "Pseudonym",
    "mint_pseudonym",
    "LinkTarget",
    "PseudonymArena",
    "NodeArena",
    "ArenaLinkSet",
    "ArenaCache",
    "ArenaSlots",
    "BatchOverlay",
    "ShuffleRequest",
    "ShuffleResponse",
    "make_shuffle_set",
    "OverlayNode",
    "NodeCounters",
    "LifetimePolicy",
    "FixedLifetime",
    "AdaptiveLifetime",
    "Overlay",
    "OverlayStats",
]
