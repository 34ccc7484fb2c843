"""Shared constructors for one node's protocol state in unit tests.

``ArenaSlots`` / ``ArenaCache`` / ``ArenaLinkSet`` are views over a row
of a :class:`~repro.core.NodeArena`; each helper here hands a test one
view over row 0 of a fresh private arena — what a standalone
``OverlayNode`` builds for itself.
"""

from repro.core import ArenaCache, ArenaLinkSet, ArenaSlots, NodeArena


def _one_row_arena(slot_count=0, cache_capacity=0):
    arena = NodeArena(node_chunk=1)
    arena.register_node(0, max(slot_count, 0), max(cache_capacity, 0))
    return arena


def make_slots(size, rng):
    """Sampler slots ``n.L`` of the given size."""
    return ArenaSlots(_one_row_arena(slot_count=size), 0, size, rng)


def make_cache(capacity):
    """A pseudonym cache of the given capacity."""
    return ArenaCache(_one_row_arena(cache_capacity=capacity), 0, capacity)


def make_links(trusted_neighbors):
    """A link set ``n.links`` with the given trusted neighbors."""
    return ArenaLinkSet(_one_row_arena(), 0, trusted_neighbors)


def make_node_state(size, rng):
    """Sampler slots and the link set they feed, over one arena row."""
    arena = _one_row_arena(slot_count=size)
    return ArenaSlots(arena, 0, size, rng), ArenaLinkSet(arena, 0, ())
