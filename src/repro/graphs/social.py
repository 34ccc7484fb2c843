"""Synthetic social-graph generation.

The paper draws trust graphs from the Wilson et al. Facebook crawl
(~3M nodes, 28M edges, power-law degree distribution).  That dataset is
not redistributable, so we substitute a synthetic generator that
reproduces the three structural properties the evaluation depends on:

1. **Power-law degree distribution** — produced by preferential
   attachment.
2. **High clustering** — produced by triad closure: with probability
   ``triad_probability`` a new edge closes a triangle with a neighbor
   of the previously chosen target (the Holme–Kim construction).
3. **Longer path lengths / weaker connectivity than G(n,m)** — a direct
   consequence of (1) and (2): edges concentrate inside local
   neighborhoods instead of spanning the graph.

An optional community overlay (:func:`generate_community_social_graph`)
partitions nodes into groups and biases attachment toward same-group
nodes, mimicking the community structure of real OSN friendship graphs
and further weakening global connectivity — the worst case for a
trust-graph overlay.

All generators return a CSR adjacency ``(indptr, indices)`` (int64)
over node labels ``0..n-1``.  Rows are **not** sorted: each lists its
neighbors in the order their edges were made.  That order is part of
the graph — the triad step and the f-sampler both index into it.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..errors import GraphError
from ..rng import ScalarDraws, fallback_rng

__all__ = [
    "generate_social_graph",
    "generate_community_social_graph",
]


def _preferential_targets(
    below: Callable[[int], int],
    repeated_nodes: List[int],
    count: int,
) -> List[int]:
    """Pick ``count`` distinct attachment targets.

    ``repeated_nodes`` contains each existing node once per incident
    edge endpoint, so uniform selection from it is degree-proportional
    selection — the classic Barabási–Albert trick.  ``below`` is a
    :class:`~repro.rng.ScalarDraws` draw.
    """
    targets: List[int] = []
    # Cap the number of draws to avoid pathological loops on tiny graphs.
    attempts = 0
    max_attempts = 50 * count + 100
    while len(targets) < count and attempts < max_attempts:
        attempts += 1
        candidate = repeated_nodes[below(len(repeated_nodes))]
        if candidate not in targets:
            targets.append(candidate)
    return targets


def _triad_candidate(
    below: Callable[[int], int],
    adjacency: List[List[int]],
    chosen: List[int],
) -> Optional[int]:
    """A uniform neighbor of ``chosen[-1]`` not in ``chosen``, or None.

    Skips the chosen nodes' positions instead of filtering the row: a
    hub's row is thousands long, ``chosen`` at most ``edges_per_node``.
    Draws nothing when no neighbor qualifies.
    """
    last = chosen[-1]
    row = adjacency[last]
    width = len(row)
    skipped = []
    for node in chosen[:-1]:
        # Test adjacency from the shorter side; only a hit needs a position.
        other = adjacency[node]
        if (last in other) if len(other) < width else (node in row):
            skipped.append(row.index(node))
    if len(skipped) == width:
        return None
    index = below(width - len(skipped))
    for position in sorted(skipped):
        if position <= index:
            index += 1
    return row[index]


def _csr(rows: List[List[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """Rows of neighbor labels as an int64 CSR ``(indptr, indices)``."""
    indptr = np.cumsum([0] + [len(row) for row in rows], dtype=np.int64)
    flat = itertools.chain.from_iterable(rows)
    return indptr, np.fromiter(flat, np.int64, int(indptr[-1]))


def generate_social_graph(
    num_nodes: int,
    edges_per_node: int = 9,
    triad_probability: float = 0.85,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Generate a Facebook-like social graph.

    A Holme–Kim style process: each new node attaches ``edges_per_node``
    edges; the first by preferential attachment, and each subsequent one
    either closes a triad with a random neighbor of the previous target
    (probability ``triad_probability``) or attaches preferentially.

    Parameters
    ----------
    num_nodes:
        Number of vertices.  Must be greater than ``edges_per_node``.
    edges_per_node:
        Edges added per arriving node.  The default 9 approximates the
        Wilson et al. crawl's average degree (28M edges / 3M nodes ≈ 9.3
        edges per node).
    triad_probability:
        Probability that an edge closes a triangle instead of attaching
        preferentially.  High values yield the strong clustering real
        friendship graphs exhibit.
    rng:
        Source of randomness; a seeded fallback generator (derived from
        :data:`repro.config.DEFAULT_SEED`) when omitted.

    Returns
    -------
    (indptr, indices)
        CSR adjacency of a connected graph with power-law degrees and
        high clustering; each row in edge-creation order.
    """
    if rng is None:
        rng = fallback_rng("graphs.social")
    if num_nodes <= edges_per_node:
        raise GraphError(
            f"num_nodes ({num_nodes}) must exceed edges_per_node ({edges_per_node})"
        )
    if edges_per_node < 1:
        raise GraphError("edges_per_node must be at least 1")
    if not 0.0 <= triad_probability <= 1.0:
        raise GraphError("triad_probability must be in [0, 1]")

    # Seed clique keeps early attachment well-defined and the graph connected.
    seed_size = edges_per_node + 1
    adjacency = [[v for v in range(seed_size) if v != u] for u in range(seed_size)]
    repeated_nodes = list(
        itertools.chain.from_iterable(itertools.combinations(range(seed_size), 2))
    )

    draws = ScalarDraws(rng)
    below, random = draws.below, draws.random
    for new_node in range(seed_size, num_nodes):
        chosen = _preferential_targets(below, repeated_nodes, 1)
        for _ in range(edges_per_node - 1):
            candidate: Optional[int] = None
            if random() < triad_probability:
                candidate = _triad_candidate(below, adjacency, chosen)
            if candidate is None:
                fallback = [
                    node
                    for node in _preferential_targets(below, repeated_nodes, 3)
                    if node not in chosen
                ]
                if not fallback:
                    continue
                candidate = fallback[0]
            chosen.append(candidate)
        adjacency.append(chosen)
        for target in chosen:
            adjacency[target].append(new_node)
            repeated_nodes.append(new_node)
            repeated_nodes.append(target)

    del repeated_nodes
    return _csr(adjacency)


def generate_community_social_graph(
    num_nodes: int,
    num_communities: int = 10,
    edges_per_node: int = 9,
    triad_probability: float = 0.8,
    intra_probability: float = 0.9,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Generate a social graph with explicit community structure.

    Nodes are assigned round-robin to ``num_communities`` groups; each
    attachment edge stays within the arriving node's group with
    probability ``intra_probability``, otherwise it may reach any node.
    The result has denser intra-community neighborhoods and sparser
    bridges, which stresses the overlay's robustness further than the
    plain generator.

    Returns a connected graph as CSR, each row in the order its edges
    were made (a rewired edge moves to the end of its rows); a spanning
    pass links any leftover components through random inter-community
    edges.
    """
    if rng is None:
        rng = fallback_rng("graphs.social.community")
    if num_communities < 1:
        raise GraphError("num_communities must be at least 1")
    if not 0.0 <= intra_probability <= 1.0:
        raise GraphError(
            f"intra_probability must be in [0, 1], got {intra_probability!r}"
        )
    if num_nodes < num_communities * (edges_per_node + 1):
        raise GraphError(
            "num_nodes too small: need at least "
            f"{num_communities * (edges_per_node + 1)} nodes for "
            f"{num_communities} communities"
        )

    # The working graph keeps rows as insertion-ordered dicts and nodes
    # in first-touch order: the rewiring draws index into its edge list
    # and the spanning pass into component lists, so both orders are
    # part of the output.  Each community is built with the base
    # generator and relabeled; each edge is added once, from its lower
    # end, in row order.
    rows: List[Dict[int, None]] = [{} for _ in range(num_nodes)]
    order: Dict[int, None] = {}

    def add_edge(u: int, v: int) -> None:
        order.setdefault(u)
        order.setdefault(v)
        rows[u][v] = None
        rows[v][u] = None

    for community in range(num_communities):
        nodes = list(range(community, num_nodes, num_communities))
        indptr, indices = generate_social_graph(
            len(nodes),
            edges_per_node=edges_per_node,
            triad_probability=triad_probability,
            rng=rng,
        )
        neighbors = indices.tolist()
        bounds = indptr.tolist()
        for u in range(len(nodes)):
            for v in neighbors[bounds[u] : bounds[u + 1]]:
                if v > u:
                    add_edge(nodes[u], nodes[v])

    # Rewire a fraction of edges across communities.
    edges = []
    seen: Set[int] = set()
    for u in order:
        edges.extend((u, v) for v in rows[u] if v not in seen)
        seen.add(u)
    num_rewire = int((1.0 - intra_probability) * len(edges))
    rewire_indices = rng.choice(len(edges), size=num_rewire, replace=False)
    below = ScalarDraws(rng).below
    for index in rewire_indices.tolist():
        u, v = edges[index]
        w = below(num_nodes)
        if w != u and w not in rows[u]:
            del rows[u][v]
            del rows[v][u]
            add_edge(u, w)

    # Guarantee connectivity with minimal extra edges.
    components = _components(rows, order)
    for index in range(1, len(components)):
        u = components[0][below(len(components[0]))]
        v = components[index][below(len(components[index]))]
        add_edge(u, v)

    return _csr([list(row) for row in rows])


def _components(
    rows: List[Dict[int, None]], order: Iterable[int]
) -> List[List[int]]:
    """Connected components as node lists, found by breadth-first search
    from each unreached node in ``order``.

    A component lists its nodes in the iteration order of the set the
    search fills, node by node in discovery order, so ``rng`` draws that
    index into a component pick the same node on every run.
    """
    reached: Set[int] = set()
    components = []
    for source in order:
        if source in reached:
            continue
        found = {source}
        level = [source]
        while level:
            next_level = []
            for node in level:
                for neighbor in rows[node]:
                    if neighbor not in found:
                        found.add(neighbor)
                        next_level.append(neighbor)
            level = next_level
        reached.update(found)
        components.append(list(found))
    return components
