"""Random-graph baselines.

The paper compares its overlay against Erdős–Rényi graphs "of similar
size" (same node count and comparable edge count / average fan-out).
We provide G(n, m) — the fixed-edge-count variant, which makes the
comparison exact.
"""

from __future__ import annotations

from typing import Optional

import networkx as nx
import numpy as np

from ..errors import GraphError
from ..rng import fallback_rng

__all__ = ["erdos_renyi_gnm"]


def erdos_renyi_gnm(
    num_nodes: int,
    num_edges: int,
    rng: Optional[np.random.Generator] = None,
) -> nx.Graph:
    """Sample a uniform random graph with exactly ``num_edges`` edges.

    Edges are drawn without replacement from all node pairs, using
    rejection sampling (fast in the sparse regime this library uses).
    """
    if rng is None:
        rng = fallback_rng("graphs.random_graphs.gnm")
    if num_nodes < 1:
        raise GraphError("num_nodes must be at least 1")
    max_edges = num_nodes * (num_nodes - 1) // 2
    if num_edges > max_edges:
        raise GraphError(
            f"num_edges {num_edges} exceeds maximum {max_edges} for "
            f"{num_nodes} nodes"
        )

    graph = nx.Graph()
    graph.add_nodes_from(range(num_nodes))
    if num_edges == 0:
        return graph

    if num_edges > max_edges // 2:
        # Dense regime: enumerate and choose (rare in our experiments).
        pairs = [(u, v) for u in range(num_nodes) for v in range(u + 1, num_nodes)]
        indices = rng.choice(len(pairs), size=num_edges, replace=False)
        graph.add_edges_from(pairs[int(index)] for index in indices)
        return graph

    added = 0
    while added < num_edges:
        u = int(rng.integers(0, num_nodes))
        v = int(rng.integers(0, num_nodes))
        if u == v or graph.has_edge(u, v):
            continue
        graph.add_edge(u, v)
        added += 1
    return graph

