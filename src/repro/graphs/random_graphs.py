"""Random-graph baselines.

The paper compares its overlay against Erdős–Rényi graphs "of similar
size" (same node count and comparable edge count / average fan-out).
We provide G(n, m) — the fixed-edge-count variant, which makes the
comparison exact.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import GraphError
from ..rng import ScalarDraws, fallback_rng
from .fastgraph import FlatSnapshot

__all__ = ["erdos_renyi_gnm"]


def erdos_renyi_gnm(
    num_nodes: int,
    num_edges: int,
    rng: Optional[np.random.Generator] = None,
) -> FlatSnapshot:
    """Sample a uniform random graph with exactly ``num_edges`` edges.

    Edges are drawn without replacement from all node pairs, using
    rejection sampling (fast in the sparse regime this library uses).
    """
    if rng is None:
        rng = fallback_rng("graphs.random_graphs.gnm")
    if num_nodes < 1:
        raise GraphError("num_nodes must be at least 1")
    max_edges = num_nodes * (num_nodes - 1) // 2
    if not 0 <= num_edges <= max_edges:
        raise GraphError(
            f"num_edges {num_edges} outside [0, {max_edges}] for "
            f"{num_nodes} nodes"
        )

    if num_edges > max_edges // 2:
        # Dense regime: enumerate and choose (rare in our experiments).
        pairs = [(u, v) for u in range(num_nodes) for v in range(u + 1, num_nodes)]
        indices = rng.choice(len(pairs), size=num_edges, replace=False)
        edges = [pairs[int(index)] for index in indices]
    else:
        below = ScalarDraws(rng).below
        chosen = set()
        edges = []
        while len(edges) < num_edges:
            u = below(num_nodes)
            v = below(num_nodes)
            key = (u, v) if u < v else (v, u)
            if u == v or key in chosen:
                continue
            chosen.add(key)
            edges.append(key)
    ends = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return FlatSnapshot.from_edge_positions(
        np.arange(num_nodes, dtype=np.int64), ends[:, 0], ends[:, 1]
    )
