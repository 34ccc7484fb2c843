"""Structural robustness analysis beyond the paper's churn metrics.

The paper's related-work section highlights the "celebrity attack":
compromising (or losing) a hub of the social graph devastates a
trust-graph overlay, and MCONs introduce degree caps specifically to
resist it.  The rewired overlay resists it by construction — its degree
distribution is near-uniform — and this module quantifies that:

* :func:`targeted_failure_curve` — connectivity as the highest-degree
  (or random) nodes are removed;
* :func:`articulation_ratio` — fraction of nodes whose removal
  disconnects the graph (single points of failure);
* :func:`k_core_profile` — how much of the graph survives at each
  core order (deeper cores = more redundant connectivity);
* :func:`edge_connectivity_sample` — sampled pairwise edge
  connectivity (min-cut widths between random pairs).

All functions are pure graph analyses; feed them any snapshot.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from ..errors import GraphError
from ..graphs import fraction_disconnected
from ..graphs.fastgraph import FlatSnapshot, SnapshotAnalysis
from ..rng import fallback_rng

__all__ = [
    "FailurePoint",
    "targeted_failure_curve",
    "articulation_ratio",
    "k_core_profile",
    "edge_connectivity_sample",
]


@dataclasses.dataclass(frozen=True)
class FailurePoint:
    """Connectivity after removing a fraction of nodes."""

    removed_fraction: float
    removed_count: int
    disconnected: float
    largest_component_fraction: float


def targeted_failure_curve(
    graph: nx.Graph,
    fractions: Sequence[float] = (0.0, 0.05, 0.1, 0.2, 0.3),
    strategy: str = "degree",
    rng: Optional[np.random.Generator] = None,
    removal_order: Optional[Sequence[int]] = None,
) -> List[FailurePoint]:
    """Connectivity of ``graph`` as nodes are progressively removed.

    Parameters
    ----------
    graph:
        The graph under attack (not modified).
    fractions:
        Cumulative node fractions to remove, in increasing order.
    strategy:
        ``"degree"`` removes the highest-degree nodes first (the
        celebrity attack); ``"random"`` removes uniformly (plain
        failures); ``"custom"`` follows ``removal_order``.
    rng:
        Randomness for the random strategy.
    removal_order:
        Explicit removal sequence for ``strategy="custom"`` — e.g. the
        *trust graph's* hub order applied to the overlay, modeling the
        compromise of the same celebrity users in both topologies.

    Returns
    -------
    list of FailurePoint
        One entry per requested fraction.  ``disconnected`` follows the
        paper's metric (fraction of surviving nodes outside the largest
        component).
    """
    if strategy not in ("degree", "random", "custom"):
        raise GraphError(f"unknown strategy {strategy!r}")
    if any(earlier > later for earlier, later in zip(fractions, fractions[1:])):
        raise GraphError("fractions must be non-decreasing")
    if fractions and (fractions[0] < 0.0 or fractions[-1] >= 1.0):
        raise GraphError("fractions must lie in [0, 1)")
    total = graph.number_of_nodes()
    if total == 0:
        raise GraphError("graph is empty")

    if strategy == "degree":
        order = [
            node
            for node, _ in sorted(
                graph.degree(), key=lambda pair: (-pair[1], pair[0])
            )
        ]
    elif strategy == "custom":
        if removal_order is None:
            raise GraphError("strategy='custom' requires removal_order")
        order = [node for node in removal_order if node in graph]
        if len(order) < int(max(fractions, default=0.0) * total):
            raise GraphError("removal_order too short for requested fractions")
    else:
        if rng is None:
            rng = fallback_rng("analysis.robustness.failure")
        order = list(graph.nodes())
        rng.shuffle(order)

    # A graph with non-negative integer labels is converted to a flat
    # snapshot once and survivors re-induced with a mask per fraction;
    # other labels cannot index the mask, so those graphs are copied and
    # mutated as an ``nx.Graph``.  Values are identical either way.
    use_fast = all(
        isinstance(node, (int, np.integer)) and node >= 0
        for node in graph.nodes()
    )
    points: List[FailurePoint] = []
    removed_so_far = 0
    if use_fast:
        base = FlatSnapshot.from_networkx(graph)
        keep = np.ones(int(base.node_ids[-1]) + 1, dtype=bool)
        for fraction in fractions:
            target_removed = int(fraction * total)
            while removed_so_far < target_removed:
                keep[order[removed_so_far]] = False
                removed_so_far += 1
            survivors = total - removed_so_far
            if survivors == 0:
                points.append(FailurePoint(fraction, removed_so_far, 1.0, 0.0))
                continue
            analysis = SnapshotAnalysis(base.induced_by_labels(keep))
            disconnected = analysis.fraction_disconnected()
            largest = (1.0 - disconnected) * survivors / total
            points.append(
                FailurePoint(
                    removed_fraction=fraction,
                    removed_count=removed_so_far,
                    disconnected=disconnected,
                    largest_component_fraction=largest,
                )
            )
        return points
    working = graph.copy()
    for fraction in fractions:
        target_removed = int(fraction * total)
        while removed_so_far < target_removed:
            working.remove_node(order[removed_so_far])
            removed_so_far += 1
        survivors = working.number_of_nodes()
        if survivors == 0:
            points.append(FailurePoint(fraction, removed_so_far, 1.0, 0.0))
            continue
        disconnected = fraction_disconnected(working)
        largest = (1.0 - disconnected) * survivors / total
        points.append(
            FailurePoint(
                removed_fraction=fraction,
                removed_count=removed_so_far,
                disconnected=disconnected,
                largest_component_fraction=largest,
            )
        )
    return points


def articulation_ratio(graph: nx.Graph) -> float:
    """Fraction of nodes that are articulation points (cut vertices).

    High ratios mean many single points of failure — typical of trust
    graphs, rare in the rewired overlay.
    """
    total = graph.number_of_nodes()
    if total == 0:
        raise GraphError("graph is empty")
    if total == 1:
        return 0.0
    # Articulation points are defined per connected component.
    count = 0
    for component in nx.connected_components(graph):
        subgraph = graph.subgraph(component)
        count += sum(1 for _ in nx.articulation_points(subgraph))
    return count / total


def k_core_profile(graph: nx.Graph, max_k: int = 10) -> Dict[int, float]:
    """Fraction of nodes surviving in each k-core, for k = 1..max_k.

    The k-core is the maximal subgraph of minimum degree k; deep cores
    indicate redundant connectivity that survives many failures.
    """
    if max_k < 1:
        raise GraphError("max_k must be at least 1")
    total = graph.number_of_nodes()
    if total == 0:
        raise GraphError("graph is empty")
    simple = nx.Graph(graph)
    simple.remove_edges_from(nx.selfloop_edges(simple))
    core_numbers = nx.core_number(simple)
    profile: Dict[int, float] = {}
    for k in range(1, max_k + 1):
        profile[k] = sum(1 for core in core_numbers.values() if core >= k) / total
    return profile


def edge_connectivity_sample(
    graph: nx.Graph,
    pairs: int = 20,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[float, int]:
    """Mean and minimum edge connectivity over random node pairs.

    Edge connectivity between two nodes is the number of edge-disjoint
    paths joining them — the width of the min cut an adversary (or
    churn) must sever to separate them.
    """
    if pairs < 1:
        raise GraphError("pairs must be at least 1")
    nodes = list(graph.nodes())
    if len(nodes) < 2:
        raise GraphError("need at least two nodes")
    if rng is None:
        rng = fallback_rng("analysis.robustness.edge-connectivity")
    values = []
    for _ in range(pairs):
        u, v = rng.choice(len(nodes), size=2, replace=False)
        u, v = nodes[int(u)], nodes[int(v)]
        values.append(nx.edge_connectivity(graph, u, v))
    return float(np.mean(values)), int(min(values))
