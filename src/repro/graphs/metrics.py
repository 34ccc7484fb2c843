"""Graph-structure metrics (Section IV-C).

The paper measures robustness through three undirected-graph metrics:

* **Connectivity** — the fraction of (online) nodes outside the largest
  connected component.
* **Normalized average path length** — the average shortest-path length
  within the largest connected component, divided by the component size
  and multiplied by the *total* number of nodes (including offline
  ones).  The normalization prevents heavily partitioned graphs from
  reporting misleadingly short paths.
* **Degree distribution** over online nodes.

All functions here are pure: they take a :class:`networkx.Graph`
snapshot plus optional context (total node count, RNG for sampling) and
return plain numbers/arrays.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from ..errors import GraphError
from ..rng import fallback_rng

__all__ = [
    "largest_component",
    "fraction_disconnected",
    "average_path_length",
    "normalized_path_length",
    "degree_histogram",
    "degree_sequence",
    "clustering_coefficient",
    "powerlaw_exponent_estimate",
]


def largest_component(graph: nx.Graph) -> List[int]:
    """Nodes of the largest connected component (empty graph -> []).

    The result is canonical: nodes ascending, and among equally large
    components the one containing the smallest node wins.  Path-length
    estimators index into this list with sampled positions, so the
    ordering is part of the reproducibility contract — the fastgraph
    kernels produce the identical list from their union-find labels.
    """
    if graph.number_of_nodes() == 0:
        return []
    # min over (-size, smallest member) rather than max over (size,
    # -smallest member): the same winner, for any orderable label.
    best = min(
        nx.connected_components(graph),
        key=lambda component: (-len(component), min(component)),
    )
    return sorted(best)


def fraction_disconnected(
    graph: nx.Graph, component: Optional[List[int]] = None
) -> float:
    """Fraction of the graph's nodes outside its largest component.

    With the convention of the paper, the graph passed here is the
    snapshot restricted to online nodes; a connected snapshot yields 0.
    An empty graph yields 0 by convention (nothing is disconnected).
    ``component`` may carry a precomputed :func:`largest_component`
    result so one labeling pass serves several metrics.
    """
    n = graph.number_of_nodes()
    if n == 0:
        return 0.0
    if component is None:
        component = largest_component(graph)
    return 1.0 - len(component) / n


def _bfs_distance_sum(
    adjacency: Dict[int, List[int]], source: int
) -> Tuple[int, int]:
    """Sum of BFS distances from ``source`` and number of reached nodes."""
    distance = {source: 0}
    queue = deque([source])
    total = 0
    while queue:
        node = queue.popleft()
        base = distance[node]
        for neighbor in adjacency[node]:
            if neighbor not in distance:
                distance[neighbor] = base + 1
                total += base + 1
                queue.append(neighbor)
    return total, len(distance) - 1


def average_path_length(
    graph: nx.Graph,
    sample_sources: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    component: Optional[List[int]] = None,
) -> float:
    """Average shortest-path length in the largest connected component.

    Parameters
    ----------
    graph:
        Snapshot graph (any number of components; only the largest is
        measured).
    sample_sources:
        If given, estimate the average from BFS trees rooted at this
        many uniformly sampled sources instead of all nodes.  The
        estimate is unbiased; experiments use it to keep large sweeps
        affordable.
    rng:
        Randomness for source sampling; defaults to a seeded fallback
        generator so estimates stay reproducible without it.

        .. warning::
           The fallback is re-seeded identically on **every call**: two
           rng-less calls sample the *same* BFS sources.  That keeps a
           single estimate reproducible, but a time series built from
           repeated rng-less calls is correlated — every sample reuses
           one source set, so source-sampling noise never averages out
           across the series.  Callers that sample repeatedly must own
           a persistent stream and pass it in each time
           (:class:`~repro.metrics.MetricsCollector` does exactly
           this with ``overlay.substream("collector")``).
    component:
        Precomputed :func:`largest_component` result (must come from
        that function — the canonical ordering maps sampled indices to
        sources).

    Returns
    -------
    float
        Mean pairwise distance, or 0.0 for components of fewer than two
        nodes.
    """
    if component is None:
        component = largest_component(graph)
    size = len(component)
    if size < 2:
        return 0.0

    adjacency = {node: list(graph.neighbors(node)) for node in component}
    if sample_sources is not None and sample_sources < size:
        if rng is None:
            rng = fallback_rng("graphs.metrics.path-sources")
        indices = rng.choice(size, size=sample_sources, replace=False)
        sources = [component[int(index)] for index in indices]
    else:
        sources = component

    total = 0
    pairs = 0
    for source in sources:
        source_total, reached = _bfs_distance_sum(adjacency, source)
        total += source_total
        pairs += reached
    if pairs == 0:
        return 0.0
    return total / pairs


def normalized_path_length(
    graph: nx.Graph,
    total_nodes: int,
    sample_sources: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    component: Optional[List[int]] = None,
) -> float:
    """The paper's normalized average path length.

    ``avg_path_length(largest component) / |component| * total_nodes``
    where ``total_nodes`` counts every node in the system, online or
    offline.  A heavily partitioned snapshot (small largest component)
    is thus penalized rather than rewarded for its short internal paths.

    See :func:`average_path_length` for the rng-less sampling hazard;
    ``component`` reuses a precomputed :func:`largest_component` list.
    """
    if total_nodes < 1:
        raise GraphError("total_nodes must be at least 1")
    if component is None:
        component = largest_component(graph)
    component_size = len(component)
    if component_size < 2:
        # Degenerate snapshot: no measurable paths; report the worst case
        # proportional to the graph scale so plots remain monotone.
        return float(total_nodes)
    average = average_path_length(
        graph, sample_sources=sample_sources, rng=rng, component=component
    )
    return average / component_size * total_nodes


def degree_sequence(graph: nx.Graph) -> np.ndarray:
    """Sorted (descending) degree sequence as an integer array."""
    return np.array(sorted((degree for _, degree in graph.degree()), reverse=True))


def degree_histogram(graph: nx.Graph) -> Dict[int, int]:
    """Map of degree -> number of nodes with that degree."""
    histogram: Dict[int, int] = {}
    for _, degree in graph.degree():
        histogram[degree] = histogram.get(degree, 0) + 1
    return histogram


def clustering_coefficient(graph: nx.Graph) -> float:
    """Average local clustering coefficient (0 for empty graphs)."""
    if graph.number_of_nodes() == 0:
        return 0.0
    return nx.average_clustering(graph)


def powerlaw_exponent_estimate(degrees: Sequence[int]) -> float:
    """Crude maximum-likelihood power-law exponent of a degree sample.

    Uses the continuous Hill estimator
    ``alpha = 1 + n / sum(ln(d_i / d_min))`` over degrees >= d_min
    (d_min fixed at the smallest positive degree).  Good enough to test
    that generated graphs are heavy-tailed; not a substitute for a full
    Clauset–Shalizi–Newman fit.
    """
    positive = np.array([degree for degree in degrees if degree > 0], dtype=float)
    if positive.size < 2:
        raise GraphError("need at least two positive degrees")
    d_min = positive.min()
    logs = np.log(positive / d_min)
    total = logs.sum()
    if total <= 0:
        raise GraphError("degenerate degree sequence (all degrees equal)")
    return 1.0 + positive.size / total
