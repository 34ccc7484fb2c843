"""The Section IV-C metrics computed with networkx: the test oracle.

:class:`repro.graphs.SnapshotAnalysis` is the only implementation in the
package; tests compare it against these functions, which lean on
networkx for the graph work (``nx.connected_components``,
``nx.single_source_shortest_path_length``) and share with the kernels
only the definitions: the canonical largest component (ascending, size
ties toward the smallest node), the ``total / pairs`` and
``average / size * total_nodes`` expressions, and one
``rng.choice(size, size=k, replace=False)`` source draw, so a shared
stream stays in lockstep.
"""

from collections import Counter

import networkx as nx
import numpy as np

from repro.graphs import FlatSnapshot, SnapshotAnalysis


def analyze(graph: nx.Graph) -> SnapshotAnalysis:
    """The kernels over ``graph``."""
    return SnapshotAnalysis(FlatSnapshot.from_networkx(graph))


def assert_same_graph(flat: FlatSnapshot, graph: nx.Graph) -> None:
    """``flat`` has exactly ``graph``'s node and edge sets."""
    assert flat.node_ids.tolist() == sorted(graph.nodes())
    labels = flat.node_ids.tolist()
    edges = {
        (labels[u], labels[v])
        for u, v in zip(flat.edge_u.tolist(), flat.edge_v.tolist())
    }
    assert edges == {(min(u, v), max(u, v)) for u, v in graph.edges()}


def induced(graph: nx.Graph, mask) -> nx.Graph:
    """The subgraph induced by the labels ``mask`` marks."""
    return graph.subgraph(np.flatnonzero(mask).tolist()).copy()


def largest_component(graph: nx.Graph) -> list:
    if graph.number_of_nodes() == 0:
        return []
    best = min(
        nx.connected_components(graph),
        key=lambda component: (-len(component), min(component)),
    )
    return sorted(best)


def fraction_disconnected(graph: nx.Graph) -> float:
    n = graph.number_of_nodes()
    if n == 0:
        return 0.0
    return 1.0 - len(largest_component(graph)) / n


def average_path_length(graph: nx.Graph, sample_sources=None, rng=None) -> float:
    component = largest_component(graph)
    size = len(component)
    if size < 2:
        return 0.0
    sources = component
    if sample_sources is not None and sample_sources < size:
        chosen = rng.choice(size, size=sample_sources, replace=False)
        sources = [component[int(index)] for index in chosen]
    total = 0
    pairs = 0
    for source in sources:
        lengths = nx.single_source_shortest_path_length(graph, source)
        total += sum(lengths.values())
        pairs += len(lengths) - 1
    return total / pairs if pairs else 0.0


def normalized_path_length(
    graph: nx.Graph, total_nodes: int, sample_sources=None, rng=None
) -> float:
    size = len(largest_component(graph))
    if size < 2:
        return float(total_nodes)
    average = average_path_length(graph, sample_sources, rng)
    return average / size * total_nodes


def degree_histogram(graph: nx.Graph) -> dict:
    return dict(Counter(degree for _, degree in graph.degree()))


def powerlaw_exponent_estimate(degrees) -> float:
    """Continuous Hill estimator ``1 + n / sum(ln(d / d_min))`` over the
    positive degrees, ``d_min`` the smallest of them.

    Enough to tell a heavy-tailed degree sample from a light one; not a
    Clauset–Shalizi–Newman fit.
    """
    positive = np.array([degree for degree in degrees if degree > 0], dtype=float)
    if positive.size < 2:
        raise ValueError("need at least two positive degrees")
    total = np.log(positive / positive.min()).sum()
    if total <= 0:
        raise ValueError("degenerate degree sequence (all degrees equal)")
    return 1.0 + positive.size / total
