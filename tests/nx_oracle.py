"""networkx as the test oracle: graphs, snapshots and metrics.

:class:`repro.graphs.FlatSnapshot` is the package's only graph type and
:class:`repro.graphs.SnapshotAnalysis` its only metric implementation;
tests compare them against what networkx computes here.

* :func:`to_flat` / :func:`to_nx` convert between the two graph types.
* :func:`overlay_snapshot` / :func:`trust_snapshot` build an
  :class:`~repro.core.Overlay`'s graphs link by link from pseudonym
  objects and :meth:`~repro.core.Overlay.owner_of_value`, the reference
  for :meth:`~repro.core.Overlay.snapshot`, which reads the node
  arena's link and owner columns instead.
* The metric functions lean on networkx for the graph work
  (``nx.connected_components``, ``nx.single_source_shortest_path_length``)
  and share with the kernels only the definitions: the canonical
  largest component (ascending, size ties toward the smallest node),
  the ``total / pairs`` and ``average / size * total_nodes``
  expressions, and one ``rng.choice(size, size=k, replace=False)``
  source draw, so a shared stream stays in lockstep.
"""

from collections import Counter

import networkx as nx
import numpy as np

from repro.errors import GraphError
from repro.graphs import FlatSnapshot, SnapshotAnalysis


def to_flat(graph: nx.Graph) -> FlatSnapshot:
    """Convert an :class:`nx.Graph` labeled by non-negative integers.

    Labels index churn masks (:meth:`FlatSnapshot.induced_by_labels`),
    so any other label raises :class:`GraphError`.  Self-loops are
    skipped: the package's graphs are simple.
    """
    for label in graph.nodes():
        if not isinstance(label, (int, np.integer)) or label < 0:
            raise GraphError(
                f"node labels must be non-negative integers, got {label!r}"
            )
    nodes = np.array(sorted(graph.nodes()), dtype=np.int64)
    index = {int(label): position for position, label in enumerate(nodes.tolist())}
    pairs = [(index[int(u)], index[int(v)]) for u, v in graph.edges() if u != v]
    ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return FlatSnapshot.from_edge_positions(nodes, ends[:, 0], ends[:, 1])


def to_nx(flat: FlatSnapshot) -> nx.Graph:
    """The snapshot as an :class:`nx.Graph` on its labels."""
    labels = flat.node_ids.tolist()
    graph = nx.Graph()
    graph.add_nodes_from(labels)
    graph.add_edges_from(
        (labels[u], labels[v])
        for u, v in zip(flat.edge_u.tolist(), flat.edge_v.tolist())
    )
    return graph


def overlay_snapshot(overlay, online_only=True, online_ids=None) -> nx.Graph:
    """:meth:`Overlay.snapshot` built link by link: trusted links plus
    unexpired pseudonym links resolved through the measurement
    registry, between included nodes."""
    now = overlay.sim.now
    graph = nx.Graph()
    if online_only:
        included = set(overlay.online_ids() if online_ids is None else online_ids)
    else:
        included = set(range(len(overlay.nodes)))
    graph.add_nodes_from(included)
    for node in overlay.nodes:
        if node.node_id not in included:
            continue
        for neighbor in node.links.trusted:
            if neighbor in included:
                graph.add_edge(node.node_id, neighbor)
        for pseudonym in node.links.pseudonym_links():
            if pseudonym.is_expired(now):
                continue
            owner = overlay.owner_of_value(pseudonym.value)
            if owner is None or owner == node.node_id:
                continue
            if owner in included:
                graph.add_edge(node.node_id, owner)
    return graph


def trust_snapshot(overlay, online_ids=None) -> nx.Graph:
    """:meth:`Overlay.trust_snapshot` from the nodes' trusted link sets."""
    online = set(overlay.online_ids() if online_ids is None else online_ids)
    graph = nx.Graph()
    graph.add_nodes_from(online)
    for node in overlay.nodes:
        if node.node_id in online:
            graph.add_edges_from(
                (node.node_id, neighbor)
                for neighbor in node.links.trusted
                if neighbor in online
            )
    return graph


def analyze(graph: nx.Graph) -> SnapshotAnalysis:
    """The kernels over ``graph``."""
    return SnapshotAnalysis(to_flat(graph))


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


def articulation_ratio(graph: nx.Graph) -> float:
    """Share of nodes that ``nx.articulation_points`` names."""
    return len(set(nx.articulation_points(graph))) / graph.number_of_nodes()


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
