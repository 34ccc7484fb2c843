"""CSR <-> networkx conversions for tests, and hand-built graphs.

The social generators return a CSR adjacency ``(indptr, indices)`` and
the f-sampler walks one; tests that compute networkx metrics on a
generated graph, or hand-build a source as a networkx graph, convert
here.  :func:`graph_from_edges` builds the package's own graph type
from an edge list.
"""

import networkx as nx
import numpy as np

from repro.graphs import FlatSnapshot


def graph_from_edges(num_nodes, edges) -> FlatSnapshot:
    """A graph on nodes ``0..num_nodes-1`` with the given edge list."""
    ends = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
    return FlatSnapshot.from_edge_positions(
        np.arange(num_nodes, dtype=np.int64), ends[:, 0], ends[:, 1]
    )


def edge_list(graph: FlatSnapshot):
    """The graph's edges as ``(u, v)`` label pairs with ``u < v``, sorted."""
    labels = graph.node_ids
    return list(zip(labels[graph.edge_u].tolist(), labels[graph.edge_v].tolist()))


def to_networkx(csr) -> nx.Graph:
    """The CSR's graph as an ``nx.Graph`` on nodes ``0..n-1``.

    Every row entry becomes an edge, so a self-loop in the CSR stays a
    self-loop here.
    """
    indptr, indices = csr
    graph = nx.Graph()
    graph.add_nodes_from(range(len(indptr) - 1))
    bounds = indptr.tolist()
    neighbors = indices.tolist()
    graph.add_edges_from(
        (u, v)
        for u in range(len(bounds) - 1)
        for v in neighbors[bounds[u] : bounds[u + 1]]
    )
    return graph


def from_networkx(graph: nx.Graph):
    """A graph on nodes ``0..n-1`` as CSR, rows in networkx adjacency order."""
    rows = [list(graph.adj[u]) for u in range(graph.number_of_nodes())]
    indptr = np.cumsum([0] + [len(row) for row in rows], dtype=np.int64)
    indices = np.array([v for row in rows for v in row], dtype=np.int64)
    return indptr, indices
