"""CSR <-> networkx conversions for tests.

The social generators return a CSR adjacency ``(indptr, indices)`` and
the f-sampler walks one; tests that compute networkx metrics on a
generated graph, or hand-build a source as a networkx graph, convert
here.
"""

import networkx as nx
import numpy as np


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
