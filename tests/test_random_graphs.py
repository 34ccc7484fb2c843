"""Tests for random-graph baselines."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs import erdos_renyi_gnm

from .csr import edge_list


class TestErdosRenyi:
    def test_exact_edge_count(self, rng):
        graph = erdos_renyi_gnm(100, 250, rng=rng)
        assert graph.number_of_nodes() == 100
        assert graph.number_of_edges() == 250

    def test_zero_edges(self, rng):
        graph = erdos_renyi_gnm(10, 0, rng=rng)
        assert graph.number_of_edges() == 0
        assert graph.number_of_nodes() == 10

    def test_no_self_loops_or_multi_edges(self, rng):
        graph = erdos_renyi_gnm(50, 300, rng=rng)
        edges = edge_list(graph)
        assert all(u != v for u, v in edges)
        assert len(set(edges)) == graph.number_of_edges() == 300

    def test_complete_graph(self, rng):
        graph = erdos_renyi_gnm(8, 28, rng=rng)
        assert graph.number_of_edges() == 28

    def test_dense_regime_path(self, rng):
        # More than half of max edges triggers the enumerate-and-choose path.
        graph = erdos_renyi_gnm(10, 40, rng=rng)
        assert graph.number_of_edges() == 40

    def test_too_many_edges_rejected(self, rng):
        with pytest.raises(GraphError):
            erdos_renyi_gnm(5, 11, rng=rng)
        # A negative count is as impossible as too large a one.
        with pytest.raises(GraphError):
            erdos_renyi_gnm(10, -3, rng=rng)

    def test_deterministic(self):
        a = erdos_renyi_gnm(40, 80, rng=np.random.default_rng(3))
        b = erdos_renyi_gnm(40, 80, rng=np.random.default_rng(3))
        assert edge_list(a) == edge_list(b)

