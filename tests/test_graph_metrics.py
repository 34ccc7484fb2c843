"""The Section IV-C metric definitions, on SnapshotAnalysis.

Each case states the definition on a small graph and checks the kernel
against the literal and against the networkx oracle.
"""

import networkx as nx
import numpy as np
import pytest

from repro.errors import GraphError

from . import nx_oracle as oracle
from .nx_oracle import analyze


class TestLargestComponent:
    def test_connected_graph(self):
        graph = nx.path_graph(5)
        nodes = analyze(graph).largest_component_nodes().tolist()
        assert nodes == oracle.largest_component(graph) == [0, 1, 2, 3, 4]

    def test_picks_largest(self):
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (2, 3), (3, 4)])
        nodes = analyze(graph).largest_component_nodes().tolist()
        assert nodes == oracle.largest_component(graph) == [2, 3, 4]

    def test_empty_graph(self):
        assert analyze(nx.Graph()).largest_component_nodes().tolist() == []
        assert oracle.largest_component(nx.Graph()) == []


class TestFractionDisconnected:
    def test_connected_is_zero(self):
        assert analyze(nx.complete_graph(4)).fraction_disconnected() == 0.0

    def test_partitioned(self):
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (1, 2)])
        graph.add_node(3)
        graph.add_node(4)
        value = analyze(graph).fraction_disconnected()
        assert value == oracle.fraction_disconnected(graph) == pytest.approx(2 / 5)

    def test_empty_graph_is_zero(self):
        assert analyze(nx.Graph()).fraction_disconnected() == 0.0

    def test_two_equal_halves(self):
        # A size tie: either half is "largest", the one holding node 0.
        graph = nx.Graph()
        graph.add_edges_from([(2, 3), (0, 1)])
        analysis = analyze(graph)
        assert analysis.fraction_disconnected() == pytest.approx(0.5)
        assert analysis.largest_component_nodes().tolist() == [0, 1]
        assert oracle.largest_component(graph) == [0, 1]


class TestAveragePathLength:
    def test_path_graph_exact(self):
        # P3: distances 1,1,2 -> mean 4/3.
        graph = nx.path_graph(3)
        value = analyze(graph).average_path_length()
        assert value == oracle.average_path_length(graph) == pytest.approx(4 / 3)

    def test_complete_graph(self):
        assert analyze(nx.complete_graph(6)).average_path_length() == pytest.approx(1.0)

    def test_single_node_zero(self):
        graph = nx.Graph()
        graph.add_node(0)
        assert analyze(graph).average_path_length() == 0.0

    def test_uses_largest_component_only(self):
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (1, 2), (2, 3)])  # P4
        graph.add_edge(10, 11)
        expected = oracle.average_path_length(nx.path_graph(4))
        assert analyze(graph).average_path_length() == expected

    def test_sampled_estimate_close_to_exact(self, rng):
        graph = nx.erdos_renyi_graph(120, 0.08, seed=1)
        analysis = analyze(graph)
        exact = analysis.average_path_length()
        assert exact == oracle.average_path_length(graph)
        estimate = analysis.average_path_length(sample_sources=60, rng=rng)
        assert estimate == pytest.approx(exact, rel=0.15)

    def test_fallback_rng_resamples_same_sources_every_call(self):
        # The documented footgun: without an explicit rng, the fallback
        # generator is re-seeded identically on every call, so repeated
        # calls sample the *same* sources and return the same estimate.
        analysis = analyze(nx.path_graph(200))
        first = analysis.average_path_length(sample_sources=1)
        second = analysis.average_path_length(sample_sources=1)
        assert first == second

    def test_persistent_stream_varies_sources_across_calls(self):
        # A caller-owned stream (the MetricsCollector pattern) advances
        # between calls, so repeated estimates are independent draws.
        analysis = analyze(nx.path_graph(200))
        stream = np.random.default_rng(123)
        estimates = {
            analysis.average_path_length(sample_sources=1, rng=stream)
            for _ in range(8)
        }
        assert len(estimates) > 1


class TestNormalizedPathLength:
    def test_connected_equals_plain_average(self):
        analysis = analyze(nx.path_graph(10))
        plain = analysis.average_path_length()
        assert analysis.normalized_path_length(total_nodes=10) == plain / 10 * 10

    def test_penalizes_partitioning(self):
        connected = nx.path_graph(10)
        partitioned = nx.Graph()
        partitioned.add_edges_from([(index, index + 1) for index in range(4)])  # P5
        partitioned.add_edges_from([(10 + index, 11 + index) for index in range(4)])
        value_connected = analyze(connected).normalized_path_length(total_nodes=10)
        value_partitioned = analyze(partitioned).normalized_path_length(total_nodes=10)
        assert value_partitioned == oracle.normalized_path_length(partitioned, 10)
        assert value_partitioned > value_connected

    def test_offline_nodes_raise_metric(self):
        analysis = analyze(nx.path_graph(5))
        small_system = analysis.normalized_path_length(total_nodes=5)
        large_system = analysis.normalized_path_length(total_nodes=50)
        assert large_system == pytest.approx(10 * small_system)

    def test_degenerate_component_returns_total(self):
        graph = nx.Graph()
        graph.add_node(0)
        assert analyze(graph).normalized_path_length(total_nodes=25) == 25.0
        assert oracle.normalized_path_length(graph, total_nodes=25) == 25.0

    def test_invalid_total_rejected(self):
        with pytest.raises(GraphError):
            analyze(nx.path_graph(3)).normalized_path_length(total_nodes=0)


class TestDegreeMetrics:
    def test_degree_histogram(self):
        graph = nx.star_graph(4)  # center degree 4, leaves degree 1
        histogram = analyze(graph).degree_histogram()
        assert histogram == oracle.degree_histogram(graph) == {4: 1, 1: 4}

    def test_degree_sequence_sorted(self):
        graph = nx.star_graph(3)
        assert analyze(graph).degree_sequence().tolist() == [3, 1, 1, 1]

    def test_powerlaw_estimate_on_powerlaw_sample(self):
        # Continuous sample with density ~ x^-2.5 above x=1: the Hill
        # estimator should recover an exponent near 2.5.
        rng = np.random.default_rng(0)
        degrees = rng.pareto(1.5, size=5000) + 1.0
        exponent = oracle.powerlaw_exponent_estimate(degrees)
        assert 2.2 < exponent < 2.8

    def test_powerlaw_estimate_rejects_constant(self):
        with pytest.raises(ValueError):
            oracle.powerlaw_exponent_estimate([3, 3, 3])

    def test_powerlaw_estimate_rejects_tiny(self):
        with pytest.raises(ValueError):
            oracle.powerlaw_exponent_estimate([5])
