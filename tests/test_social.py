"""Tests for the synthetic social-graph generators."""

import networkx as nx
import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs import (
    erdos_renyi_gnm,
    generate_community_social_graph,
    generate_social_graph,
)

from .csr import to_networkx
from .nx_oracle import analyze, powerlaw_exponent_estimate, to_nx


class TestGenerateSocialGraph:
    def test_node_count(self, rng):
        graph = to_networkx(generate_social_graph(500, rng=rng))
        assert graph.number_of_nodes() == 500

    def test_connected(self, rng):
        graph = to_networkx(generate_social_graph(500, rng=rng))
        assert nx.is_connected(graph)

    def test_average_degree_near_target(self, rng):
        graph = to_networkx(generate_social_graph(1000, edges_per_node=9, rng=rng))
        average = 2 * graph.number_of_edges() / graph.number_of_nodes()
        assert 14 <= average <= 20  # ~2 * edges_per_node

    def test_heavy_tailed_degrees(self, rng):
        graph = to_networkx(generate_social_graph(1500, rng=rng))
        degrees = analyze(graph).degree_sequence()
        # The max degree should far exceed the median (hub structure).
        assert degrees[0] > 4 * np.median(degrees)
        exponent = powerlaw_exponent_estimate(degrees)
        assert 1.3 < exponent < 4.0

    def test_clustering_exceeds_random(self, rng):
        graph = to_networkx(generate_social_graph(600, rng=rng))
        random_graph = erdos_renyi_gnm(
            600, graph.number_of_edges(), rng=np.random.default_rng(0)
        )
        assert nx.average_clustering(graph) > 5 * nx.average_clustering(
            to_nx(random_graph)
        )

    def test_deterministic_given_rng(self):
        a = to_networkx(generate_social_graph(300, rng=np.random.default_rng(5)))
        b = to_networkx(generate_social_graph(300, rng=np.random.default_rng(5)))
        assert set(a.edges()) == set(b.edges())

    def test_no_self_loops(self, rng):
        graph = to_networkx(generate_social_graph(400, rng=rng))
        assert all(u != v for u, v in graph.edges())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_nodes": 5, "edges_per_node": 9},
            {"num_nodes": 100, "edges_per_node": 0},
            {"num_nodes": 100, "triad_probability": 1.5},
        ],
    )
    def test_invalid_parameters(self, rng, kwargs):
        with pytest.raises(GraphError):
            generate_social_graph(rng=rng, **kwargs)


class TestCommunityGraph:
    def test_connected_and_sized(self, rng):
        graph = to_networkx(generate_community_social_graph(
            400, num_communities=4, edges_per_node=6, rng=rng
        ))
        assert graph.number_of_nodes() == 400
        assert nx.is_connected(graph)

    def test_too_few_nodes_rejected(self, rng):
        with pytest.raises(GraphError):
            generate_community_social_graph(
                20, num_communities=5, edges_per_node=9, rng=rng
            )

    def test_invalid_community_count(self, rng):
        with pytest.raises(GraphError):
            generate_community_social_graph(100, num_communities=0, rng=rng)

    @pytest.mark.parametrize("intra_probability", [1.5, -0.5, float("nan")])
    def test_invalid_intra_probability_draws_nothing(self, intra_probability):
        rng = np.random.default_rng(6)
        before = rng.bit_generator.state
        with pytest.raises(GraphError, match="intra_probability"):
            generate_community_social_graph(
                400,
                num_communities=4,
                edges_per_node=6,
                intra_probability=intra_probability,
                rng=rng,
            )
        assert rng.bit_generator.state == before
