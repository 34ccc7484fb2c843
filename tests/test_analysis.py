"""Tests for the structural robustness analyses."""

import networkx as nx
import numpy as np
import pytest

from repro.analysis import articulation_ratio, targeted_failure_curve
from repro.errors import GraphError
from repro.graphs import erdos_renyi_gnm, generate_social_graph, sample_trust_graph

from . import nx_oracle
from .nx_oracle import to_flat


class TestTargetedFailure:
    def test_star_collapses_under_degree_attack(self):
        star = to_flat(nx.star_graph(20))  # hub 0 plus 20 leaves
        points = targeted_failure_curve(star, fractions=(0.0, 0.05))
        assert points[0].disconnected == 0.0
        # Removing ~1 node (the hub) shatters the graph completely.
        assert points[1].disconnected > 0.9

    def test_complete_graph_survives(self):
        graph = to_flat(nx.complete_graph(20))
        points = targeted_failure_curve(graph, fractions=(0.0, 0.3))
        assert all(point.disconnected == 0.0 for point in points)

    def test_random_strategy(self, rng):
        graph = to_flat(nx.erdos_renyi_graph(60, 0.15, seed=1))
        points = targeted_failure_curve(
            graph, fractions=(0.0, 0.2), strategy="random", rng=rng
        )
        assert points[1].removed_count == 12

    def test_largest_component_fraction(self):
        graph = to_flat(nx.path_graph(10))
        points = targeted_failure_curve(graph, fractions=(0.0,))
        assert points[0].largest_component_fraction == pytest.approx(1.0)

    def test_curve_monotone_removal(self):
        graph = to_flat(nx.erdos_renyi_graph(60, 0.1, seed=2))
        points = targeted_failure_curve(graph, fractions=(0.0, 0.1, 0.2))
        counts = [point.removed_count for point in points]
        assert counts == sorted(counts)

    def test_invalid_inputs(self, rng):
        graph = to_flat(nx.path_graph(5))
        with pytest.raises(GraphError):
            targeted_failure_curve(graph, strategy="clever")
        with pytest.raises(GraphError):
            targeted_failure_curve(graph, fractions=(0.3, 0.1))
        with pytest.raises(GraphError):
            targeted_failure_curve(graph, fractions=(0.5, 1.0))
        with pytest.raises(GraphError):
            targeted_failure_curve(to_flat(nx.Graph()), fractions=(0.0,))


class TestArticulationRatio:
    def test_path_graph_mostly_articulation(self):
        # In P5, the 3 middle nodes are articulation points.
        assert articulation_ratio(to_flat(nx.path_graph(5))) == pytest.approx(0.6)

    def test_cycle_has_none(self):
        assert articulation_ratio(to_flat(nx.cycle_graph(6))) == 0.0

    def test_single_node(self):
        graph = nx.Graph()
        graph.add_node(0)
        assert articulation_ratio(to_flat(graph)) == 0.0

    def test_disconnected_components_handled(self):
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (1, 2)])  # 1 is articulation
        graph.add_edges_from([(10, 11), (11, 12), (12, 10)])  # cycle: none
        assert articulation_ratio(to_flat(graph)) == pytest.approx(1 / 6)

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            articulation_ratio(to_flat(nx.Graph()))

    @pytest.mark.parametrize(
        "graph",
        [
            to_flat(nx.path_graph(7)),
            to_flat(nx.star_graph(9)),
            to_flat(nx.cycle_graph(8)),
            to_flat(nx.barbell_graph(5, 3)),
            to_flat(nx.disjoint_union(nx.barbell_graph(4, 0), nx.path_graph(4))),
            erdos_renyi_gnm(80, 90, rng=np.random.default_rng(4)),
            sample_trust_graph(
                generate_social_graph(600, rng=np.random.default_rng(6)),
                120,
                f=0.0,
                rng=np.random.default_rng(7),
            ),
        ],
        ids=["path", "star", "cycle", "barbell", "disconnected", "gnm", "social"],
    )
    def test_matches_networkx_articulation_points(self, graph):
        assert articulation_ratio(graph) == nx_oracle.articulation_ratio(
            nx_oracle.to_nx(graph)
        )
