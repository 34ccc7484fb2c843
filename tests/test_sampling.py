"""Tests for the f-parameterized trust-graph sampler."""

import networkx as nx
import numpy as np
import pytest

from repro.errors import SamplingError
from repro.graphs import (
    SnapshotAnalysis,
    generate_social_graph,
    sample_trust_graph,
)
from repro.graphs.sampling import sample_trust_members

from .csr import from_networkx, to_networkx


def is_connected(graph) -> bool:
    return SnapshotAnalysis(graph).component_count() == 1


@pytest.fixture(scope="module")
def source_graph():
    return generate_social_graph(1200, rng=np.random.default_rng(77))


class TestSampleTrustGraph:
    def test_exact_size(self, source_graph, rng):
        sample = sample_trust_graph(source_graph, 150, f=0.5, rng=rng)
        assert sample.number_of_nodes() == 150

    def test_relabeled_to_contiguous_ids(self, source_graph, rng):
        sample = sample_trust_graph(source_graph, 100, f=0.5, rng=rng)
        assert sample.node_ids.tolist() == list(range(100))

    def test_original_labels_recorded(self, source_graph, rng):
        originals = sample_trust_members(source_graph, 50, f=0.5, rng=rng).tolist()
        assert originals == sorted(set(originals))
        assert len(originals) == 50
        assert set(originals) <= set(to_networkx(source_graph).nodes())

    def test_connected_for_all_f(self, source_graph):
        for f in (0.0, 0.3, 0.5, 1.0):
            sample = sample_trust_graph(
                source_graph, 120, f=f, rng=np.random.default_rng(3)
            )
            assert is_connected(sample), f"disconnected for f={f}"

    def test_induced_subgraph_includes_all_internal_edges(self, source_graph):
        sample = sample_trust_graph(
            source_graph, 80, f=1.0, rng=np.random.default_rng(4)
        )
        originals = sample_trust_members(
            source_graph, 80, f=1.0, rng=np.random.default_rng(4)
        ).tolist()
        # Node i of the sample is source node originals[i].
        expected = nx.relabel_nodes(
            to_networkx(source_graph).subgraph(originals),
            {label: node for node, label in enumerate(originals)},
        )
        edges = set(zip(sample.edge_u.tolist(), sample.edge_v.tolist()))
        assert edges == {(min(u, v), max(u, v)) for u, v in expected.edges()}

    def test_higher_f_more_edges(self, source_graph):
        low = sample_trust_graph(source_graph, 200, f=0.0, rng=np.random.default_rng(1))
        high = sample_trust_graph(source_graph, 200, f=1.0, rng=np.random.default_rng(1))
        assert high.number_of_edges() > low.number_of_edges()

    def test_f0_yields_sparse_graph(self, source_graph):
        sample = sample_trust_graph(
            source_graph, 150, f=0.0, rng=np.random.default_rng(2)
        )
        # Depth-first-ish chains stay close to tree density.
        average_degree = 2 * sample.number_of_edges() / sample.number_of_nodes()
        assert average_degree < 8

    def test_deterministic_given_rng(self, source_graph):
        a = sample_trust_graph(source_graph, 90, f=0.5, rng=np.random.default_rng(9))
        b = sample_trust_graph(source_graph, 90, f=0.5, rng=np.random.default_rng(9))
        assert a.edge_u.tolist() == b.edge_u.tolist()
        assert a.edge_v.tolist() == b.edge_v.tolist()

    def test_fixed_start_node(self, source_graph, rng):
        originals = sample_trust_members(source_graph, 40, f=1.0, rng=rng, start=0)
        assert 0 in originals.tolist()

    @pytest.mark.parametrize("bad_f", [-0.1, 1.01])
    def test_invalid_f(self, source_graph, rng, bad_f):
        with pytest.raises(SamplingError):
            sample_trust_graph(source_graph, 50, f=bad_f, rng=rng)

    def test_oversized_target_rejected(self, source_graph, rng):
        with pytest.raises(SamplingError):
            sample_trust_graph(source_graph, 10_000, f=0.5, rng=rng)

    def test_zero_target_rejected(self, source_graph, rng):
        with pytest.raises(SamplingError):
            sample_trust_graph(source_graph, 0, f=0.5, rng=rng)

    def test_unknown_start_rejected(self, source_graph, rng):
        with pytest.raises(SamplingError):
            sample_trust_graph(source_graph, 10, f=0.5, rng=rng, start=-1)


class TestSamplerEdgeCases:
    def test_empty_source_rejected(self):
        with pytest.raises(SamplingError):
            sample_trust_graph(from_networkx(nx.Graph()), 1, f=0.5)

    def test_exhausted_component_raises(self, rng):
        # Two disconnected triangles; asking for 5 from one is impossible.
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        with pytest.raises(SamplingError):
            sample_trust_graph(from_networkx(graph), 5, f=1.0, rng=rng, start=0)

    def test_sample_whole_component(self, rng):
        graph = from_networkx(nx.path_graph(6))
        sample = sample_trust_graph(graph, 6, f=0.0, rng=rng, start=0)
        assert sample.number_of_nodes() == 6
        assert is_connected(sample)
