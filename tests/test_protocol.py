"""Tests for the Overlay orchestrator."""

import numpy as np
import pytest

from repro import Overlay, SystemConfig
from repro.errors import GraphError, ProtocolError
from repro.graphs import FlatSnapshot

from .csr import edge_list


class TestConstruction:
    def test_node_count_mismatch_rejected(self, small_trust_graph):
        config = SystemConfig(num_nodes=5)
        with pytest.raises(GraphError):
            Overlay.build(small_trust_graph, config)

    def test_non_contiguous_labels_rejected(self):
        graph = FlatSnapshot.from_edge_positions(
            np.array([0, 5]), np.array([0]), np.array([1])
        )
        config = SystemConfig(num_nodes=2)
        with pytest.raises(GraphError):
            Overlay.build(graph, config)

    def test_adaptive_slot_count(self, small_trust_graph, small_config):
        overlay = Overlay.build(small_trust_graph, small_config)
        target = small_config.target_degree
        for node in overlay.nodes:
            expected = max(0, target - node.links.trusted_degree)
            assert node.slots.size == expected

    def test_hub_gets_no_pseudonym_slots(self, small_trust_graph):
        config = SystemConfig(
            num_nodes=small_trust_graph.number_of_nodes(),
            target_degree=3,
            cache_size=10,
            shuffle_length=4,
            seed=1,
        )
        overlay = Overlay.build(small_trust_graph, config)
        hub = overlay.nodes[0]  # degree > 3 in the fixture
        assert hub.links.trusted_degree > 3
        assert hub.slots.size == 0

    def test_min_pseudonym_links_floor(self, small_trust_graph):
        config = SystemConfig(
            num_nodes=small_trust_graph.number_of_nodes(),
            target_degree=3,
            min_pseudonym_links=2,
            cache_size=10,
            shuffle_length=4,
            seed=1,
        )
        overlay = Overlay.build(small_trust_graph, config)
        assert all(node.slots.size >= 2 for node in overlay.nodes)


class TestLifecycle:
    def test_start_required_before_run(self, small_trust_graph, small_config):
        overlay = Overlay.build(small_trust_graph, small_config)
        with pytest.raises(ProtocolError):
            overlay.run_until(1.0)

    def test_double_start_rejected(self, small_trust_graph, small_config):
        overlay = Overlay.build(small_trust_graph, small_config)
        overlay.start()
        with pytest.raises(ProtocolError):
            overlay.start()

    def test_without_churn_all_online(self, small_trust_graph, small_config):
        overlay = Overlay.build(small_trust_graph, small_config, with_churn=False)
        overlay.start()
        assert len(overlay.online_ids()) == small_config.num_nodes

    def test_churn_changes_online_set(self, small_trust_graph, small_config):
        overlay = Overlay.build(small_trust_graph, small_config)
        overlay.start()
        before = set(overlay.online_ids())
        overlay.run_until(30.0)
        after = set(overlay.online_ids())
        assert before != after

    def test_start_all_online(self, small_trust_graph, small_config):
        overlay = Overlay.build(
            small_trust_graph, small_config, start_all_online=True
        )
        overlay.start()
        assert len(overlay.online_ids()) == small_config.num_nodes


class TestSnapshots:
    def test_snapshot_without_churn_converges_to_connected(
        self, small_trust_graph, small_config
    ):
        overlay = Overlay.build(small_trust_graph, small_config, with_churn=False)
        overlay.start()
        overlay.run_until(20.0)
        analysis = overlay.analysis()
        assert analysis.fraction_disconnected() == 0.0
        # Pseudonym links added beyond the trust edges.
        assert analysis.snapshot.number_of_edges() > small_trust_graph.number_of_edges()

    def test_snapshot_online_only_nodes(self, small_trust_graph, small_config):
        overlay = Overlay.build(small_trust_graph, small_config)
        overlay.start()
        overlay.run_until(5.0)
        snapshot = overlay.snapshot(online_only=True)
        assert snapshot.node_ids.tolist() == overlay.online_ids()

    def test_full_snapshot_includes_everyone(self, small_trust_graph, small_config):
        overlay = Overlay.build(small_trust_graph, small_config)
        overlay.start()
        overlay.run_until(5.0)
        snapshot = overlay.snapshot(online_only=False)
        assert snapshot.number_of_nodes() == small_config.num_nodes

    def test_trust_snapshot_is_induced_subgraph(self, small_trust_graph, small_config):
        overlay = Overlay.build(small_trust_graph, small_config)
        overlay.start()
        overlay.run_until(5.0)
        trust = overlay.trust_snapshot()
        online = set(overlay.online_ids())
        assert set(trust.node_ids.tolist()) == online
        for u, v in edge_list(trust):
            assert small_trust_graph.has_edge(u, v)

    def test_snapshot_has_no_self_loops(self, small_trust_graph, small_config):
        overlay = Overlay.build(small_trust_graph, small_config, with_churn=False)
        overlay.start()
        overlay.run_until(10.0)
        snapshot = overlay.snapshot()
        assert all(u != v for u, v in edge_list(snapshot))


class TestOracles:
    def test_pseudonym_ownership_tracked(self, small_trust_graph, small_config):
        overlay = Overlay.build(small_trust_graph, small_config, with_churn=False)
        overlay.start()
        overlay.run_until(2.0)
        for node in overlay.nodes:
            assert overlay.owner_of_value(node.own.value) == node.node_id
            assert (
                overlay.link_layer.pseudonym.owner_of(node.own.address)
                == node.node_id
            )

    def test_unknown_value_returns_none(self, small_trust_graph, small_config):
        overlay = Overlay.build(small_trust_graph, small_config)
        assert overlay.owner_of_value(123456789) is None

    def test_stats(self, small_trust_graph, small_config):
        overlay = Overlay.build(small_trust_graph, small_config, with_churn=False)
        overlay.start()
        overlay.run_until(10.0)
        stats = overlay.stats()
        assert stats.online_nodes == small_config.num_nodes
        assert stats.messages_sent > 0
        assert stats.pseudonyms_created >= small_config.num_nodes

    def test_total_online_time_open_session(self, small_trust_graph, small_config):
        overlay = Overlay.build(small_trust_graph, small_config, with_churn=False)
        overlay.start()
        overlay.run_until(7.5)
        assert overlay.total_online_time(0) == pytest.approx(7.5)
