"""Tests for runtime trust-graph growth (node and edge additions)."""

import pytest

from repro import Overlay
from repro.errors import ProtocolError


class TestAddTrustEdge:
    def test_edge_added_both_sides(self, small_trust_graph, small_config):
        overlay = Overlay.build(small_trust_graph, small_config, with_churn=False)
        overlay.start()
        # 11 and 25 are not friends in the fixture.
        assert not small_trust_graph.has_edge(11, 25)
        overlay.add_trust_edge(11, 25)
        assert overlay.trust_graph.has_edge(11, 25)
        # The graph the overlay was built from is not mutated.
        assert not small_trust_graph.has_edge(11, 25)
        assert 25 in overlay.nodes[11].links.trusted
        assert 11 in overlay.nodes[25].links.trusted

    def test_self_edge_rejected(self, small_trust_graph, small_config):
        overlay = Overlay.build(small_trust_graph, small_config)
        with pytest.raises(ProtocolError):
            overlay.add_trust_edge(3, 3)

    def test_unknown_node_rejected(self, small_trust_graph, small_config):
        overlay = Overlay.build(small_trust_graph, small_config)
        with pytest.raises(ProtocolError):
            overlay.add_trust_edge(0, 999)

    def test_new_edge_used_by_protocol(self, small_trust_graph, small_config):
        overlay = Overlay.build(small_trust_graph, small_config, with_churn=False)
        overlay.start()
        overlay.run_until(5.0)
        overlay.add_trust_edge(11, 25)
        overlay.run_until(15.0)
        snapshot = overlay.snapshot()
        assert snapshot.has_edge(11, 25)


class TestAddNode:
    def test_new_node_joins_and_integrates(self, small_trust_graph, small_config):
        overlay = Overlay.build(small_trust_graph, small_config, with_churn=False)
        overlay.start()
        overlay.run_until(10.0)
        new_id = overlay.add_node([0, 5])
        assert new_id == small_config.num_nodes
        assert overlay.trust_graph.has_edge(new_id, 0)
        assert overlay.nodes[0].links.trusted >= {new_id}
        assert overlay.nodes[new_id].online
        # After some gossip the newcomer has pseudonym links and appears
        # connected in the snapshot.
        overlay.run_until(30.0)
        snapshot = overlay.snapshot()
        assert new_id in snapshot.node_ids.tolist()
        assert len(snapshot.neighbors(new_id)) >= 2
        assert overlay.analysis().fraction_disconnected() == 0.0

    def test_new_node_own_pseudonym_registered(
        self, small_trust_graph, small_config
    ):
        overlay = Overlay.build(small_trust_graph, small_config, with_churn=False)
        overlay.start()
        new_id = overlay.add_node([1])
        own = overlay.nodes[new_id].own
        assert own is not None
        assert overlay.owner_of_value(own.value) == new_id

    def test_add_node_under_churn(self, small_trust_graph, small_config):
        overlay = Overlay.build(small_trust_graph, small_config)
        overlay.start()
        overlay.run_until(5.0)
        new_id = overlay.add_node([0])
        assert overlay.churn.num_nodes == small_config.num_nodes + 1
        assert overlay.churn.is_online(new_id)
        # The newcomer churns like everyone else: eventually offline.
        overlay.run_until(120.0)
        assert overlay.churn.transitions > 0

    def test_needs_inviter(self, small_trust_graph, small_config):
        overlay = Overlay.build(small_trust_graph, small_config)
        with pytest.raises(ProtocolError):
            overlay.add_node([])

    def test_unknown_inviter_rejected(self, small_trust_graph, small_config):
        overlay = Overlay.build(small_trust_graph, small_config)
        with pytest.raises(ProtocolError):
            overlay.add_node([999])

    def test_multiple_additions(self, small_trust_graph, small_config):
        overlay = Overlay.build(small_trust_graph, small_config, with_churn=False)
        overlay.start()
        first = overlay.add_node([0])
        second = overlay.add_node([first])
        assert second == first + 1
        assert overlay.trust_graph.has_edge(second, first)
        overlay.run_until(20.0)
        assert overlay.analysis().fraction_disconnected() == 0.0
