"""End-to-end integration tests: whole-system invariants under churn.

These drive the complete stack — trust graph, churn, link layer, the
overlay protocol, metrics — and assert the paper's qualitative claims
and the protocol's global invariants.
"""

import math

import pytest

from repro import Overlay, SystemConfig
from repro.experiments import SMOKE, make_config, make_trust_graph
from repro.metrics import MetricsCollector

from .csr import edge_list


@pytest.fixture(scope="module")
def churny_overlay():
    """A smoke-scale overlay run under churn for 60 periods."""
    graph = make_trust_graph(SMOKE, f=0.5, seed=3)
    config = make_config(SMOKE, alpha=0.5, f=0.5, seed=3)
    overlay = Overlay.build(graph, config)
    collector = MetricsCollector(overlay, interval=1.0)
    overlay.start()
    collector.start()
    overlay.run_until(60.0)
    return overlay, collector


class TestGlobalInvariants:
    def test_link_targets_are_real_pseudonyms(self, churny_overlay):
        """Every pseudonym link resolves (via the measurement oracle) to
        a real node, and never to the link's owner itself."""
        overlay, _ = churny_overlay
        for node in overlay.nodes:
            for pseudonym in node.links.pseudonym_links():
                owner = overlay.owner_of_value(pseudonym.value)
                assert owner is not None
                assert owner != node.node_id

    def test_no_expired_pseudonyms_in_online_nodes_state(self, churny_overlay):
        overlay, _ = churny_overlay
        now = overlay.sim.now
        for node in overlay.nodes:
            if not node.online:
                continue
            # Online nodes' own pseudonyms are always valid (renewal).
            assert node.own is not None
            assert not node.own.is_expired(now)

    def test_slot_count_invariant(self, churny_overlay):
        """Pseudonym links never exceed the sampler size S."""
        overlay, _ = churny_overlay
        for node in overlay.nodes:
            assert node.links.pseudonym_degree() <= max(1, node.slots.size)

    def test_cache_capacity_respected(self, churny_overlay):
        overlay, _ = churny_overlay
        for node in overlay.nodes:
            assert len(node.cache) <= node.cache.capacity

    def test_ids_never_in_pseudonym_space(self, churny_overlay):
        """Privacy invariant: pseudonym caches contain no trust-graph
        identities — only opaque values far outside 0..n-1."""
        overlay, _ = churny_overlay
        n = len(overlay.nodes)
        for node in overlay.nodes:
            for pseudonym in node.cache.pseudonyms():
                assert pseudonym.value >= n  # 63-bit random values

    def test_state_retained_across_offline(self, churny_overlay):
        """Nodes that went offline keep their link state (II-D)."""
        overlay, _ = churny_overlay
        offline_nodes = [node for node in overlay.nodes if not node.online]
        assert offline_nodes  # churn guarantees some
        with_links = [
            node for node in offline_nodes if node.links.pseudonym_degree() > 0
        ]
        assert with_links  # retained, not wiped

    def test_overlay_more_connected_than_trust(self, churny_overlay):
        _, collector = churny_overlay
        assert collector.disconnected.tail_mean(0.5) <= (
            collector.trust_disconnected.tail_mean(0.5)
        )

    def test_message_rate_near_two(self, churny_overlay):
        _, collector = churny_overlay
        assert 1.0 < collector.messages_per_node.tail_mean(0.5) < 3.0


class TestPseudonymRenewalUnderChurn:
    def test_renewal_happens(self, churny_overlay):
        overlay, _ = churny_overlay
        # Lifetime 3 x 8 = 24 periods; in 60 periods online nodes renew.
        renewed = [
            node
            for node in overlay.nodes
            if node.counters.pseudonyms_created >= 2
        ]
        assert len(renewed) > len(overlay.nodes) // 4

    def test_value_owner_registry_consistent(self, churny_overlay):
        overlay, _ = churny_overlay
        for node in overlay.nodes:
            if node.own is not None:
                assert overlay.owner_of_value(node.own.value) == node.node_id


class TestInfiniteLifetimeStabilizes:
    def test_replacements_stop(self):
        """With non-expiring pseudonyms and no churn, nodes quickly find
        the best links and stop changing them (paper Figure 9, r=inf)."""
        graph = make_trust_graph(SMOKE, f=0.5, seed=4)
        config = make_config(
            SMOKE, alpha=0.5, f=0.5, seed=4, lifetime_ratio=math.inf
        )
        overlay = Overlay.build(graph, config, with_churn=False)
        collector = MetricsCollector(overlay, interval=1.0)
        overlay.start()
        collector.start()
        overlay.run_until(60.0)
        assert collector.replacements_per_node.tail_mean(0.2) < 0.5
        assert overlay.analysis().fraction_disconnected() == 0.0


class TestDeterminism:
    def test_same_seed_same_trajectory(self):
        results = []
        for _ in range(2):
            graph = make_trust_graph(SMOKE, f=0.5, seed=5)
            config = make_config(SMOKE, alpha=0.5, f=0.5, seed=5)
            overlay = Overlay.build(graph, config)
            overlay.start()
            overlay.run_until(25.0)
            snapshot = overlay.snapshot()
            results.append(
                (
                    tuple(edge_list(snapshot)),
                    overlay.stats().messages_sent,
                    tuple(overlay.online_ids()),
                )
            )
        assert results[0] == results[1]

    def test_different_seed_different_trajectory(self):
        snapshots = []
        for seed in (6, 7):
            graph = make_trust_graph(SMOKE, f=0.5, seed=6)
            config = make_config(SMOKE, alpha=0.5, f=0.5, seed=seed)
            overlay = Overlay.build(graph, config)
            overlay.start()
            overlay.run_until(25.0)
            snapshots.append(tuple(edge_list(overlay.snapshot())))
        assert snapshots[0] != snapshots[1]
