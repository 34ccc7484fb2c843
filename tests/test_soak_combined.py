"""Soak test: every extension active at once, under churn.

Adaptive lifetimes + runtime growth + anti-entropy broadcast + an
observer coalition, all on one system, run for 120 shuffling periods.
Checks that the combined feature set maintains the protocol's global
invariants — the cross-feature interactions no unit test covers.
"""

import pytest

from repro import Overlay
from repro.attacks import ObserverCoalition, estimate_overlay_size
from repro.dissemination import AntiEntropyBroadcast
from repro.experiments import SMOKE, make_config, make_trust_graph


@pytest.fixture(scope="module")
def soaked_system():
    trust = make_trust_graph(SMOKE, f=0.5, seed=8)
    config = make_config(SMOKE, alpha=0.5, f=0.5, seed=8).replace(
        adaptive_lifetime=True
    )
    overlay = Overlay.build(trust, config)
    coalition = ObserverCoalition(overlay, [0, 1])
    coalition.install()
    protocol = AntiEntropyBroadcast(overlay, period=2.0)
    protocol.install()
    overlay.start()
    overlay.run_until(20.0)

    # Mid-run growth and a broadcast.
    newcomer = overlay.add_node([0, 2])
    online = overlay.online_ids()
    record = protocol.broadcast(online[0], payload="soak")
    overlay.run_until(120.0)
    return overlay, coalition, protocol, newcomer, record


class TestSoak:
    def test_overlay_healthy(self, soaked_system):
        overlay, *_ = soaked_system
        assert overlay.analysis().fraction_disconnected() < 0.15

    def test_invariants_hold_everywhere(self, soaked_system):
        overlay, *_ = soaked_system
        now = overlay.sim.now
        for node in overlay.nodes:
            assert len(node.cache) <= node.cache.capacity
            if node.online:
                assert node.own is not None
                assert node.own.expires_at >= now
            for pseudonym in node.links.pseudonym_links():
                owner = overlay.owner_of_value(pseudonym.value)
                assert owner is not None and owner != node.node_id

    def test_newcomer_integrated(self, soaked_system):
        overlay, _, _, newcomer, _ = soaked_system
        node = overlay.nodes[newcomer]
        assert node.counters.pseudonyms_created >= 1
        # It participates: messages flowed through it at some point.
        assert node.counters.messages_sent > 0

    def test_broadcast_spread_widely(self, soaked_system):
        overlay, _, protocol, _, record = soaked_system
        assert record.deliveries() > 0.8 * len(overlay.nodes)

    def test_adaptive_lifetimes_learned(self, soaked_system):
        overlay, *_ = soaked_system
        from repro.core import AdaptiveLifetime

        observed = [
            node._lifetime_policy.observations
            for node in overlay.nodes
            if isinstance(node._lifetime_policy, AdaptiveLifetime)
        ]
        assert sum(1 for count in observed if count > 0) > len(observed) // 2

    def test_coalition_estimate_sane(self, soaked_system):
        overlay, coalition, *_ = soaked_system
        estimate = estimate_overlay_size(overlay, coalition, window=60.0)
        assert estimate.live_value_estimate > 0
        assert estimate.relative_error < 0.8
