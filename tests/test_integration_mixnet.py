"""Integration: the overlay protocol over the *mixnet* link layer.

The evaluation assumes ideal services; this test swaps in the simulated
mix network (onion layers, relays, rendezvous pseudonyms) and checks
that the protocol still converges — i.e. nothing in the overlay layer
secretly depends on the ideal layer's shortcuts — and that the privacy
mechanics hold end to end during real protocol traffic.
"""

import networkx as nx
import pytest

from repro import Overlay, SystemConfig
from repro.attacks import direct_node_channel_fraction
from repro.privlink import TrafficLog, make_mixnet_link_layer

from .nx_oracle import to_flat


@pytest.fixture(scope="module")
def mixnet_system():
    graph = to_flat(nx.connected_watts_strogatz_graph(40, 4, 0.2, seed=3))
    config = SystemConfig(
        num_nodes=40,
        availability=0.8,
        mean_offline_time=10.0,
        cache_size=40,
        shuffle_length=8,
        target_degree=12,
        seed=11,
    )
    traffic = TrafficLog(enabled=True, max_records=500_000)
    overlay = Overlay.build(
        graph,
        config,
        with_churn=False,
        link_layer_factory=lambda sim, rng: make_mixnet_link_layer(
            sim, rng, num_relays=15, circuit_length=3, traffic=traffic
        ),
    )
    overlay.start()
    overlay.run_until(25.0)
    return overlay, traffic


class TestOverlayOverMixnet:
    def test_overlay_converges(self, mixnet_system):
        overlay, _ = mixnet_system
        analysis = overlay.analysis()
        assert analysis.fraction_disconnected() == 0.0
        assert analysis.snapshot.number_of_edges() > overlay.trust_graph.number_of_edges()

    def test_pseudonym_links_formed(self, mixnet_system):
        overlay, _ = mixnet_system
        linked = sum(
            1 for node in overlay.nodes if node.links.pseudonym_degree() > 0
        )
        assert linked > len(overlay.nodes) // 2

    def test_no_direct_node_channels_ever(self, mixnet_system):
        """Thousands of protocol messages later, an external observer
        still has not seen one direct node-to-node channel."""
        overlay, traffic = mixnet_system
        assert len(traffic) > 1000
        assert direct_node_channel_fraction(traffic) == 0.0
        # ... nor does one who watches a single shuffle period.
        period = traffic.window(10.0, 11.0)
        assert 0 < len(period) < len(traffic)
        assert direct_node_channel_fraction(period) == 0.0

    def test_relays_forwarded_traffic(self, mixnet_system):
        overlay, _ = mixnet_system
        relays = overlay.link_layer.network.relays
        assert sum(relay.forwarded for relay in relays) > 1000
        # Load spreads across the relay pool (no single chokepoint).
        active = sum(1 for relay in relays if relay.forwarded > 0)
        assert active == len(relays)

    def test_rendezvous_endpoints_active_for_online_nodes(self, mixnet_system):
        overlay, _ = mixnet_system
        service = overlay.link_layer.pseudonym
        for node in overlay.nodes:
            if node.online and node.own is not None:
                assert service.is_active(node.own.address)
