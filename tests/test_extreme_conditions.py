"""Integration tests under extreme conditions.

Boundary regimes the normal experiments never visit: two-node systems,
zero-latency links, synchronized flash-crowd starts, mass failure of
most of the population, and very long idle periods.
"""

import pytest

from repro import Overlay, SystemConfig

from .csr import graph_from_edges


class TestMinimalSystems:
    def test_two_node_system(self):
        graph = graph_from_edges(2, [(0, 1)])
        config = SystemConfig(
            num_nodes=2,
            cache_size=4,
            shuffle_length=2,
            target_degree=2,
            seed=1,
        )
        overlay = Overlay.build(graph, config, with_churn=False)
        overlay.start()
        overlay.run_until(20.0)
        assert overlay.analysis().fraction_disconnected() == 0.0
        assert overlay.stats().messages_sent > 0

    def test_zero_latency_links(self, small_trust_graph, small_config):
        config = small_config.replace(message_latency=0.0)
        overlay = Overlay.build(small_trust_graph, config, with_churn=False)
        overlay.start()
        overlay.run_until(15.0)
        assert overlay.analysis().fraction_disconnected() == 0.0

    def test_shuffle_length_one(self, small_trust_graph, small_config):
        """l=1: only own pseudonyms circulate — slow but sound."""
        config = small_config.replace(shuffle_length=1)
        overlay = Overlay.build(small_trust_graph, config, with_churn=False)
        overlay.start()
        overlay.run_until(20.0)
        # Direct neighbors learn each other's pseudonyms at least.
        linked = sum(
            1 for node in overlay.nodes if node.links.pseudonym_degree() > 0
        )
        assert linked > 0

    def test_tiny_cache(self, small_trust_graph, small_config):
        config = small_config.replace(cache_size=1)
        overlay = Overlay.build(small_trust_graph, config, with_churn=False)
        overlay.start()
        overlay.run_until(20.0)
        for node in overlay.nodes:
            assert len(node.cache) <= 1
        assert overlay.stats().messages_sent > 0


class TestFlashCrowd:
    def test_synchronized_start_converges(self, small_trust_graph, small_config):
        """Everyone joins at t=0 (the paper's experiment start): the
        synchronized pseudonym cohort must not wedge the system when it
        expires all at once."""
        overlay = Overlay.build(
            small_trust_graph, small_config, start_all_online=True
        )
        overlay.start()
        lifetime = small_config.pseudonym_lifetime
        # Run through two full expiry cohorts.
        overlay.run_until(2.5 * lifetime)
        online = overlay.online_ids()
        assert online  # churn kept some online
        for node_id in online:
            node = overlay.nodes[node_id]
            assert node.own is not None
            assert not node.own.is_expired(overlay.sim.now)


class TestMassFailure:
    def test_recovery_after_mass_offline(self, small_trust_graph, small_config):
        overlay = Overlay.build(small_trust_graph, small_config, with_churn=False)
        overlay.start()
        overlay.run_until(15.0)
        # 80% of the population drops simultaneously.
        victims = [node for node in overlay.nodes if node.node_id % 5 != 0]
        for node in victims:
            node.go_offline()
        overlay.run_until(overlay.sim.now + 10.0)
        survivors = overlay.snapshot()
        assert survivors.number_of_nodes() == len(overlay.nodes) - len(victims)
        # Everyone returns; the overlay re-knits itself.
        for node in victims:
            node.come_online()
        overlay.run_until(overlay.sim.now + 20.0)
        assert overlay.analysis().fraction_disconnected() < 0.05

    def test_long_idle_gap(self, small_trust_graph, small_config):
        """A long stretch with everyone offline: timers must not leak
        or fire wrongly, and the system must restart cleanly."""
        overlay = Overlay.build(small_trust_graph, small_config, with_churn=False)
        overlay.start()
        overlay.run_until(10.0)
        for node in overlay.nodes:
            node.go_offline()
        overlay.run_until(200.0)  # several lifetimes of silence
        assert overlay.online_ids() == []
        for node in overlay.nodes:
            node.come_online()
        overlay.run_until(230.0)
        assert overlay.analysis().fraction_disconnected() < 0.05
        now = overlay.sim.now
        for node in overlay.nodes:
            assert node.own is not None and not node.own.is_expired(now)
