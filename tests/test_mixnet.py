"""Tests for the simulated mix network."""

import numpy as np
import pytest

from repro.errors import MixnetError
from repro.privlink import TrafficLog, make_mixnet_link_layer
from repro.privlink.mixnet import MixNetwork
from repro.privlink.link import NodeDirectory
from repro.sim import Simulator


class _FakeNode:
    def __init__(self):
        self.inbox = []
        self.online = True

    def receive(self, payload):
        self.inbox.append(payload)


def _mixnet_layer(num_relays=8, circuit_length=3, traffic=None):
    sim = Simulator()
    layer = make_mixnet_link_layer(
        sim,
        np.random.default_rng(0),
        num_relays=num_relays,
        circuit_length=circuit_length,
        traffic=traffic,
    )
    return sim, layer


class TestMixnetDelivery:
    def test_anonymity_service_delivers(self):
        sim, layer = _mixnet_layer()
        node = _FakeNode()
        layer.register_node(1, node.receive, lambda: node.online)
        layer.send_to_node(0, 1, "secret")
        sim.run_until(1.0)
        assert node.inbox == ["secret"]

    def test_offline_destination_drops(self):
        sim, layer = _mixnet_layer()
        node = _FakeNode()
        node.online = False
        layer.register_node(1, node.receive, lambda: node.online)
        layer.send_to_node(0, 1, "secret")
        sim.run_until(1.0)
        assert node.inbox == []
        assert layer.network.dropped_offline == 1

    def test_rendezvous_endpoint_delivers(self):
        sim, layer = _mixnet_layer()
        node = _FakeNode()
        layer.register_node(2, node.receive, lambda: node.online)
        address = layer.create_endpoint(2)
        layer.send_to_endpoint(0, address, "anon")
        sim.run_until(2.0)
        assert node.inbox == ["anon"]

    def test_closed_rendezvous_drops(self):
        sim, layer = _mixnet_layer()
        node = _FakeNode()
        layer.register_node(2, node.receive, lambda: node.online)
        address = layer.create_endpoint(2)
        layer.close_endpoint(address)
        layer.send_to_endpoint(0, address, "anon")
        sim.run_until(2.0)
        assert node.inbox == []

    def test_endpoint_active_query(self):
        _, layer = _mixnet_layer()
        address = layer.create_endpoint(5)
        assert layer.pseudonym.is_active(address)
        layer.close_endpoint(address)
        assert not layer.pseudonym.is_active(address)


class TestMixnetPrivacyMechanics:
    def test_multi_hop_traffic_no_direct_channel(self):
        """An external observer never sees a sender-to-receiver channel."""
        traffic = TrafficLog(enabled=True)
        sim, layer = _mixnet_layer(traffic=traffic)
        node = _FakeNode()
        layer.register_node(1, node.receive, lambda: node.online)
        layer.send_to_node(0, 1, "secret")
        sim.run_until(1.0)
        assert node.inbox == ["secret"]
        channels = traffic.channels()
        assert ("node:0", "node:1") not in channels
        # The sender only ever talks to a relay.
        sender_channels = [dst for src, dst in channels if src == "node:0"]
        assert sender_channels and all(
            dst.startswith("relay:") for dst in sender_channels
        )
        # The receiver only ever hears from a relay.
        receiver_sources = [src for src, dst in channels if dst == "node:1"]
        assert receiver_sources and all(
            src.startswith("relay:") for src in receiver_sources
        )

    def test_circuit_hop_count(self):
        traffic = TrafficLog(enabled=True)
        sim, layer = _mixnet_layer(circuit_length=4, traffic=traffic)
        node = _FakeNode()
        layer.register_node(1, node.receive, lambda: node.online)
        layer.send_to_node(0, 1, "m")
        sim.run_until(1.0)
        # node->r1, r1->r2, r2->r3, r3->r4, r4->node = circuit_length + 1.
        assert len(traffic) == 5

    def test_replay_dropped_at_relay(self):
        sim, layer = _mixnet_layer()
        network = layer.network
        node = _FakeNode()
        layer.register_node(1, node.receive, lambda: node.online)
        circuit = network.build_circuit()
        onion = network.wrap_for_node(circuit, 1, "replay-me")
        network.inject("node:0", circuit[0], onion)
        sim.run_until(1.0)
        network.inject("node:0", circuit[0], onion)  # replay the same onion
        sim.run_until(2.0)
        assert node.inbox == ["replay-me"]
        assert circuit[0].replays_dropped == 1

    def test_replay_cache_flush(self):
        sim, layer = _mixnet_layer()
        network = layer.network
        node = _FakeNode()
        layer.register_node(1, node.receive, lambda: node.online)
        circuit = network.build_circuit()
        onion = network.wrap_for_node(circuit, 1, "again")
        network.inject("node:0", circuit[0], onion)
        sim.run_until(1.0)
        for relay in network.relays:
            relay.flush_replay_cache()
            assert relay.replay_cache_size() == 0
        network.inject("node:0", circuit[0], onion)
        sim.run_until(2.0)
        assert node.inbox == ["again", "again"]


class TestRelayAvailability:
    def test_lossy_relays_drop_some_messages(self):
        sim = Simulator()
        directory = NodeDirectory()
        network = MixNetwork(
            sim,
            directory,
            np.random.default_rng(0),
            num_relays=8,
            relay_availability=0.5,
        )
        node = _FakeNode()
        directory.register(1, node.receive, lambda: node.online)
        for index in range(100):
            circuit = network.build_circuit()
            onion = network.wrap_for_node(circuit, 1, f"msg-{index}")
            network.inject("node:0", circuit[0], onion)
        sim.run_until(5.0)
        # With availability 0.5 over 4 hops, most messages die en route
        # and every loss is accounted for.
        assert network.dropped_relay_down > 0
        assert len(node.inbox) < 100
        assert len(node.inbox) + network.dropped_relay_down == 100

    def test_full_availability_never_drops(self):
        sim, layer = _mixnet_layer()
        node = _FakeNode()
        layer.register_node(1, node.receive, lambda: node.online)
        for index in range(20):
            layer.send_to_node(0, 1, index)
        sim.run_until(5.0)
        assert layer.network.dropped_relay_down == 0
        assert len(node.inbox) == 20

    def test_invalid_availability(self):
        with pytest.raises(MixnetError):
            MixNetwork(
                Simulator(),
                NodeDirectory(),
                np.random.default_rng(0),
                relay_availability=0.0,
            )


class TestMixNetworkConstruction:
    def test_distinct_relays_per_circuit(self):
        sim = Simulator()
        network = MixNetwork(
            sim, NodeDirectory(), np.random.default_rng(0), num_relays=10
        )
        for _ in range(20):
            circuit = network.build_circuit()
            ids = [relay.relay_id for relay in circuit]
            assert len(set(ids)) == len(ids)

    def test_too_few_relays_rejected(self):
        with pytest.raises(MixnetError):
            MixNetwork(
                Simulator(),
                NodeDirectory(),
                np.random.default_rng(0),
                num_relays=2,
                circuit_length=3,
            )

    def test_invalid_circuit_length(self):
        with pytest.raises(MixnetError):
            MixNetwork(
                Simulator(),
                NodeDirectory(),
                np.random.default_rng(0),
                num_relays=5,
                circuit_length=0,
            )


def _fast_layer(**kwargs):
    """A mixnet layer with the cache limits exposed for tests."""
    sim = Simulator()
    layer = make_mixnet_link_layer(
        sim,
        np.random.default_rng(0),
        num_relays=kwargs.pop("num_relays", 8),
        **kwargs,
    )
    return sim, layer


class TestCircuitCache:
    def test_repeat_sends_hit_the_cache(self):
        sim, layer = _fast_layer()
        network = layer.network
        node = _FakeNode()
        layer.register_node(1, node.receive, lambda: node.online)
        # Distinct payloads: identical payloads on a cached circuit are
        # identical onions, which replay protection rightly drops.
        for index in range(5):
            layer.send_to_node(0, 1, f"m{index}")
        sim.run_until(1.0)
        assert sorted(node.inbox) == [f"m{index}" for index in range(5)]
        assert network.circuit_cache_misses == 1
        assert network.circuit_cache_hits == 4
        assert network.circuit_cache_size() == 1

    def test_distinct_flows_get_distinct_entries(self):
        sim, layer = _fast_layer()
        network = layer.network
        nodes = {}
        for node_id in (1, 2):
            nodes[node_id] = _FakeNode()
            layer.register_node(node_id, nodes[node_id].receive, lambda: True)
        layer.send_to_node(0, 1, "m")
        layer.send_to_node(0, 2, "m")
        layer.send_to_node(3, 1, "m")
        sim.run_until(1.0)
        assert network.circuit_cache_misses == 3
        assert network.circuit_cache_hits == 0
        assert network.circuit_cache_size() == 3

    def test_closing_endpoint_evicts_its_circuits(self):
        sim, layer = _fast_layer()
        network = layer.network
        node = _FakeNode()
        layer.register_node(2, node.receive, lambda: node.online)
        address = layer.create_endpoint(2)
        layer.send_to_endpoint(0, address, "a")
        layer.send_to_endpoint(1, address, "b")
        sim.run_until(1.0)
        assert network.circuit_cache_size() == 2
        layer.close_endpoint(address)
        assert network.circuit_cache_size() == 0
        assert network.circuit_cache_evictions == 2
        # A send to the closed address is silently dropped, not rebuilt.
        layer.send_to_endpoint(0, address, "late")
        sim.run_until(2.0)
        assert network.circuit_cache_size() == 0
        assert node.inbox == ["a", "b"]

    def test_invalidate_circuits_drops_everything(self):
        sim, layer = _fast_layer()
        network = layer.network
        node = _FakeNode()
        layer.register_node(1, node.receive, lambda: node.online)
        layer.send_to_node(0, 1, "m")
        sim.run_until(1.0)
        assert network.circuit_cache_size() == 1
        network.invalidate_circuits()
        assert network.circuit_cache_size() == 0
        assert network.circuit_cache_evictions == 1
        layer.send_to_node(0, 1, "m")
        sim.run_until(2.0)
        assert network.circuit_cache_misses == 2

    def test_cache_limit_triggers_wholesale_flush(self):
        sim, layer = _fast_layer(circuit_cache_limit=2)
        network = layer.network
        for node_id in (1, 2, 3):
            node = _FakeNode()
            layer.register_node(node_id, node.receive, lambda: True)
        layer.send_to_node(0, 1, "m")
        layer.send_to_node(0, 2, "m")
        layer.send_to_node(0, 3, "m")  # overflows the 2-entry cache
        sim.run_until(1.0)
        assert network.circuit_cache_evictions == 2
        assert network.circuit_cache_size() == 1


class TestCompactReplayCache:
    def test_epoch_flush_bounds_cache_size(self):
        sim, layer = _fast_layer(replay_cache_limit=10)
        network = layer.network
        node = _FakeNode()
        layer.register_node(1, node.receive, lambda: node.online)
        for index in range(40):
            layer.send_to_node(0, 1, f"m{index}")
        sim.run_until(1.0)
        assert sorted(node.inbox, key=lambda m: int(m[1:])) == [
            f"m{index}" for index in range(40)
        ]
        assert network.total_replay_flushes() > 0
        assert all(relay.replay_cache_size() <= 10 for relay in network.relays)

    def test_unbounded_cache_never_flushes(self):
        sim, layer = _fast_layer(replay_cache_limit=None)
        network = layer.network
        node = _FakeNode()
        layer.register_node(1, node.receive, lambda: node.online)
        for index in range(50):
            layer.send_to_node(0, 1, f"m{index}")
        sim.run_until(1.0)
        assert network.total_replay_flushes() == 0
        assert network.total_replay_cache_entries() > 0

    def test_compact_digests_are_ints(self):
        sim, layer = _fast_layer()
        network = layer.network
        node = _FakeNode()
        layer.register_node(1, node.receive, lambda: node.online)
        layer.send_to_node(0, 1, "m")
        sim.run_until(1.0)
        cached = {
            digest
            for relay in network.relays
            for digest in relay._replay_cache
        }
        assert cached
        assert all(isinstance(digest, int) for digest in cached)

    def test_expected_collisions_tiny_but_nonzero(self):
        sim, layer = _fast_layer()
        network = layer.network
        node = _FakeNode()
        layer.register_node(1, node.receive, lambda: node.online)
        for index in range(20):
            layer.send_to_node(0, 1, f"m{index}")
        sim.run_until(1.0)
        busy = [r for r in network.relays if r.replay_cache_size() >= 2]
        assert busy
        for relay in busy:
            assert 0.0 < relay.expected_replay_collisions() < 1e-12

    def test_replay_still_dropped_with_compact_digests(self):
        sim, layer = _fast_layer()
        network = layer.network
        node = _FakeNode()
        layer.register_node(1, node.receive, lambda: node.online)
        circuit = network.build_circuit()
        onion = network.wrap_for_node(circuit, 1, "once")
        network.inject("node:0", circuit[0], onion)
        sim.run_until(1.0)
        network.inject("node:0", circuit[0], onion)
        sim.run_until(2.0)
        assert node.inbox == ["once"]
        assert network.total_replays_dropped() == 1
