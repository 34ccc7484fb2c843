"""NetEndpoint behavior: bootstrap backoff, liveness, pseudonym service."""

import numpy as np
import pytest

from repro.errors import NetError
from repro.net.clock import Scheduler
from repro.net.codec import (
    Heartbeat,
    Hello,
    HelloAck,
    ShuffleOffer,
    WireEntry,
    decode_frame,
    encode_frame,
)
from repro.net.endpoint import ADDRESS_KIND, NetEndpoint
from repro.net.harness import MeshSpec, _build_mesh
from repro.net.peers import PeerTable
from repro.net.transport import FaultPlan, LoopbackNetwork
from repro.privlink import Address
from repro.rng import RandomStreams
from repro.sim import Simulator


def _endpoint(sim, network, node_id, bootstrap=(), **kwargs):
    transport = network.transport()
    return NetEndpoint(
        node_id=node_id,
        clock=sim,
        transport=transport,
        rng=np.random.default_rng(1000 + node_id),
        bootstrap=bootstrap,
        **kwargs,
    )


def _pair(sim, seed=5, faults=None, **kwargs):
    """A seed endpoint plus one node bootstrapping to it."""
    network = LoopbackNetwork(sim, np.random.default_rng(seed), faults=faults)
    seed_ep = _endpoint(sim, network, 0)
    joiner = _endpoint(
        sim, network, 1, bootstrap=(seed_ep.local_address,), **kwargs
    )
    return network, seed_ep, joiner


def _linked_pair(sim, **kwargs):
    """A bootstrapped pair that then used its trusted link both ways.

    Knowing an address starts no watch; the first trusted-link frame
    does (here an app payload each way, as two trust neighbours'
    shuffles would be), and the sender's next heartbeat tells the
    other side whom the frame came from.
    """
    network, seed_ep, joiner = _pair(sim, **kwargs)
    seed_ep.start()
    joiner.start()
    sim.run_until(1.0)
    joiner.send_to_node(0, {"link": 1})
    seed_ep.send_to_node(1, {"link": 0})
    return network, seed_ep, joiner


def _raw_listener(network):
    """A bare transport plus the decoded frames it receives."""
    raw = network.transport()
    inbox = []
    raw.set_receiver(lambda data, source: inbox.append(decode_frame(data)))
    return raw, inbox


class TestPeerTable:
    def test_two_level_detection(self):
        table = PeerTable(suspect_after=3.0, dead_after=9.0)
        table.note_heard(1, ("h", 1), now=0.0)
        assert table.check(2.0) == ([], [])
        newly_suspect, dead = table.check(4.0)
        assert [r.node_id for r in newly_suspect] == [1]
        assert dead == []
        # Already suspect: not reported twice.
        assert table.check(5.0) == ([], [])
        # Traffic clears suspicion.
        table.note_heard(1, ("h", 1), now=5.0)
        assert not table._peers[1].suspect
        # Full silence kills.
        _, dead = table.check(15.0)
        assert [r.node_id for r in dead] == [1]
        assert 1 not in table
        assert table.suspected_total == 1
        assert table.declared_dead_total == 1

    def test_invalid_timeouts(self):
        with pytest.raises(NetError):
            PeerTable(suspect_after=5.0, dead_after=5.0)
        with pytest.raises(NetError):
            PeerTable(suspect_after=0.0, dead_after=5.0)


class TestBootstrap:
    def test_seed_starts_bootstrapped(self):
        sim = Simulator()
        network = LoopbackNetwork(sim, np.random.default_rng(1))
        seed_ep = _endpoint(sim, network, 0)
        assert seed_ep.bootstrapped

    def test_join_via_seed(self):
        sim = Simulator()
        network, seed_ep, joiner = _pair(sim)
        seed_ep.start()
        joiner.start()
        assert not joiner.bootstrapped
        sim.run_until(2.0)
        assert joiner.bootstrapped
        assert joiner.counters["bootstrap_attempts"] == 1
        # Introduced, not watched: each knows where the other lives.
        assert seed_ep._book[1] == joiner.local_address
        assert joiner._book[0] == seed_ep.local_address
        assert len(seed_ep.table) == 0 and len(joiner.table) == 0
        # The first trusted-link send starts the watch on both sides.
        joiner.send_to_node(0, {"link": 1})
        sim.run_until(4.0)
        assert 1 in seed_ep.table and 0 in joiner.table

    def test_introduced_pair_without_a_link_sends_no_heartbeats(self):
        sim = Simulator()
        network, seed_ep, joiner = _pair(sim)
        seed_ep.start()
        joiner.start()
        sim.run_until(10.0)
        assert joiner.bootstrapped
        # One Hello and its ack, then silence: nobody is watched.
        assert network.frames_sent == 2
        assert joiner.counters["frames_out"] == joiner.counters["liveness_out"] == 1
        assert seed_ep.counters["frames_out"] == seed_ep.counters["liveness_out"] == 1
        assert len(seed_ep.table) == 0 and len(joiner.table) == 0
        assert seed_ep.counters["probes_sent"] == 0

    def test_only_a_seed_introduces(self):
        sim = Simulator()
        network, seed_ep, joiner = _pair(sim)
        seed_ep.start()
        joiner.start()
        sim.run_until(2.0)
        raw, inbox = _raw_listener(network)
        host, port = raw.local_address
        hello = encode_frame(Hello(node_id=9, host=host, port=port))
        raw.send(joiner.local_address, hello)
        sim.run_until(3.0)
        assert inbox == [HelloAck(node_id=1, peers=())]
        assert joiner._book[9] == raw.local_address
        del inbox[:]
        raw.send(seed_ep.local_address, hello)
        sim.run_until(4.0)
        (ack,) = inbox
        assert sorted(peer.node_id for peer in ack.peers) == [1, 9]

    def test_long_address_book_is_introduced_in_several_acks(self):
        # 1,500 entries exceed the codec's 1,024-peer limit for one ack.
        sim = Simulator()
        network, seed_ep, joiner = _pair(sim)
        book = {
            node_id: ("127.0.0.1", 10000 + node_id)
            for node_id in range(2, 1502)
        }
        seed_ep._book.update(book)
        seed_ep.start()
        joiner.start()
        sim.run_until(2.0)
        assert joiner.bootstrapped
        assert seed_ep.counters["frames_out"] == 2
        assert {k: joiner._book[k] for k in book} == book

    def test_backoff_retries_until_seed_appears(self):
        sim = Simulator()
        network = LoopbackNetwork(sim, np.random.default_rng(5))
        # Reserve the seed's address but install the seed only later.
        seed_transport = network.transport()
        joiner = _endpoint(
            sim, network, 1, bootstrap=(seed_transport.local_address,),
            backoff_base=0.25, backoff_factor=2.0, backoff_max=4.0,
        )
        joiner.start()
        sim.run_until(3.0)
        attempts_before = joiner.counters["bootstrap_attempts"]
        assert attempts_before > 1  # kept retrying
        assert not joiner.bootstrapped
        # The seed comes up on the reserved address: next retry succeeds.
        seed_ep = NetEndpoint(
            node_id=0, clock=sim, transport=seed_transport,
            rng=np.random.default_rng(1000),
        )
        seed_ep.start()
        sim.run_until(10.0)
        assert joiner.bootstrapped

    def test_gives_up_after_max_attempts(self):
        sim = Simulator()
        network = LoopbackNetwork(sim, np.random.default_rng(5))
        joiner = _endpoint(
            sim, network, 1, bootstrap=(("127.0.0.1", 1),),
            bootstrap_attempts=3, backoff_base=0.1, backoff_max=0.2,
        )
        joiner.start()
        sim.run_until(20.0)
        assert joiner.counters["bootstrap_attempts"] == 3
        assert joiner.counters["bootstrap_failures"] == 1
        assert not joiner.bootstrapped

    def test_backoff_delays_grow_exponentially_to_cap(self):
        sim = Simulator()
        network = LoopbackNetwork(sim, np.random.default_rng(5))
        joiner = _endpoint(
            sim, network, 1, bootstrap=(("127.0.0.1", 1),),
            backoff_base=0.25, backoff_factor=2.0, backoff_max=1.0,
            bootstrap_attempts=5,
        )
        joiner.start()
        sim.run_until(20.0)
        delays = [
            float(line.rsplit("retry in ", 1)[1])
            for line in joiner.log
            if "retry in" in line
        ]
        assert delays == [0.25, 0.5, 1.0, 1.0, 1.0]

    def test_invalid_schedule_refused(self):
        sim = Simulator()
        network = LoopbackNetwork(sim, np.random.default_rng(1))
        with pytest.raises(NetError):
            _endpoint(sim, network, 1, bootstrap_attempts=0)
        with pytest.raises(NetError):
            _endpoint(sim, network, 1, backoff_base=-1.0)


class TestLiveness:
    def test_heartbeats_keep_peers_alive(self):
        sim = Simulator()
        network, seed_ep, joiner = _linked_pair(sim)
        sim.run_until(30.0)
        assert 1 in seed_ep.table
        assert seed_ep.counters["peers_declared_dead"] == 0
        assert joiner.counters["peers_declared_dead"] == 0

    def test_silent_peer_probed_then_declared_dead(self):
        sim = Simulator()
        network, seed_ep, joiner = _linked_pair(
            sim, suspect_after=3.0, dead_after=9.0
        )
        sim.run_until(2.0)
        assert 1 in seed_ep.table
        # The joiner crashes: timers die and the socket closes, but —
        # unlike shutdown() — no goodbye goes out.
        joiner._heartbeat.stop()
        joiner._liveness.stop()
        joiner._transport.close()
        sim.run_until(6.0)
        assert seed_ep.counters["probes_sent"] >= 1
        assert 1 in seed_ep.table  # still suspect, not dead
        sim.run_until(15.0)
        assert 1 not in seed_ep.table
        assert seed_ep.counters["peers_declared_dead"] == 1

    def test_goodbye_removes_immediately(self):
        sim = Simulator()
        network, seed_ep, joiner = _linked_pair(sim)
        sim.run_until(2.0)
        assert 1 in seed_ep.table
        joiner.shutdown()  # polite: sends Goodbye
        sim.run_until(3.0)
        assert 1 not in seed_ep.table
        assert 1 not in seed_ep._book  # gone for good, unlike a dead peer
        assert seed_ep.counters["peers_declared_dead"] == 0
        assert any("goodbye" in line for line in seed_ep.log)

    def test_identified_offer_clears_suspicion(self):
        sim = Simulator()
        network = LoopbackNetwork(sim, np.random.default_rng(5))
        watcher = _endpoint(sim, network, 0, suspect_after=3.0, dead_after=9.0)
        watcher.start()
        raw, inbox = _raw_listener(network)
        raw.send(watcher.local_address, encode_frame(Heartbeat(node_id=1, seq=1)))
        sim.run_until(5.0)
        assert watcher.table._peers[1].suspect
        assert watcher.counters["probes_sent"] == 1
        # The peer never beats again, but it shuffles with us.
        offer = encode_frame(
            ShuffleOffer(
                entries=(WireEntry(value=7, token=8, ttl=5.0),), reply_node=1
            )
        )
        raw.send(watcher.local_address, offer)
        sim.run_until(6.0)
        assert not watcher.table._peers[1].suspect
        sim.run_until(12.0)  # past dead_after since the only heartbeat
        assert 1 in watcher.table
        assert watcher.counters["peers_declared_dead"] == 0

    def test_healed_partition_relinks(self):
        sim = Simulator()
        faults = FaultPlan()
        network, seed_ep, joiner = _linked_pair(sim, faults=faults)
        received = []
        seed_ep.attach(received.append, lambda: True)
        sim.run_until(3.0)
        assert 1 in seed_ep.table and 0 in joiner.table
        faults.partition([seed_ep.local_address], [joiner.local_address])
        sim.run_until(20.0)
        assert 1 not in seed_ep.table and 0 not in joiner.table
        faults.heal()
        joiner.send_to_node(0, {"after": "heal"})
        sim.run_until(23.0)
        assert received[-1] == {"after": "heal"}
        assert joiner.counters["unknown_peer_drops"] == 0
        assert 1 in seed_ep.table and 0 in joiner.table
        assert seed_ep.counters["peers_declared_dead"] == 1
        assert joiner.counters["peers_declared_dead"] == 1


class TestPseudonymService:
    def test_create_registers_with_seed(self):
        sim = Simulator()
        network, seed_ep, joiner = _pair(sim)
        seed_ep.start()
        joiner.start()
        sim.run_until(2.0)
        address = joiner.create_endpoint()
        assert address.kind == ADDRESS_KIND
        assert address.token != 0
        sim.run_until(3.0)
        # The seed's directory now resolves the token.
        assert seed_ep._directory[address.token] == joiner.local_address

    def test_lookup_flushes_pending_payloads(self):
        sim = Simulator()
        network, seed_ep, joiner = _pair(sim)
        other = _endpoint(
            sim, network, 2, bootstrap=(seed_ep.local_address,)
        )
        seed_ep.start()
        joiner.start()
        other.start()
        sim.run_until(2.0)
        address = joiner.create_endpoint()
        sim.run_until(3.0)
        received = []
        joiner.attach(received.append, lambda: True)
        # 'other' has no route for the token: the payload parks behind a
        # lookup to the seed, then flushes when the reply lands.
        other.send_to_endpoint(address, {"msg": "hi"})
        assert received == []
        sim.run_until(5.0)
        assert received == [{"msg": "hi"}]

    def test_unknown_token_drops_when_not_found(self):
        sim = Simulator()
        network, seed_ep, joiner = _pair(sim)
        seed_ep.start()
        joiner.start()
        sim.run_until(2.0)
        joiner.send_to_endpoint(
            Address(token=999, kind=ADDRESS_KIND), {"msg": "lost"}
        )
        sim.run_until(4.0)
        assert joiner.counters["unknown_endpoint_drops"] == 1

    def test_close_endpoint_unregisters(self):
        sim = Simulator()
        network, seed_ep, joiner = _pair(sim)
        seed_ep.start()
        joiner.start()
        sim.run_until(2.0)
        address = joiner.create_endpoint()
        sim.run_until(3.0)
        joiner.close_endpoint(address)
        sim.run_until(4.0)
        assert address.token not in seed_ep._directory


class TestReceivePath:
    def test_garbage_frame_counted_not_raised(self):
        sim = Simulator()
        network, seed_ep, joiner = _pair(sim)
        seed_ep.start()
        joiner.start()
        raw = network.transport()
        raw.send(seed_ep.local_address, b"\xde\xad\xbe\xef")
        sim.run_until(1.0)
        assert seed_ep.counters["codec_rejects"] == 1

    def test_probe_answered(self):
        sim = Simulator()
        network, seed_ep, joiner = _pair(sim)
        seed_ep.start()
        joiner.start()
        sim.run_until(2.0)
        raw, inbox = _raw_listener(network)
        raw.send(
            seed_ep.local_address,
            encode_frame(Heartbeat(node_id=1, seq=1, reply_wanted=True)),
        )
        sim.run_until(3.0)
        beats = [m for m in inbox if isinstance(m, Heartbeat)]
        assert beats and beats[0].node_id == 0

    def test_offline_node_drops_delivery(self):
        sim = Simulator()
        network, seed_ep, joiner = _pair(sim)
        seed_ep.attach(lambda payload: None, lambda: False)  # offline
        seed_ep.start()
        joiner.start()
        sim.run_until(2.0)
        joiner.send_to_node(0, {"app": 1})
        sim.run_until(3.0)
        assert seed_ep.counters["offline_drops"] == 1

    def test_double_start_refused(self):
        sim = Simulator()
        network = LoopbackNetwork(sim, np.random.default_rng(1))
        endpoint = _endpoint(sim, network, 0)
        endpoint.start()
        with pytest.raises(NetError):
            endpoint.start()

    def test_shutdown_idempotent(self):
        sim = Simulator()
        network = LoopbackNetwork(sim, np.random.default_rng(1))
        endpoint = _endpoint(sim, network, 0)
        endpoint.start()
        endpoint.shutdown()
        endpoint.shutdown()  # no error
        assert any("shutdown" in line for line in endpoint.log)


def _run_mesh(num_nodes, checkpoints, seed=1):
    """Drive the harness's mesh by hand, so the endpoints stay inspectable.

    Returns the endpoints, the collector and the fabric's cumulative
    frame count at each checkpoint time.
    """
    spec = MeshSpec(num_nodes=num_nodes, seed=seed, duration=checkpoints[-1])
    scheduler = Scheduler(Simulator())
    streams = RandomStreams(seed)
    network = LoopbackNetwork(scheduler, streams.substream("net", "fabric"))
    transports = [network.transport() for _ in range(num_nodes)]
    overlay, collector, endpoints = _build_mesh(
        spec, scheduler, streams, transports,
        [transport.local_address for transport in transports],
    )
    overlay.start()
    collector.start()
    frames = []
    for checkpoint in checkpoints:
        scheduler.run_until(checkpoint)
        frames.append(network.frames_sent)
    return spec, endpoints, collector, frames


class TestMeshTraffic:
    def test_steady_state_traffic_does_not_grow_with_mesh_size(self):
        # Liveness follows links: per node-period a node exchanges
        # frames with its lattice neighbours and pseudonym links only,
        # however many addresses it has been introduced to.
        per_node_period = {}
        for num_nodes in (16, 48):
            spec, endpoints, _, (half, full) = _run_mesh(num_nodes, (10.0, 20.0))
            per_node_period[num_nodes] = (full - half) / (num_nodes * 10.0)
            for endpoint in endpoints:
                assert len(endpoint._book) == num_nodes - 1
                assert len(endpoint.table) <= spec.lattice_degree
        small, large = per_node_period[16], per_node_period[48]
        assert abs(large - small) <= 0.10 * small, per_node_period

    def test_routes_stay_bounded_over_a_long_run(self):
        num_nodes = 16
        _, endpoints, collector, _ = _run_mesh(num_nodes, (480.0,))
        # 16 live tokens at any time, one new set every 15 periods.
        assert max(len(e._routes) for e in endpoints) <= 4 * num_nodes
        offers = sum(e.counters["shuffle_offers_in"] for e in endpoints)
        replies = sum(e.counters["shuffle_replies_in"] for e in endpoints)
        assert replies / offers >= 0.99
        assert collector.disconnected.values[-1] == 0.0
