"""Tests for epidemic push gossip."""

import hashlib

import pytest

from repro import Overlay
from repro.dissemination import EpidemicBroadcast
from repro.errors import DisseminationError
from repro.experiments import SMOKE, make_config, make_trust_graph


def _converged_overlay(graph, config, warmup=15.0):
    overlay = Overlay.build(graph, config, with_churn=False)
    overlay.start()
    overlay.run_until(warmup)
    return overlay


class TestEpidemicBroadcast:
    def test_high_fanout_reaches_most_nodes(self, small_trust_graph, small_config):
        overlay = _converged_overlay(small_trust_graph, small_config)
        epidemic = EpidemicBroadcast(overlay, fanout=6, ttl=12)
        epidemic.install()
        record = epidemic.broadcast(0, payload="x")
        overlay.run_until(overlay.sim.now + 5.0)
        online = overlay.online_ids()
        reached = [node for node in online if record.latency_of(node) is not None]
        assert len(reached) >= 0.85 * len(online)

    def test_fanout_one_reaches_few(self, small_trust_graph, small_config):
        overlay = _converged_overlay(small_trust_graph, small_config)
        epidemic = EpidemicBroadcast(overlay, fanout=1, ttl=3)
        epidemic.install()
        record = epidemic.broadcast(0, payload="x")
        overlay.run_until(overlay.sim.now + 5.0)
        # At most 1 + 1 + 1 + 1 nodes along a fanout-1, ttl-3 chain.
        assert record.deliveries() <= 4

    def test_infect_forever_reaches_at_least_as_many(
        self, small_trust_graph, small_config
    ):
        results = {}
        for forever in (False, True):
            overlay = _converged_overlay(small_trust_graph, small_config)
            epidemic = EpidemicBroadcast(
                overlay, fanout=2, ttl=8, infect_forever=forever
            )
            epidemic.install()
            record = epidemic.broadcast(0, payload="x")
            overlay.run_until(overlay.sim.now + 5.0)
            results[forever] = (record.deliveries(), record.forwards)
        assert results[True][0] >= results[False][0]
        assert results[True][1] > results[False][1]

    def test_fewer_forwards_than_flooding(self, small_trust_graph, small_config):
        overlay = _converged_overlay(small_trust_graph, small_config)
        flood = EpidemicBroadcast(overlay, fanout=None, ttl=8)
        flood.install()
        flood_record = flood.broadcast(0, payload="x")
        overlay.run_until(overlay.sim.now + 5.0)

        overlay2 = _converged_overlay(small_trust_graph, small_config)
        epidemic = EpidemicBroadcast(overlay2, fanout=3, ttl=8)
        epidemic.install()
        epidemic_record = epidemic.broadcast(0, payload="x")
        overlay2.run_until(overlay2.sim.now + 5.0)

        assert epidemic_record.forwards < flood_record.forwards

    @pytest.mark.parametrize("kwargs", [{"fanout": 0}, {"ttl": 0}])
    def test_invalid_parameters(self, small_trust_graph, small_config, kwargs):
        overlay = Overlay.build(small_trust_graph, small_config)
        with pytest.raises(DisseminationError):
            EpidemicBroadcast(overlay, **kwargs)

    def test_offline_origin_rejected(self, small_trust_graph, small_config):
        overlay = Overlay.build(small_trust_graph, small_config, with_churn=False)
        epidemic = EpidemicBroadcast(overlay)
        epidemic.install()
        with pytest.raises(DisseminationError):
            epidemic.broadcast(0, payload="x")


def _pin_digest(make_disseminator):
    """SHA-256 over five broadcasts on the churning SMOKE overlay.

    The default link layer draws real per-message latencies, so the
    digest covers delivery *times* as well as hop rounds and forwards —
    what the zero-latency differential tests cannot see.
    """
    graph = make_trust_graph(SMOKE, 0.5, 1)
    config = make_config(SMOKE, alpha=0.6, f=0.5, seed=1)
    overlay = Overlay.build(graph, config)
    overlay.start()
    overlay.run_until(12.0)
    disseminator = make_disseminator(overlay)
    disseminator.install()
    hasher = hashlib.sha256()
    for index in range(5):
        online = overlay.online_ids()
        record = disseminator.broadcast(online[(7 * index) % len(online)], index)
        overlay.run_until(overlay.sim.now + 3.0)
        hasher.update(
            repr(
                (
                    sorted(record.delivery_times.items()),
                    sorted(record.delivery_rounds.items()),
                    record.forwards,
                )
            ).encode()
        )
    return hasher.hexdigest()


class TestCrossCommitPins:
    """Object-plane broadcasts as computed on commit 92eddbe, before
    flooding became ``EpidemicBroadcast(fanout=None)``.  Only the
    constructor calls below may change; the literals may not."""

    FLOOD = "e0771529ab6cafa87b290f4fd35bdaf7798c177682d3f83fe3319459cac4a358"
    EPIDEMIC = "5c62138c9762617d84ce0a0d8916181a07f0078b17a88bfb031fdb4b7c166f21"

    def test_flood_digest(self):
        digest = _pin_digest(
            lambda overlay: EpidemicBroadcast(overlay, fanout=None, ttl=8)
        )
        assert digest == self.FLOOD

    def test_epidemic_digest(self):
        digest = _pin_digest(
            lambda overlay: EpidemicBroadcast(overlay, fanout=4, ttl=8)
        )
        assert digest == self.EPIDEMIC
