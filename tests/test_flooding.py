"""Tests for controlled flooding: ``EpidemicBroadcast(fanout=None)``."""

import pytest

from repro import Overlay
from repro.dissemination import EpidemicBroadcast
from repro.errors import DisseminationError


def _converged_overlay(graph, config, warmup=15.0):
    overlay = Overlay.build(graph, config, with_churn=False)
    overlay.start()
    overlay.run_until(warmup)
    return overlay


class TestFloodBroadcast:
    def test_full_coverage_on_connected_overlay(
        self, small_trust_graph, small_config
    ):
        overlay = _converged_overlay(small_trust_graph, small_config)
        flood = EpidemicBroadcast(overlay, fanout=None, ttl=10)
        flood.install()
        record = flood.broadcast(0, payload="news")
        overlay.run_until(overlay.sim.now + 5.0)
        latencies = [record.latency_of(node) for node in overlay.online_ids()]
        assert None not in latencies  # the whole online audience
        assert sum(latencies) > 0.0

    def test_ttl_limits_reach(self, small_trust_graph, small_config):
        overlay = _converged_overlay(small_trust_graph, small_config, warmup=5.0)
        # With ttl=1 the flood reaches only the origin's direct overlay
        # neighbors (trusted plus established pseudonym channels).
        flood = EpidemicBroadcast(overlay, fanout=None, ttl=1)
        flood.install()
        snapshot = overlay.snapshot()
        record = flood.broadcast(0, payload="x")
        overlay.run_until(overlay.sim.now + 3.0)
        neighbors = set(snapshot.neighbors(0))
        reached = set(record.delivery_times) - {0}
        assert reached <= neighbors
        assert reached  # at least the trust neighbors heard it

    def test_duplicates_suppressed(self, small_trust_graph, small_config):
        overlay = _converged_overlay(small_trust_graph, small_config)
        flood = EpidemicBroadcast(overlay, fanout=None, ttl=8)
        flood.install()
        record = flood.broadcast(0, payload="x")
        overlay.run_until(overlay.sim.now + 5.0)
        # Every node delivered at most once.
        assert len(record.delivery_times) <= small_config.num_nodes

    def test_offline_origin_rejected(self, small_trust_graph, small_config):
        overlay = Overlay.build(small_trust_graph, small_config, with_churn=False)
        flood = EpidemicBroadcast(overlay, fanout=None, ttl=10)
        flood.install()
        with pytest.raises(DisseminationError):
            flood.broadcast(0, payload="x")

    def test_double_install_rejected(self, small_trust_graph, small_config):
        overlay = _converged_overlay(small_trust_graph, small_config, warmup=1.0)
        flood = EpidemicBroadcast(overlay, fanout=None, ttl=10)
        flood.install()
        with pytest.raises(DisseminationError):
            flood.install()

    def test_invalid_ttl(self, small_trust_graph, small_config):
        overlay = Overlay.build(small_trust_graph, small_config)
        with pytest.raises(DisseminationError):
            EpidemicBroadcast(overlay, fanout=None, ttl=0)

    def test_multiple_broadcasts_tracked_separately(
        self, small_trust_graph, small_config
    ):
        overlay = _converged_overlay(small_trust_graph, small_config)
        flood = EpidemicBroadcast(overlay, fanout=None, ttl=8)
        flood.install()
        first = flood.broadcast(0, payload="a")
        second = flood.broadcast(1, payload="b")
        overlay.run_until(overlay.sim.now + 5.0)
        assert first.message_id != second.message_id
        assert flood.record(first.message_id) is first

    def test_unknown_record_raises(self, small_trust_graph, small_config):
        overlay = _converged_overlay(small_trust_graph, small_config, warmup=1.0)
        flood = EpidemicBroadcast(overlay, fanout=None, ttl=10)
        flood.install()
        with pytest.raises(DisseminationError):
            flood.record(999)
