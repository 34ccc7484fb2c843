"""``repro.attacks.traffic_analysis`` against a plain scan of the records.

Every analysis reads the log's folded channel table; each is checked
here against a loop over ``list(log)`` — on whole logs, on windows, and
on logs written by the ideal and the mixnet link layers.
"""

import numpy as np
import pytest

from repro.attacks import (
    direct_node_channel_fraction,
    endpoint_message_counts,
    summarize_traffic,
    top_channels,
)
from repro.privlink import TrafficLog, make_ideal_link_layer, make_mixnet_link_layer
from repro.sim import Simulator


def _scan(log):
    """The four answers from a record-by-record loop."""
    records = list(log)
    endpoints, channels = {}, {}
    direct = 0
    for record in records:
        endpoints[record.src] = endpoints.get(record.src, 0) + 1
        endpoints[record.dst] = endpoints.get(record.dst, 0) + 1
        channel = (record.src, record.dst)
        channels[channel] = channels.get(channel, 0) + 1
        direct += record.src.startswith("node:") and record.dst.startswith("node:")
    ranked = sorted(channels.items(), key=lambda item: (-item[1], item[0]))
    return endpoints, ranked, direct / len(records) if records else 0.0


def _assert_matches_scan(log):
    endpoints, ranked, direct = _scan(log)
    assert endpoint_message_counts(log) == endpoints
    assert top_channels(log, limit=len(ranked) + 1) == ranked
    assert top_channels(log, limit=3) == ranked[:3]
    assert direct_node_channel_fraction(log) == direct
    if not ranked:
        with pytest.raises(ValueError, match="empty traffic log"):
            summarize_traffic(log)
        return
    summary = summarize_traffic(log)
    assert summary.total_records == len(list(log))
    assert summary.unique_endpoints == len(endpoints)
    assert summary.unique_channels == len(ranked)
    assert summary.direct_node_fraction == direct
    assert (summary.busiest_channel, summary.busiest_channel_count) == ranked[0]


def _drive(make_layer, log):
    """Twelve nodes exchange node and endpoint sends over four periods."""
    sim = Simulator()
    layer = make_layer(sim, np.random.default_rng(3), traffic=log)
    for node_id in range(12):
        layer.register_node(node_id, lambda payload: None, lambda: True)
    addresses = [layer.create_endpoint(owner) for owner in range(4)]

    def burst(wave):
        for sender in range(12):
            layer.send_to_node(sender, (sender + 1 + wave % 3) % 12, ("n", wave, sender))
            if sender % 2:
                layer.send_to_endpoint(sender, addresses[wave % 4], ("e", wave, sender))

    for wave in range(16):
        sim.post(0.25 * wave, burst, wave)
    sim.run_until(6.0)
    return log


@pytest.fixture(scope="module")
def mixnet_log():
    return _drive(
        lambda sim, rng, traffic: make_mixnet_link_layer(
            sim, rng, num_relays=6, hop_latency=0.05, traffic=traffic
        ),
        TrafficLog(chunk_records=32),
    )


@pytest.fixture(scope="module")
def ideal_log():
    return _drive(make_ideal_link_layer, TrafficLog(chunk_records=32))


class TestAgainstARecordScan:
    def test_mixnet_log_and_its_windows(self, mixnet_log):
        assert len(mixnet_log) > 500
        _assert_matches_scan(mixnet_log)
        for start, end in [(1.0, 2.0), (0.3, 0.31), (2.5, 9.0), (7.0, 8.0)]:
            _assert_matches_scan(mixnet_log.window(start, end))
        assert 0 < len(mixnet_log.window(1.0, 2.0)) < len(mixnet_log)
        # A short watch names fewer endpoints than the whole run does.
        assert summarize_traffic(mixnet_log.window(1.05, 1.1)).unique_endpoints < (
            summarize_traffic(mixnet_log).unique_endpoints
        )

    def test_ideal_log_and_its_windows(self, ideal_log):
        _assert_matches_scan(ideal_log)
        _assert_matches_scan(ideal_log.window(1.0, 2.0))

    def test_mixnet_never_shows_a_direct_channel(self, mixnet_log):
        assert direct_node_channel_fraction(mixnet_log) == 0.0
        assert direct_node_channel_fraction(mixnet_log.window(1.0, 2.0)) == 0.0

    def test_ideal_anonymity_service_is_all_direct_channels(self):
        sim = Simulator()
        log = TrafficLog()
        layer = make_ideal_link_layer(sim, np.random.default_rng(3), traffic=log)
        for node_id in range(5):
            layer.register_node(node_id, lambda payload: None, lambda: True)
            layer.send_to_node(node_id, (node_id + 2) % 5, "hello")
        sim.run_until(2.0)
        assert len(log) == 5
        assert direct_node_channel_fraction(log) == 1.0
        # A pseudonym send shows the endpoint, not its owner.
        layer.send_to_endpoint(0, layer.create_endpoint(3), "hello")
        assert direct_node_channel_fraction(log) == 5 / 6
        _assert_matches_scan(log)

    def test_empty_log_and_empty_window(self, ideal_log):
        for log in (TrafficLog(), TrafficLog(enabled=False), ideal_log.window(50.0, 60.0)):
            assert endpoint_message_counts(log) == {}
            assert top_channels(log) == []
            assert direct_node_channel_fraction(log) == 0.0
            _assert_matches_scan(log)


class TestCountingRules:
    def test_self_channel_counts_twice_for_its_endpoint(self):
        log = TrafficLog()
        log.record(1.0, "relay:1", "relay:1")
        log.record(2.0, "relay:1", "node:2")
        assert endpoint_message_counts(log) == {"relay:1": 3, "node:2": 1}
        _assert_matches_scan(log)

    def test_top_channels_ties_break_on_names_not_interning_order(self):
        log = TrafficLog(chunk_records=2)
        # Interned z, y, b, a — ids run against the lexicographic order.
        for src, dst in [("z", "y"), ("b", "a"), ("z", "y"), ("b", "a"), ("b", "z")]:
            log.record(1.0, src, dst)
        assert top_channels(log) == [(("b", "a"), 2), (("z", "y"), 2), (("b", "z"), 1)]
        assert top_channels(log, limit=1) == [(("b", "a"), 2)]
        assert summarize_traffic(log).busiest_channel == ("b", "a")
        _assert_matches_scan(log)
