"""Tests for the bidirectional-channel adjacency used by dissemination."""

import pytest

from repro import Overlay
from repro.dissemination import EpidemicBroadcast, build_channel_lists

from .csr import edge_list


class TestChannelAdjacency:
    def _ready(self, graph, config, warmup=10.0):
        overlay = Overlay.build(graph, config, with_churn=False)
        flood = EpidemicBroadcast(overlay, fanout=None, ttl=8)
        flood.install()
        overlay.start()
        overlay.run_until(warmup)
        return overlay, flood

    def test_adjacency_matches_snapshot_edges(
        self, small_trust_graph, small_config
    ):
        """Every snapshot edge appears as a channel on at least one end,
        and the channel graph has no edges the snapshot lacks."""
        overlay, flood = self._ready(small_trust_graph, small_config)
        adjacency = build_channel_lists(overlay)
        snapshot = overlay.snapshot(online_only=False)

        channel_pairs = set()
        for node_id, channels in adjacency.items():
            for kind, target, destination in channels:
                if kind == "trusted":
                    channel_pairs.add(frozenset((node_id, target)))
                elif kind == "reverse":
                    channel_pairs.add(frozenset((node_id, target)))
                else:  # out: resolve through the service that routes it
                    owner = overlay.link_layer.pseudonym.owner_of(target)
                    channel_pairs.add(frozenset((node_id, owner)))
                    assert owner == destination
        snapshot_pairs = {frozenset(edge) for edge in edge_list(snapshot)}
        assert snapshot_pairs <= channel_pairs

    def test_reverse_channels_present(self, small_trust_graph, small_config):
        overlay, flood = self._ready(small_trust_graph, small_config)
        adjacency = build_channel_lists(overlay)
        kinds = {
            kind
            for channels in adjacency.values()
            for kind, _target, _destination in channels
        }
        assert "reverse" in kinds
        assert "out" in kinds
        assert "trusted" in kinds

    def test_reverse_channel_delivers(self, small_trust_graph, small_config):
        """A flood traverses links *against* their establishment
        direction: every online snapshot neighbor of the origin gets the
        message with ttl=1, including pure in-link neighbors."""
        overlay, flood = self._ready(small_trust_graph, small_config, warmup=15.0)
        origin = 0
        snapshot = overlay.snapshot()
        neighbors = set(snapshot.neighbors(origin))
        # Find a neighbor connected ONLY via an in-link (it links to 0,
        # 0 does not link to it).
        out_owners = set()
        for pseudonym in overlay.nodes[origin].links.pseudonym_links():
            owner = overlay.owner_of_value(pseudonym.value)
            if owner is not None:
                out_owners.add(owner)
        out_owners |= overlay.nodes[origin].links.trusted
        in_only = neighbors - out_owners
        record = flood.broadcast(origin, payload="x")
        overlay.run_until(overlay.sim.now + 2.0)
        reached = set(record.delivery_times)
        assert neighbors <= reached | {origin}
        if in_only:  # topology-dependent, usually non-empty
            assert in_only <= reached
