"""Differential tests: the vectorized dissemination plane vs objects.

The batch engine's exactness contract is that, over a shared channel
snapshot and the same per-broadcast sampling keys, it reproduces the
object plane byte for byte: identical delivery sets, identical per-node
delivery rounds, identical forward counts.  These tests pin that
contract for infect-and-die, infect-forever, and flooding; for churn
interleaved with an epidemic; and for the TTL/duplicate edge cases the
frontier discretization has to get right.
"""

import numpy as np
import pytest

from repro import Overlay
from repro.core import BatchOverlay
from repro.config import SystemConfig
from repro.dissemination import (
    base,
    batch,
    BatchBroadcastEngine,
    BroadcastLedger,
    BroadcastRecord,
    ChannelSnapshot,
    EpidemicBroadcast,
    build_channel_lists,
)
from repro.errors import DisseminationError
from repro.experiments import SMOKE, make_config, make_trust_graph
from repro.privlink import make_ideal_link_layer


def _instant_overlay(graph, config, warmup=12.0, with_churn=True):
    """A warmed overlay whose app messages travel with zero latency, so
    a broadcast completes within one sim instant and hop rounds are
    exact."""
    overlay = Overlay.build(
        graph,
        config,
        with_churn=with_churn,
        link_layer_factory=lambda sim, rng: make_ideal_link_layer(
            sim, rng, max_latency=0.0
        ),
    )
    overlay.start()
    overlay.run_until(warmup)
    return overlay


def _object_broadcasts(overlay, disseminator, origins):
    """Run broadcasts sequentially on the object plane, draining each
    instant cascade, and return the records."""
    records = []
    for origin in origins:
        records.append(disseminator.broadcast(origin, payload=None))
        overlay.sim.run_until(overlay.sim.now)
    return records


def _engine_for(overlay, snapshot=None, **kwargs):
    """A batch engine keyed off the same ``dissemination`` substream the
    object plane uses, over the overlay's current channels."""
    if snapshot is None:
        snapshot = ChannelSnapshot.from_overlay(overlay)
    online = np.array([node.online for node in overlay.nodes], dtype=bool)
    kwargs.setdefault("rng", overlay.substream("dissemination"))
    return BatchBroadcastEngine(snapshot, online=online, **kwargs)


def _assert_identical(record: BroadcastRecord, view) -> None:
    __tracebackhint__ = record.message_id
    assert view.delivery_rounds == record.delivery_rounds
    assert view.forwards == record.forwards
    assert set(view.delivery_rounds) == set(record.delivery_times)


def _online_origins(overlay, count):
    online = [node.node_id for node in overlay.nodes if node.online]
    return [online[i % len(online)] for i in range(count)]


class TestDifferentialExactness:
    """Batch plane == object plane, per broadcast, per node, per round."""

    def test_epidemic_infect_and_die(self, small_trust_graph, small_config):
        smoke = (
            make_trust_graph(SMOKE, f=0.5, seed=1),
            make_config(SMOKE, alpha=0.6, f=0.5, seed=1),
        )
        for (graph, config), count, fanout, ttl in (
            ((small_trust_graph, small_config), 5, 3, 6),
            (smoke, 40, 4, 8),
        ):
            overlay = _instant_overlay(graph, config)
            disseminator = EpidemicBroadcast(overlay, fanout=fanout, ttl=ttl)
            disseminator.install()
            origins = _online_origins(overlay, count)
            records = _object_broadcasts(overlay, disseminator, origins)

            engine = _engine_for(overlay, fanout=fanout, ttl=ttl)
            mids = engine.start(origins)
            engine.run()
            num_nodes = config.num_nodes
            for record, mid in zip(records, mids):
                view = engine.ledger.record(mid)
                _assert_identical(record, view)
                assert view.coverage(num_nodes) == record.coverage(num_nodes)
                assert view.latency_percentile(95.0) == float(
                    np.percentile(list(record.delivery_rounds.values()), 95.0)
                )
            assert engine.total_delivered == sum(
                r.deliveries() for r in records
            )

    def test_epidemic_infect_forever(self, small_trust_graph, small_config):
        overlay = _instant_overlay(small_trust_graph, small_config)
        disseminator = EpidemicBroadcast(
            overlay, fanout=3, ttl=5, infect_forever=True
        )
        disseminator.install()
        origins = _online_origins(overlay, 4)
        records = _object_broadcasts(overlay, disseminator, origins)

        engine = _engine_for(overlay, fanout=3, ttl=5, infect_forever=True)
        mids = engine.start(origins)
        engine.run()
        for record, mid in zip(records, mids):
            _assert_identical(record, engine.ledger.record(mid))

    @pytest.mark.parametrize("infect_forever", [False, True])
    def test_tied_keys_break_by_channel_index(
        self, small_trust_graph, small_config, monkeypatch, infect_forever
    ):
        """A 2-bit hash ties keys within every activation: both planes
        must still pick the same channels (lowest index wins a tie)."""
        for module in (base, batch):
            monkeypatch.setattr(module, "_mix64", lambda x: x & np.uint64(3))
        overlay = _instant_overlay(small_trust_graph, small_config)
        disseminator = EpidemicBroadcast(
            overlay,
            fanout=3,
            ttl=5,
            infect_forever=infect_forever,
        )
        disseminator.install()
        origins = _online_origins(overlay, 4)
        records = _object_broadcasts(overlay, disseminator, origins)

        engine = _engine_for(
            overlay, fanout=3, ttl=5, infect_forever=infect_forever
        )
        mids = engine.start(origins)
        engine.run()
        for record, mid in zip(records, mids):
            _assert_identical(record, engine.ledger.record(mid))

    def test_flooding(self, small_trust_graph, small_config):
        overlay = _instant_overlay(small_trust_graph, small_config)
        flood = EpidemicBroadcast(overlay, fanout=None, ttl=6)
        flood.install()
        origins = _online_origins(overlay, 5)
        records = _object_broadcasts(overlay, flood, origins)

        engine = _engine_for(overlay, fanout=None, rng=None, ttl=6)
        mids = engine.start(origins)
        engine.run()
        for record, mid in zip(records, mids):
            _assert_identical(record, engine.ledger.record(mid))

    def test_ttl_exhaustion_at_frontier(
        self, small_trust_graph, small_config
    ):
        """ttl=1: the frontier dies immediately after the first hop —
        nobody reached at round 1 may forward (object and batch)."""
        overlay = _instant_overlay(small_trust_graph, small_config)
        flood = EpidemicBroadcast(overlay, fanout=None, ttl=1)
        flood.install()
        origins = _online_origins(overlay, 3)
        records = _object_broadcasts(overlay, flood, origins)

        engine = _engine_for(overlay, fanout=None, rng=None, ttl=1)
        mids = engine.start(origins)
        engine.run()
        assert engine.rounds == 1  # one frontier round, then exhaustion
        for record, mid in zip(records, mids):
            view = engine.ledger.record(mid)
            _assert_identical(record, view)
            assert set(view.delivery_rounds.values()) <= {0, 1}
            # Only the origin forwarded.
            degree = int(engine.snapshot.degrees()[record.origin])
            assert view.forwards == degree


class TestChurnInterleaved:
    """An epidemic racing churn: nodes drop offline mid-cascade."""

    def _frozen_overlay(self, graph, config):
        """Fixed one-period latency, topology frozen after warmup, so
        hop k of a broadcast lands exactly k periods after start."""
        overlay = Overlay.build(
            graph,
            config,
            with_churn=False,
            link_layer_factory=lambda sim, rng: make_ideal_link_layer(
                sim, rng, fixed_latency=1.0
            ),
        )
        overlay.start()
        overlay.run_until(10.0)
        for node in overlay.nodes:
            node._shuffler.stop()
            if node._renewal_handle is not None:
                node._renewal_handle.cancel()
                node._renewal_handle = None
        return overlay

    def test_node_offline_mid_epidemic(self, small_trust_graph, small_config):
        """The origin and a node the cascade has not reached yet go
        offline between hop 1 and hop 2: deliveries in flight toward
        them are dropped at delivery time (so the unreached victim also
        never forwards), and both planes agree on the shrunken cascade."""
        overlay = self._frozen_overlay(small_trust_graph, small_config)
        disseminator = EpidemicBroadcast(overlay, fanout=3, ttl=4)
        disseminator.install()
        snapshot = ChannelSnapshot.from_overlay(overlay)
        online = np.array([node.online for node in overlay.nodes], dtype=bool)
        assert online.all()
        origin = 0

        # Control cascade (no churn) tells us who gets reached when; it
        # draws the same first sampling key as the object run below.
        control = BatchBroadcastEngine(
            snapshot,
            fanout=3,
            ttl=4,
            rng=overlay.substream("dissemination"),
        )
        control_view = control.broadcast(origin)
        late = sorted(
            node
            for node, rnd in control_view.delivery_rounds.items()
            if rnd == 2
        )
        assert late  # the cascade must still be growing at round 2

        record = disseminator.broadcast(origin, payload=None)
        start = overlay.sim.now
        overlay.run_until(start + 1.5)  # hop 1 delivered, hop 2 in flight
        victims = [origin, late[0]]
        for victim in victims:
            overlay.nodes[victim].go_offline()
        overlay.run_until(start + 6.0)

        engine = BatchBroadcastEngine(
            snapshot,
            fanout=3,
            ttl=4,
            rng=overlay.substream("dissemination"),
            online=online,
        )
        mid = engine.start([origin])[0]
        engine.step()  # round 1: victims still online
        online[victims] = False  # mask is live — engine sees the flip
        engine.run()
        view = engine.ledger.record(mid)
        _assert_identical(record, view)
        # The round-2 victim was never delivered, so the cascade is
        # strictly smaller than the no-churn control.
        assert late[0] not in view.delivery_rounds
        assert view.deliveries() < control_view.deliveries()

    def test_offline_origin_rejected(self, small_trust_graph, small_config):
        overlay = self._frozen_overlay(small_trust_graph, small_config)
        snapshot = ChannelSnapshot.from_overlay(overlay)
        online = np.array([node.online for node in overlay.nodes], dtype=bool)
        online[7] = False
        engine = BatchBroadcastEngine(
            snapshot,
            fanout=3,
            ttl=4,
            rng=overlay.substream("dissemination"),
            online=online,
        )
        with pytest.raises(DisseminationError, match="offline"):
            engine.start([7])


class TestFrontierCollisions:
    """Duplicate suppression when activation paths meet in one round."""

    def _diamond(self):
        # 0 - 1, 0 - 2, 1 - 3, 2 - 3: two equal-length paths 0->3.
        indptr = np.array([0, 2, 4, 6, 8], dtype=np.int64)
        targets = np.array([1, 2, 0, 3, 0, 3, 1, 2], dtype=np.int64)
        return ChannelSnapshot(indptr, targets)

    def test_two_frontiers_collide_in_one_round(self):
        """Node 3 is reached via 1 AND via 2 in the same round: exactly
        one delivery, at round 2, with both sends still counted."""
        engine = BatchBroadcastEngine(self._diamond(), fanout=None, ttl=2)
        view = engine.broadcast(0)
        assert view.delivery_rounds == {0: 0, 1: 1, 2: 1, 3: 2}
        # origin floods 2 channels; nodes 1 and 2 each flood 2 more.
        assert view.forwards == 6
        assert view.deliveries() == 4

    def test_collision_matches_object_plane(
        self, small_trust_graph, small_config
    ):
        """The dense conftest graph produces same-round collisions
        naturally; ttl=2 floods still match the object plane exactly."""
        overlay = _instant_overlay(small_trust_graph, small_config)
        flood = EpidemicBroadcast(overlay, fanout=None, ttl=2)
        flood.install()
        origins = _online_origins(overlay, 4)
        records = _object_broadcasts(overlay, flood, origins)
        engine = _engine_for(overlay, fanout=None, rng=None, ttl=2)
        mids = engine.start(origins)
        engine.run()
        for record, mid in zip(records, mids):
            _assert_identical(record, engine.ledger.record(mid))

    def test_infect_forever_multiplicity_aggregates(self):
        """With infect-forever, node 3's two same-round activations fold
        into one frontier entry with multiplicity 2 — its next round
        forwards count double."""
        engine = BatchBroadcastEngine(
            self._diamond(),
            fanout=2,
            ttl=3,
            infect_forever=True,
            rng=np.random.default_rng(7),
        )
        view = engine.broadcast(0)
        assert view.delivery_rounds[3] == 2
        # Every hop sends fanout=2 messages and degree is 2 everywhere,
        # so multiplicity doubles each round: 2 + 4 + 8 sends.
        assert view.forwards == 14


class TestAdjacencyCache:
    """The O(N+E) channel rebuild only runs when the overlay changed."""

    def test_same_instant_broadcasts_reuse_map(
        self, small_trust_graph, small_config
    ):
        overlay = _instant_overlay(small_trust_graph, small_config)
        disseminator = EpidemicBroadcast(overlay, fanout=3, ttl=4)
        disseminator.install()
        origins = _online_origins(overlay, 2)
        disseminator.broadcast(origins[0], payload=None)
        overlay.sim.run_until(overlay.sim.now)
        first = disseminator._adjacency
        assert first is not None
        disseminator.broadcast(origins[1], payload=None)
        assert disseminator._adjacency is first  # same object: cache hit

    def test_link_mutation_invalidates(self, small_trust_graph, small_config):
        overlay = _instant_overlay(small_trust_graph, small_config)
        disseminator = EpidemicBroadcast(overlay, fanout=3, ttl=4)
        disseminator.install()
        origin = _online_origins(overlay, 1)[0]
        disseminator.broadcast(origin, payload=None)
        overlay.sim.run_until(overlay.sim.now)
        stale = disseminator._adjacency
        overlay.run_until(overlay.sim.now + 2.0)  # gossip mutates links
        disseminator.broadcast(origin, payload=None)
        assert disseminator._adjacency is not stale


class TestSnapshotBuilders:
    def test_from_overlay_preserves_channel_order(
        self, small_trust_graph, small_config
    ):
        overlay = _instant_overlay(small_trust_graph, small_config)
        lists = build_channel_lists(overlay)
        snapshot = ChannelSnapshot.from_overlay(overlay)
        assert snapshot.num_nodes == len(overlay.nodes)
        for node in overlay.nodes:
            row = snapshot.targets[
                snapshot.indptr[node.node_id] : snapshot.indptr[node.node_id + 1]
            ]
            expected = [dest for _k, _t, dest in lists[node.node_id]]
            assert row.tolist() == expected

    def test_from_batch_overlay_blocks(self):
        config = SystemConfig(
            num_nodes=400,
            cache_size=16,
            shuffle_length=8,
            target_degree=8,
            min_pseudonym_links=4,
            availability=0.7,
            mean_offline_time=8.0,
            seed=3,
        )
        overlay = BatchOverlay.build(config, extra_edges_per_node=2)
        overlay.run(3)
        snapshot = ChannelSnapshot.from_batch_overlay(overlay)
        indptr, indices, holder, owner = overlay.channel_edges()
        assert snapshot.num_nodes == config.num_nodes
        trusted_deg = np.diff(indptr)
        out_deg = np.bincount(holder, minlength=config.num_nodes)
        reverse_deg = np.bincount(owner, minlength=config.num_nodes)
        assert snapshot.channel_count == int(
            trusted_deg.sum() + out_deg.sum() + reverse_deg.sum()
        )
        # Spot-check one row's three blocks.
        row = int(np.argmax(trusted_deg * (out_deg > 0) * (reverse_deg > 0)))
        lo, hi = int(snapshot.indptr[row]), int(snapshot.indptr[row + 1])
        channels = snapshot.targets[lo:hi]
        t = int(trusted_deg[row])
        o = int(out_deg[row])
        assert channels[:t].tolist() == indices[
            int(indptr[row]) : int(indptr[row + 1])
        ].tolist()
        assert sorted(channels[t : t + o].tolist()) == sorted(
            owner[holder == row].tolist()
        )
        assert sorted(channels[t + o :].tolist()) == sorted(
            holder[owner == row].tolist()
        )
        # Every channel is a live broadcast target.
        engine = BatchBroadcastEngine(
            snapshot,
            fanout=None,
            ttl=8,
            online=overlay.churn.online,
        )
        origin = int(overlay.churn.online_rows()[0])
        view = engine.broadcast(origin)
        assert view.deliveries() >= 1

    def test_snapshot_validation(self):
        with pytest.raises(DisseminationError):
            ChannelSnapshot(np.zeros(0, dtype=np.int64), np.zeros(0, np.int64))
        with pytest.raises(DisseminationError):
            ChannelSnapshot(
                np.array([0, 2], dtype=np.int64),
                np.array([1], dtype=np.int64),
            )


class _EdgeStub:
    """An overlay that exports fixed ``channel_edges`` arrays."""

    def __init__(self, indptr, indices, holder, owner):
        self._edges = tuple(
            np.asarray(column, dtype=np.int64)
            for column in (indptr, indices, holder, owner)
        )

    def channel_edges(self):
        return self._edges


def _reference_rows(indptr, indices, holder, owner):
    """Every snapshot row, one channel at a time: the trusted CSR row,
    then the row's owners in link order, then its holders ascending."""
    num_nodes = len(indptr) - 1
    rows = [indices[indptr[n] : indptr[n + 1]].tolist() for n in range(num_nodes)]
    holders = [[] for _ in range(num_nodes)]
    for h, o in zip(holder.tolist(), owner.tolist()):
        rows[h].append(o)
        holders[o].append(h)
    return [row + sorted(held) for row, held in zip(rows, holders)]


class TestBatchSnapshotRows:
    """``from_batch_overlay`` against a per-row Python reference."""

    def _assert_rows(self, overlay):
        snapshot = ChannelSnapshot.from_batch_overlay(overlay)
        expected = _reference_rows(*overlay.channel_edges())
        assert snapshot.num_nodes == len(expected)
        for node, row in enumerate(expected):
            lo, hi = snapshot.indptr[node : node + 2]
            assert snapshot.targets[lo:hi].tolist() == row, node

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_every_row_of_a_batch_overlay(self, num_shards):
        config = SystemConfig(
            num_nodes=400,
            cache_size=16,
            shuffle_length=8,
            target_degree=8,
            min_pseudonym_links=4,
            availability=0.7,
            mean_offline_time=8.0,
            seed=3,
        )
        overlay = BatchOverlay.build(
            config, extra_edges_per_node=2, num_shards=num_shards
        )
        overlay.run(3)
        self._assert_rows(overlay)

    def test_repeated_link_to_one_owner(self):
        # Holder 0 links to owner 2 twice (around a link to 1); holder 3
        # links to 2 as well, so row 2's reverse block is [0, 0, 3].
        overlay = _EdgeStub(
            indptr=[0, 1, 2, 3, 3],
            indices=[1, 0, 3],
            holder=[0, 0, 0, 2, 3],
            owner=[2, 1, 2, 0, 2],
        )
        self._assert_rows(overlay)
        snapshot = ChannelSnapshot.from_batch_overlay(overlay)
        row = snapshot.targets[snapshot.indptr[2] : snapshot.indptr[3]]
        assert row.tolist() == [3, 0, 0, 0, 3]

    def test_descending_holder_refused(self):
        overlay = _EdgeStub(
            indptr=[0, 0, 0, 0],
            indices=[],
            holder=[0, 2, 1],
            owner=[1, 0, 0],
        )
        with pytest.raises(DisseminationError, match="holder ascending"):
            ChannelSnapshot.from_batch_overlay(overlay)


class TestFloodReachesComponent:
    """A flood with unbounded TTL under the live online mask reaches
    exactly the origin's connected component of ``overlay.analysis()``
    — the snapshot and the metric kernels agree on what is connected."""

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_flood_equals_component(self, num_shards):
        config = SystemConfig(
            num_nodes=400,
            cache_size=16,
            shuffle_length=8,
            target_degree=8,
            min_pseudonym_links=4,
            availability=0.5,
            mean_offline_time=8.0,
            seed=3,
        )
        overlay = BatchOverlay.build(
            config, extra_edges_per_node=1, num_shards=num_shards
        )
        overlay.run(6)
        analysis = overlay.analysis()
        components = sorted(analysis.components(), key=len, reverse=True)
        # The largest components and a few small ones, so both the long
        # cascades and the dead ends are checked.
        picked = components[:6] + components[-2:]
        assert len({len(component) for component in picked}) > 1
        engine = BatchBroadcastEngine(
            ChannelSnapshot.from_batch_overlay(overlay),
            fanout=None,
            ttl=255,
            online=overlay.churn.online,
        )
        for component in picked:
            for origin in (component[0], component[-1]):
                view = engine.broadcast(int(origin))
                assert sorted(view.delivery_rounds) == component.tolist()
                assert view.deliveries() == len(component)


class TestLedgerAndViews:
    def test_ledger_grows_and_validates(self):
        ledger = BroadcastLedger(num_nodes=10, capacity=2)
        mids = [ledger.open(i % 10, key=i + 1, ttl=3, fanout=2, start_round=0)
                for i in range(9)]
        assert mids == list(range(1, 10))
        assert ledger.count == 9
        # Every origin is self-delivered at round 0.
        assert ledger.total_delivered() == 9
        with pytest.raises(DisseminationError):
            ledger.record(99)
        with pytest.raises(DisseminationError):
            ledger.open(0, key=1, ttl=0, fanout=2, start_round=0)
        with pytest.raises(DisseminationError):
            BroadcastLedger(num_nodes=0)

    def test_record_helpers_both_planes(
        self, small_trust_graph, small_config
    ):
        """coverage()/latency_percentile() agree between BroadcastRecord
        and LedgerRecordView on identical broadcasts."""
        overlay = _instant_overlay(small_trust_graph, small_config)
        disseminator = EpidemicBroadcast(overlay, fanout=3, ttl=6)
        disseminator.install()
        origin = _online_origins(overlay, 1)[0]
        record = disseminator.broadcast(origin, payload=None)
        overlay.sim.run_until(overlay.sim.now)
        view = _engine_for(overlay, fanout=3, ttl=6).broadcast(origin)

        num_nodes = len(overlay.nodes)
        assert view.coverage(num_nodes) == record.coverage(num_nodes)
        assert record.coverage(num_nodes) == record.deliveries() / num_nodes
        # Zero-latency links: the object plane's percentile is over wall
        # latencies (all zero); the view's is over hop rounds.
        assert record.latency_percentile(95.0) == 0.0
        rounds = list(view.delivery_rounds.values())
        assert view.latency_percentile(95.0) == float(
            np.percentile(rounds, 95.0)
        )
        for bad in (record, view):
            with pytest.raises(DisseminationError):
                bad.coverage(0)
            with pytest.raises(DisseminationError):
                bad.latency_percentile(101.0)
            with pytest.raises(DisseminationError):
                bad.latency_percentile(-1.0)
            # Ids outside [0, num_nodes) were never reached.
            assert bad.latency_of(-1) is None
            assert bad.latency_of(num_nodes) is None


class TestEngineValidation:
    def _snapshot(self):
        indptr = np.array([0, 1, 2], dtype=np.int64)
        targets = np.array([1, 0], dtype=np.int64)
        return ChannelSnapshot(indptr, targets)

    def test_constructor_guards(self):
        snapshot = self._snapshot()
        rng = np.random.default_rng(1)
        with pytest.raises(DisseminationError, match="ttl"):
            BatchBroadcastEngine(snapshot, fanout=2, ttl=0, rng=rng)
        with pytest.raises(DisseminationError, match="ttl"):
            BatchBroadcastEngine(snapshot, fanout=2, ttl=256, rng=rng)
        with pytest.raises(DisseminationError, match="fanout"):
            BatchBroadcastEngine(snapshot, fanout=0, rng=rng)
        with pytest.raises(DisseminationError, match="infect_forever"):
            BatchBroadcastEngine(snapshot, fanout=None, infect_forever=True)
        with pytest.raises(DisseminationError, match="rng"):
            BatchBroadcastEngine(snapshot, fanout=2)
        with pytest.raises(DisseminationError, match="online"):
            BatchBroadcastEngine(
                snapshot, fanout=None, online=np.ones(3, dtype=bool)
            )
        # A 0/1 integer mask would fancy-index arrivals instead of
        # masking them; it is refused by dtype, not silently misused.
        for dtype in (np.uint8, np.int64):
            with pytest.raises(DisseminationError, match=np.dtype(dtype).name):
                BatchBroadcastEngine(
                    snapshot, fanout=None, online=np.ones(2, dtype=dtype)
                )

    def test_start_guards(self):
        engine = BatchBroadcastEngine(self._snapshot(), fanout=None, ttl=2)
        with pytest.raises(DisseminationError, match="out of range"):
            engine.start([5])
        with pytest.raises(DisseminationError, match="payload"):
            engine.start([0, 1], payloads=["only-one"])

    def test_failed_start_changes_nothing(self):
        """An offline origin late in the list refuses the whole call:
        no ledger row, no key draw, no frontier entry for the origins
        before it."""
        ring = np.arange(8, dtype=np.int64)
        snapshot = ChannelSnapshot(
            2 * np.arange(9, dtype=np.int64),
            np.stack(((ring - 1) % 8, (ring + 1) % 8), axis=1).ravel(),
        )
        online = np.ones(8, dtype=bool)
        online[3] = False
        rng = np.random.default_rng(5)
        engine = BatchBroadcastEngine(
            snapshot, fanout=2, ttl=3, rng=rng, online=online
        )
        before = rng.bit_generator.state
        for origins in ([0, 1, 3], [0, 1, 8]):
            with pytest.raises(DisseminationError):
                engine.start(origins)
            assert engine.ledger.count == 0
            assert engine.total_delivered == 0
            assert engine.frontier_size == 0
            assert rng.bit_generator.state == before
        assert engine.start([0, 1]) == [1, 2]

    def test_flood_on_pair(self):
        engine = BatchBroadcastEngine(self._snapshot(), fanout=None, ttl=2)
        view = engine.broadcast(0, payload="hello")
        assert view.delivery_rounds == {0: 0, 1: 1}
        assert view.payload == "hello"
        assert view.latency_of(1) == 1.0
        assert view.latency_of(0) == 0.0
        assert view.latency_percentile(100.0) == 1.0


class TestBothPlanesRefuseBadInput:
    """Both planes refuse the same bad origins and knob values."""

    @pytest.mark.parametrize("plane", ["object", "batch"])
    @pytest.mark.parametrize(
        "knobs, origin",
        [
            pytest.param({}, "minus-one", id="origin-minus-one"),
            pytest.param({}, "num-nodes", id="origin-num-nodes"),
            pytest.param({}, "offline", id="offline-origin"),
            pytest.param({"fanout": 0}, "online", id="fanout-0"),
            pytest.param({"ttl": 0}, "online", id="ttl-0"),
            pytest.param(
                {"fanout": None, "infect_forever": True},
                "online",
                id="flood-infect-forever",
            ),
        ],
    )
    def test_refused(
        self, small_trust_graph, small_config, plane, knobs, origin
    ):
        # Without churn every node is online, so origin -1 names an
        # online node (the last) unless the range check catches it.
        overlay = _instant_overlay(
            small_trust_graph, small_config, with_churn=False
        )
        overlay.nodes[7].go_offline()
        assert overlay.nodes[-1].online
        origin_id = {
            "minus-one": -1,
            "num-nodes": len(overlay.nodes),
            "offline": 7,
            "online": 0,
        }[origin]
        knobs = {"fanout": 3, "ttl": 4, **knobs}
        with pytest.raises(DisseminationError):
            if plane == "object":
                disseminator = EpidemicBroadcast(overlay, **knobs)
                disseminator.install()
            else:
                disseminator = _engine_for(overlay, **knobs)
            disseminator.broadcast(origin_id, payload=None)
