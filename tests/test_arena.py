"""Tests for the struct-of-arrays node plane (``repro.core.arena``).

* **Batch-kernel parity** — ``NodeArena.batch_absorb`` /
  ``batch_links_from_slots`` / ``batch_expire`` must produce the same
  state as per-row view calls (:class:`ArenaSlots` /
  :class:`ArenaCache` / :class:`ArenaLinkSet`) over the same traffic,
  with the refcounts checked after every round.  The views' own
  behaviour is pinned by ``test_slots.py`` / ``test_cache.py`` /
  ``test_links.py`` and, end to end, by the golden hashes in
  ``test_determinism.py``.
* **Standalone nodes** — an :class:`OverlayNode` built without an
  overlay runs on a private one-row arena.

Plus the arena-specific edge cases: interning/refcount bookkeeping,
growth past the preallocated chunk, and free-list id reuse under
long churned runs.
"""

import math

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.core import (
    ArenaCache,
    ArenaLinkSet,
    ArenaSlots,
    BatchOverlay,
    NodeArena,
    Overlay,
    OverlayNode,
    Pseudonym,
    PseudonymArena,
)
from repro.churn.batch import ShardedChurn
from repro.core.batch import ring_lattice_csr
from repro.errors import ChurnError, ProtocolError
from repro.experiments import QUICK, make_config, make_trust_graph
from repro.privlink import Address
from repro.rng import RandomStreams

from .csr import graph_from_edges

SEED = 11


def _p(value, expires=100.0):
    """A deterministic test pseudonym."""
    return Pseudonym(value=value, address=Address(value + 1), expires_at=expires)


def _batch(rng, count, now=0.0, life=(1.0, 9.0)):
    """A batch of random pseudonyms with expiries in ``now + life``."""
    values = rng.integers(1, 1 << 62, size=count)
    spans = rng.uniform(*life, size=count)
    return [
        _p(int(values[i]), now + float(spans[i])) for i in range(count)
    ]


class TestPseudonymArena:
    def test_intern_dedups_and_refcounts(self):
        table = PseudonymArena(chunk=8)
        p = _p(42)
        pid = table.intern(p)
        assert table.intern(p) == pid
        assert table.refcounts[pid] == 2
        assert table.matches(pid, p)
        assert table.view(pid) is p
        assert table.live == 1

    def test_release_returns_id_to_free_list(self):
        table = PseudonymArena(chunk=8)
        pid = table.intern(_p(1))
        table.release(pid)
        assert table.live == 0
        # The freed id is reused by the next intern.
        assert table.intern(_p(2)) == pid

    def test_growth_past_preallocated_chunk(self):
        table = PseudonymArena(chunk=4)
        ids = [table.intern(_p(v)) for v in range(1, 11)]
        assert len(set(ids)) == 10
        assert table.grows >= 2
        assert table.capacity >= 10
        # Every interned pseudonym survived the growth copies.
        for value, pid in zip(range(1, 11), ids):
            assert int(table.values[pid]) == value

    def test_mint_batch_sets_owner_column(self):
        table = PseudonymArena(chunk=4)
        pids = table.mint_batch(
            np.array([5, 6], dtype=np.int64),
            np.array([50.0, 60.0]),
            np.array([0, 1], dtype=np.int64),
        )
        assert list(table.owners[pids]) == [0, 1]
        assert list(table.refcounts[pids]) == [1, 1]
        view = table.view(int(pids[0]))
        assert view.value == 5 and view.expires_at == 50.0

    def test_release_batch_counts_duplicates(self):
        table = PseudonymArena(chunk=8)
        p = _p(9)
        pid = table.intern(p)
        table.intern(p)
        table.intern(p)
        table.release_batch(np.array([pid, pid], dtype=np.int64))
        assert table.refcounts[pid] == 1
        assert table.live == 1

    def test_acquire_batch_counts_duplicates(self):
        table = PseudonymArena(chunk=8)
        first, second = table.intern(_p(1)), table.intern(_p(2))
        table.acquire_batch(np.array([second, first, second], dtype=np.int32))
        assert table.refcounts[[first, second]].tolist() == [2, 3]
        table.acquire_batch(np.zeros(0, dtype=np.int64))
        assert table.live == 2

    def test_double_free_raises_and_changes_nothing(self):
        """Releasing past zero used to push the id onto the free list a
        second time, so two later mints shared it."""
        table = PseudonymArena(chunk=8)
        kept, gone = table.intern(_p(1)), table.intern(_p(2))
        table.release(gone)

        def state():
            columns = (table.refcounts, table.values, table.expires_at, table.owners)
            return table.live, list(table._free), [c.tolist() for c in columns]

        before = state()
        for release in (
            lambda: table.release(gone),
            lambda: table.release_batch(np.array([kept, gone])),
            lambda: table.release_batch(np.array([kept, kept])),
        ):
            with pytest.raises(ProtocolError, match="released"):
                release()
            assert state() == before
        table.release_batch(np.array([kept]))
        assert table.live == 0 and sorted(table._free) == list(range(8))


class TestNodeArenaRows:
    def test_register_must_be_sequential(self):
        arena = NodeArena(node_chunk=2)
        arena.register_node(0, 4, 4)
        with pytest.raises(ProtocolError, match="sequential"):
            arena.register_node(2, 4, 4)

    def test_row_growth_past_node_chunk(self):
        arena = NodeArena(node_chunk=2)
        for node_id in range(7):
            arena.register_node(node_id, 4, 4)
        assert arena.num_nodes == 7
        assert arena.row_capacity >= 7
        assert arena.slot_n[6] == 4

    def test_column_growth_preserves_state(self):
        """A later node with wider slots/cache must not corrupt row 0."""
        arena = NodeArena(node_chunk=2)
        arena.register_node(0, 2, 2)
        rng = RandomStreams(SEED).substream("refs", 0)
        slots = ArenaSlots(arena, 0, 2, rng)
        cache = ArenaCache(arena, 0, 2)
        offered = [_p(10, 50.0), _p(20, 60.0)]
        slots.offer_batch(offered)
        cache.merge(offered, now=0.0)
        before_slots = [slots.entry(i) for i in range(2)]
        before_cache = sorted(p.value for p in cache.pseudonyms())
        # Registering a wider node widens every column family.
        arena.register_node(1, 16, 32)
        assert arena.slot_cols >= 16 and arena.cache_cols >= 32
        assert [slots.entry(i) for i in range(2)] == before_slots
        assert sorted(p.value for p in cache.pseudonyms()) == before_cache


class TestBatchKernelParity:
    """The whole-plane kernels against per-row view calls."""

    def test_kernels_match_object_loops(self):
        num_nodes, rounds, k = 40, 8, 10
        # Rows of different sampler sizes, an empty sampler among them.
        slot_counts = [(8, 9, 10, 0)[n % 4] for n in range(num_nodes)]
        capacity = 12
        data = RandomStreams(SEED).substream("kernels", "data")
        own_values = [int(v) for v in data.integers(1, 1 << 62, size=num_nodes)]
        owns = [_p(own_values[n], float(rounds + 5)) for n in range(num_nodes)]
        traffic = [
            [_batch(data, k, float(r), life=(0.5, 4.0)) for _ in range(num_nodes)]
            for r in range(rounds)
        ]
        for r in range(rounds):
            for n in range(num_nodes):
                if (n + r) % 5 == 0:
                    traffic[r][n][0] = owns[n]

        refs = RandomStreams(SEED).substream("kernels", "refs")
        reference = NodeArena()
        for n in range(num_nodes):
            reference.register_node(n, slot_counts[n], capacity)
        slots = [
            ArenaSlots(reference, n, slot_counts[n], refs) for n in range(num_nodes)
        ]
        caches = [ArenaCache(reference, n, capacity) for n in range(num_nodes)]
        links = [ArenaLinkSet(reference, n, ()) for n in range(num_nodes)]
        for r in range(rounds):
            now = float(r)
            for n in range(num_nodes):
                slots[n].expire(now)
                caches[n].remove_expired(now)
                caches[n].merge(traffic[r][n], now, own_value=own_values[n])
                slots[n].offer_batch(
                    [
                        p for p in traffic[r][n]
                        if p.expires_at > now and p != owns[n]
                    ]
                )
                links[n].update_from_sample(slots[n].sample())
            reference.check_invariants()

        arena = NodeArena(PseudonymArena(chunk=64), node_chunk=8)
        arena.register_batch(num_nodes, np.array(slot_counts), capacity)
        width = arena.slot_cols
        arena.slot_refs[:num_nodes] = reference.slot_refs[:num_nodes, :width]
        table = arena.pseudonyms
        own_ids = np.array([table.intern(p) for p in owns], dtype=np.int64)
        rows = np.arange(num_nodes, dtype=np.int64)
        for r in range(rounds):
            now = float(r)
            cand_ids = np.array(
                [[table.intern(p) for p in traffic[r][n]] for n in range(num_nodes)],
                dtype=np.int64,
            )
            arena.batch_expire(now)
            arena.batch_absorb(rows, cand_ids, now, own_ids)
            arena.batch_links_from_slots(rows)
            # The sets in flight and the own pseudonyms hold their ids.
            arena.check_invariants(
                extra_holders=np.concatenate((own_ids, cand_ids.ravel()))
            )
            table.release_batch(cand_ids.ravel())

        for n in range(num_nodes):
            assert [
                None if e is None else (e.value, e.expires_at)
                for e in (slots[n].entry(i) for i in range(slot_counts[n]))
            ] == [
                None
                if pid < 0
                else (int(table.values[pid]), float(table.expires_at[pid]))
                for pid in arena.slot_ids[n, : slot_counts[n]]
            ], f"slot row {n} diverged"
            assert (arena.slot_ids[n, slot_counts[n] :] < 0).all()
            assert [p.value for p in caches[n].pseudonyms()] == [
                int(table.values[pid])
                for pid in arena.cache_ids[n, : arena.cache_len[n]]
            ], f"cache row {n} diverged"
            assert [p.value for p in links[n].pseudonym_links()] == [
                int(table.values[pid])
                for pid in arena.link_ids[n, : arena.link_len[n]]
            ], f"link row {n} diverged"

    def test_minus_inf_expiry_is_the_least_preferred_tie_break(self):
        """Row view and batch kernel seat the same occupant at a -inf tie.

        R = 100; 90 and 110 are equally close.  The expiry decides, and
        -inf is the earliest there is, so 110 @ 5.0 wins on both paths.
        """
        candidates = [_p(90, -math.inf), _p(110, 5.0)]
        reference = NodeArena(node_chunk=1)
        reference.register_node(0, 1, 1)
        slots = ArenaSlots(reference, 0, 1, RandomStreams(SEED).substream("r"))
        reference.slot_refs[0, 0] = 100
        assert slots.offer_batch(candidates) == 1
        assert slots.entry(0) == candidates[1]
        assert reference.pseudonyms.expires_at[reference.slot_ids[0, 0]] == 5.0

        # batch_absorb drops the expired candidate, so this drives the
        # slot fold itself: one wave, one delivery of both candidates.
        arena = NodeArena()
        arena.register_batch(1, 1, 1)
        arena.slot_refs[0, 0] = 100
        table = arena.pseudonyms
        ids = [table.intern(p) for p in candidates]
        changed, seated, unseated = arena._fold_slots(
            np.array([0]), [1], np.array(ids, dtype=np.int64)[:, None]
        )
        assert changed.tolist() == [1] and len(unseated) == 0
        table.acquire_batch(seated)
        assert int(table.values[arena.slot_ids[0, 0]]) == 110
        assert table.expires_at[arena.slot_ids[0, 0]] == 5.0
        arena.check_invariants(extra_holders=ids)

    def test_sample_cache_is_uniform_without_replacement(self):
        arena = NodeArena()
        arena.register_batch(2, 0, 8)
        table = arena.pseudonyms
        ids = np.array(
            [[table.intern(_p(10 * (n + 1) + j)) for j in range(6)] for n in range(2)],
            dtype=np.int64,
        )
        arena.batch_absorb(np.arange(2), ids, 0.0, np.full(2, -1))
        keys = RandomStreams(SEED).substream("sample").random((2, arena.cache_cols))
        picks = arena.sample_cache(np.arange(2), 3, keys)
        for n in range(2):
            chosen = picks[n][picks[n] >= 0]
            assert len(chosen) == 3
            assert len(set(chosen.tolist())) == 3
            row = set(arena.cache_ids[n, : arena.cache_len[n]].tolist())
            assert set(chosen.tolist()) <= row


class TestStandaloneNode:
    """A node built without an overlay owns a private one-row arena."""

    def _node(self, node_id, neighbors, sim, layer):
        return OverlayNode(
            node_id=node_id,
            trusted_neighbors=neighbors,
            slot_count=4,
            cache_size=8,
            shuffle_length=4,
            pseudonym_lifetime=50.0,
            sim=sim,
            link_layer=layer,
            rng=RandomStreams(SEED).substream("node", node_id),
        )

    def test_node_id_is_not_the_arena_row(self):
        from repro.privlink import make_ideal_link_layer
        from repro.sim import Simulator

        sim = Simulator()
        layer = make_ideal_link_layer(sim, RandomStreams(SEED).substream("links"))
        seven = self._node(7, [3], sim, layer)
        three = self._node(3, [7], sim, layer)
        seven.come_online()
        three.come_online()
        sim.run_until(20.0)
        for node, peer in ((seven, three), (three, seven)):
            assert node.counters.shuffle_sets_absorbed > 0
            assert node.slots.filled() == 4
            assert node.slots.sample() == [peer.own]
            assert node.links.pseudonym_links() == [peer.own]
            assert peer.own in node.cache

    def test_overlay_arena_ignores_retired_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_NODE_PLANE", "objects")
        overlay = Overlay.build(
            graph_from_edges(4, [(0, 1), (1, 2), (2, 3)]),
            SystemConfig(num_nodes=4, seed=SEED),
            with_churn=False,
        )
        assert isinstance(overlay.arena, NodeArena)


def _batch_churn(num_nodes, availability, mean_offline_time, rng):
    return ShardedChurn([0, num_nodes], availability, mean_offline_time, [rng])


class TestBatchChurnModel:
    """The batch engine's churn, :class:`ShardedChurn`, on one shard."""

    def test_validation(self):
        rng = RandomStreams(SEED).substream("churn")
        for availability in (0.0, 1.0, 1.5):
            with pytest.raises(ChurnError, match="availability"):
                _batch_churn(10, availability, 8.0, rng)
        with pytest.raises(ChurnError, match="mean_offline_time"):
            _batch_churn(10, 0.5, 0.0, rng)

    def test_stationary_fraction_tracks_availability(self):
        model = _batch_churn(
            20_000, 0.6, 8.0, RandomStreams(SEED).substream("churn")
        )
        fractions = []
        for _ in range(40):
            model.step()
            fractions.append(model.online_fraction())
        assert abs(np.mean(fractions) - 0.6) < 0.02

    def test_step_masks_are_consistent(self):
        model = _batch_churn(
            200, 0.5, 4.0, RandomStreams(SEED).substream("churn")
        )
        before = model.online.copy()
        joined, left = model.step()
        assert not np.intersect1d(joined, left).size
        assert not before[joined].any()
        assert before[left].all()
        expected = before.copy()
        expected[joined] = True
        expected[left] = False
        assert (model.online == expected).all()

    def test_same_seed_same_trajectory(self):
        runs = []
        for _ in range(2):
            model = _batch_churn(
                100, 0.5, 6.0, RandomStreams(SEED).substream("churn")
            )
            masks = [model.online.copy()]
            for _ in range(10):
                model.step()
                masks.append(model.online.copy())
            runs.append(np.array(masks))
        assert (runs[0] == runs[1]).all()


class TestRingLatticeCsr:
    def test_symmetric_simple_graph(self):
        indptr, indices = ring_lattice_csr(
            200, 3, RandomStreams(SEED).substream("graph")
        )
        assert len(indptr) == 201
        degrees = np.diff(indptr)
        assert degrees.min() >= 2  # the ring alone provides two
        for node in (0, 57, 199):
            neighbors = indices[indptr[node] : indptr[node + 1]].tolist()
            assert node not in neighbors
            assert len(set(neighbors)) == len(neighbors)
            assert sorted(neighbors) == neighbors
            for other in neighbors:
                back = indices[indptr[other] : indptr[other + 1]]
                assert node in back

    def test_deterministic(self):
        a = ring_lattice_csr(100, 4, RandomStreams(SEED).substream("graph"))
        b = ring_lattice_csr(100, 4, RandomStreams(SEED).substream("graph"))
        assert (a[0] == b[0]).all() and (a[1] == b[1]).all()

    @pytest.mark.parametrize("num_nodes", [3, 10, 1_000, 100_000])
    def test_matches_unique_lexsort_reference(self, num_nodes):
        """The lattice's CSR is assembled by ``from_edge_positions``;
        the same draws through the ``np.unique`` + ``np.lexsort``
        assembly it once had must give the same arrays and dtypes."""
        indptr, indices = ring_lattice_csr(
            num_nodes, 4, RandomStreams(SEED).substream("graph")
        )
        rng = RandomStreams(SEED).substream("graph")
        ring_u = np.arange(num_nodes, dtype=np.int64)
        ring_v = (ring_u + 1) % num_nodes
        chords = (num_nodes * 4) // 2
        chord_u = rng.integers(0, num_nodes, size=chords, dtype=np.int64)
        chord_v = rng.integers(0, num_nodes, size=chords, dtype=np.int64)
        keep = chord_u != chord_v
        u = np.concatenate((ring_u, chord_u[keep]))
        v = np.concatenate((ring_v, chord_v[keep]))
        key = np.unique(np.minimum(u, v) * num_nodes + np.maximum(u, v))
        lo, hi = key // num_nodes, key % num_nodes
        degree = np.bincount(lo, minlength=num_nodes) + np.bincount(
            hi, minlength=num_nodes
        )
        expected_indptr = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(degree, dtype=np.int64))
        )
        src, dst = np.concatenate((lo, hi)), np.concatenate((hi, lo))
        expected_indices = dst[np.lexsort((dst, src))]
        assert indptr.dtype == expected_indptr.dtype == np.int64
        assert indices.dtype == expected_indices.dtype == np.int64
        assert np.array_equal(indptr, expected_indptr)
        assert np.array_equal(indices, expected_indices)


def _batch_config(num_nodes, **overrides):
    defaults = dict(
        num_nodes=num_nodes,
        cache_size=12,
        shuffle_length=6,
        target_degree=12,
        min_pseudonym_links=6,
        availability=0.6,
        mean_offline_time=8.0,
        seed=SEED,
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


class TestBatchOverlay:
    def test_same_config_same_digest(self):
        digests = []
        for _ in range(2):
            overlay = BatchOverlay.build(_batch_config(400))
            overlay.run(12)
            digests.append(overlay.state_digest())
        assert digests[0] == digests[1]

    def test_slot_references_are_seeded(self):
        overlay = BatchOverlay.build(_batch_config(100))
        refs = overlay.arena.slot_refs[:100]
        # Distinct random 63-bit references, not a shared constant.
        assert len(np.unique(refs)) > 90
        assert (refs >= 0).all()

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_sampler_sizes_match_the_event_engine(self, num_shards):
        """One S rule: each node's ``slot_n`` is ``sampler_size`` of its
        own trusted degree on both engines, whatever the shard grid."""
        graph = make_trust_graph(QUICK, f=0.5, seed=1)
        config = make_config(QUICK, alpha=0.5)
        expected = config.sampler_size(np.diff(graph.indptr))
        assert len(np.unique(expected)) > 1
        event = Overlay.build(graph, config).arena.slot_n[: config.num_nodes]
        batch = BatchOverlay(
            config, graph.indptr, graph.indices, num_shards=num_shards
        )
        rows = np.concatenate(
            [engine.arena.slot_n[: engine.size] for engine in batch.engines]
        )
        np.testing.assert_array_equal(event, expected)
        np.testing.assert_array_equal(rows, expected)

    def test_converges_toward_target_degree(self):
        overlay = BatchOverlay.build(_batch_config(1000))
        overlay.run(25)
        analysis = overlay.analysis()
        assert overlay.mean_out_degree() > 8.0
        assert 0.0 <= analysis.fraction_disconnected() < 0.1
        stats = overlay.stats()
        assert stats["exchanges"] > 0
        assert stats["pseudonyms_created"] >= stats["online_nodes"] > 0
        assert overlay.memory_bytes() > 0

    def test_state_stays_under_512_bytes_per_node(self):
        """The scale bench's 10^5-node configuration, built and not run:
        every column is allocated at build, so the per-node state size
        the 10^6 claim rests on is pinned without a scale host."""
        num_nodes = 100_000
        overlay = BatchOverlay.build(
            _batch_config(
                num_nodes, cache_size=16, shuffle_length=8, min_pseudonym_links=8
            ),
            extra_edges_per_node=4,
        )
        assert overlay.memory_bytes() <= 512 * num_nodes

    def test_expiry_reuses_interned_ids(self):
        """Long churned runs must recycle ids through the free list."""
        overlay = BatchOverlay.build(
            _batch_config(300, mean_offline_time=2.0)
        )
        overlay.run(150)
        table = overlay.arena.pseudonyms
        assert table.grows == 0
        assert table.total_interned > table.capacity
        assert table.live <= table.capacity

    def test_mismatched_csr_rejected(self):
        indptr, indices = ring_lattice_csr(
            50, 2, RandomStreams(SEED).substream("graph")
        )
        from repro.errors import GraphError

        with pytest.raises(GraphError, match="trusted_indptr"):
            BatchOverlay(_batch_config(60), indptr, indices)

    def test_offline_nodes_do_not_exchange(self):
        overlay = BatchOverlay.build(_batch_config(300, availability=0.4))
        overlay.run(10)
        online = overlay.churn.online
        # Offline rows may hold state (links survive going offline) but
        # the round loop only ever mints for online rows.
        own = overlay.own_ids
        table = overlay.arena.pseudonyms
        held = own >= 0
        assert held.any()
        owners = table.owners[own[held]]
        assert (owners == np.flatnonzero(held)).all()
        assert online.sum() < 300
