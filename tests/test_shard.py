"""Tests for the sharded simulation engine (``repro.parallel.shard``).

The contract under test is the determinism invariant from
``docs/parallel.md``: the state digest of a run is a pure function of
``(config, trust graph, num_shards)`` — never of the worker count.
``ShardedOverlay`` spreading one run across forked processes must be
byte-identical to the serial :class:`BatchOverlay` driving the same
shard grid in-process, at every worker count, pinned here on every
observation method (the serial-equivalence golden test the
``sharded-batch`` parity pair points at).  A closed or broken sharded
run fails loudly instead of answering.

Plus the shard-boundary edge cases for the pieces the engine is built
from: :func:`shard_ranges` partitions, :func:`ring_lattice_csr` ring
edges crossing shard boundaries, and :class:`ShardedChurn` over
non-divisible populations and empty shards.
"""

import math
import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.churn.batch import ShardedChurn
from repro.config import SystemConfig
from repro.core import BatchOverlay
from repro.core.batch import (
    default_trust_csr,
    ring_lattice_csr,
    shard_of,
    shard_ranges,
    shard_stream,
)
from repro.dissemination.batch import ChannelSnapshot
from repro.errors import (
    ChurnError,
    ConfigError,
    GraphError,
    ParallelError,
    ProtocolError,
)
from repro.parallel import ShardOptions, ShardedOverlay
from repro.parallel.engine import fork_available
from repro.rng import RandomStreams

SEED = 29


def _config(num_nodes, seed=SEED):
    """The scale-workload config shape at test size."""
    return SystemConfig(
        num_nodes=num_nodes,
        cache_size=16,
        shuffle_length=8,
        target_degree=12,
        min_pseudonym_links=8,
        availability=0.6,
        mean_offline_time=8.0,
        seed=seed,
    )


def _serial_run(config, num_shards, rounds):
    """Digest/stats/snapshot of the serial engine over a shard grid."""
    overlay = BatchOverlay.build(config, num_shards=num_shards)
    overlay.run(rounds)
    return overlay.state_digest(), overlay.stats(), overlay.snapshot()


def _snapshots_equal(a, b):
    return (
        np.array_equal(a.node_ids, b.node_ids)
        and np.array_equal(a.edge_u, b.edge_u)
        and np.array_equal(a.edge_v, b.edge_v)
    )


def _observations(overlay):
    """Every observation method's answer, as values ``==`` compares."""

    def flat(snapshot):
        return [snapshot.node_ids.tobytes(), snapshot.edge_u.tobytes(),
                snapshot.edge_v.tobytes()]

    analysis = overlay.analysis()
    channels = ChannelSnapshot.from_batch_overlay(overlay)
    counters = overlay.node_counters()
    return {
        "state_digest": overlay.state_digest(),
        "stats": overlay.stats(),
        "counters": overlay.counters,
        "snapshot": flat(overlay.snapshot()),
        "snapshot_all_rows": flat(overlay.snapshot(online_only=False)),
        "analysis": (analysis.fraction_disconnected(), analysis.degree_histogram()),
        "mean_out_degree": overlay.mean_out_degree(),
        "memory_bytes": overlay.memory_bytes(),
        "channels": (channels.indptr.tobytes(), channels.targets.tobytes()),
        "online_ids": overlay.online_ids().tobytes(),
        "trust_snapshot": flat(overlay.trust_snapshot()),
        "out_degrees": overlay.out_degrees().tobytes(),
        "node_counters": {name: col.tobytes() for name, col in counters.items()},
        "aux_stream": overlay.substream("collector").random(3).tolist(),
    }


# ----------------------------------------------------------------------
# serial equivalence: the golden test
# ----------------------------------------------------------------------


class TestSerialEquivalence:
    """ShardedOverlay == BatchOverlay over the same shard grid."""

    NODES = 10_000
    SHARDS = 4
    ROUNDS = 3

    @pytest.fixture(scope="class")
    def serial(self):
        overlay = BatchOverlay.build(_config(self.NODES), num_shards=self.SHARDS)
        overlay.run(self.ROUNDS)
        return _observations(overlay)

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_digest_identical_at_any_worker_count(self, serial, workers):
        """Every observation, the dissemination channels included."""
        with ShardedOverlay.build(
            _config(self.NODES),
            options=ShardOptions(num_shards=self.SHARDS, workers=workers),
        ) as sharded:
            sharded.run(self.ROUNDS)
            observed = _observations(sharded)
        for name, expected in serial.items():
            assert observed[name] == expected, name

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_two_shard_ci_gate(self):
        """Two shards on two workers at 10^4 nodes: digest and stats."""
        digest, stats, _ = _serial_run(_config(self.NODES), 2, self.ROUNDS)
        with ShardedOverlay.build(
            _config(self.NODES), options=ShardOptions(num_shards=2, workers=2)
        ) as sharded:
            sharded.run(self.ROUNDS)
            assert sharded.state_digest() == digest
            assert sharded.stats() == stats

    def test_in_process_fallback_matches_serial(self):
        """workers=1 never forks and still honors the shard grid."""
        config = _config(2_000)
        digest, stats, snapshot = _serial_run(config, self.SHARDS, self.ROUNDS)
        sharded = ShardedOverlay.build(
            config, options=ShardOptions(num_shards=self.SHARDS, workers=1)
        )
        sharded.run(self.ROUNDS)
        assert sharded.state_digest() == digest
        assert sharded.stats() == stats
        assert _snapshots_equal(sharded.snapshot(), snapshot)
        reference = BatchOverlay.build(config, num_shards=self.SHARDS)
        reference.run(self.ROUNDS)
        assert sharded.mean_out_degree() == reference.mean_out_degree()
        sharded.close()
        sharded.close()  # idempotent

    def test_shard_grid_is_digest_relevant(self):
        """num_shards changes the RNG decomposition, hence the digest."""
        config = _config(2_000)
        one, _, _ = _serial_run(config, 1, 2)
        four, _, _ = _serial_run(config, 4, 2)
        assert one != four

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_empty_shards(self):
        """More shards than nodes: trailing shards are empty, not fatal."""
        config = _config(5)
        digest, stats, _ = _serial_run(config, 8, 2)
        with ShardedOverlay.build(
            config, options=ShardOptions(num_shards=8, workers=2)
        ) as sharded:
            sharded.run(2)
            assert sharded.state_digest() == digest
            assert sharded.stats() == stats


# ----------------------------------------------------------------------
# cross-commit pins: the serial/worker twins above share every kernel,
# so a bug in one is a bug in both and they still agree
# ----------------------------------------------------------------------


class TestCrossCommitPins:
    """The ``million_node_churn`` config at 2,000 nodes, 8 rounds."""

    CONFIG = SystemConfig(
        num_nodes=2000,
        cache_size=16,
        shuffle_length=8,
        target_degree=12,
        min_pseudonym_links=8,
        availability=0.6,
        mean_offline_time=8.0,
        seed=1,
    )
    #: ``state_digest()`` after 8 rounds, per shard count.  Re-pinned
    #: once when each node's sampler size became ``sampler_size`` of its
    #: own trusted degree (before, every node had S of the mean degree).
    DIGESTS = {
        1: "5bbe78a1006739e1e1e23cf6a19717d41c892312105f76c9e6f1233d65b3bd44",
        2: "7d97441588bb6f7f83da90aa174b58ec2434ca550f4188f68a345eb650e4bcff",
        3: "3a1d7a2ed6866be6fe50d8cd4898751b88cb1fc423e1f25353ae56b7785f0cfc",
    }

    def _overlay(self, num_shards):
        return BatchOverlay.build(
            self.CONFIG, extra_edges_per_node=4, num_shards=num_shards
        )

    @pytest.mark.parametrize("num_shards", [1, 2, 3])
    def test_digest_literal(self, num_shards):
        """A sharded-only divergence (interned remote pseudonyms exist
        only with two or more shards) fails here, not in the benchmark."""
        overlay = self._overlay(num_shards)
        overlay.run(8)
        assert overlay.state_digest() == self.DIGESTS[num_shards]

    @pytest.mark.parametrize("num_shards", [1, 2, 3])
    def test_invariants_hold_after_every_round(self, num_shards):
        """Refcounts, free list and row bounds of every engine."""
        overlay = self._overlay(num_shards)
        for _ in range(8):
            overlay.step()
            for engine in overlay.engines:
                engine.arena.check_invariants(
                    extra_holders=engine.own_ids[engine.own_ids >= 0]
                )


# ----------------------------------------------------------------------
# options and construction errors
# ----------------------------------------------------------------------


class TestNodeCounters:
    """The per-node columns the collector and Figure 6 read."""

    NODES = 600
    ROUNDS = 12

    @staticmethod
    def _check(overlay, rounds):
        counters = overlay.node_counters()
        stats = overlay.stats()
        assert int(counters["messages_sent"].sum()) == stats["messages_sent"]
        assert int(counters["link_replacements"].sum()) == stats["link_removals"]
        online = counters["online_time"]
        assert online.min() >= 0 and online.max() <= rounds
        assert online.sum() > 0
        indptr, _ = default_trust_csr(overlay.config, 4)
        assert np.array_equal(counters["trust_degree"], np.diff(indptr))

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_columns_sum_to_the_stats(self, num_shards):
        overlay = BatchOverlay.build(_config(self.NODES), num_shards=num_shards)
        overlay.run(self.ROUNDS)
        self._check(overlay, self.ROUNDS)

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_columns_sum_to_the_stats_across_workers(self):
        with ShardedOverlay.build(
            _config(self.NODES), options=ShardOptions(num_shards=3, workers=2)
        ) as sharded:
            sharded.run(self.ROUNDS)
            self._check(sharded, self.ROUNDS)

    def test_online_time_counts_whole_rounds(self):
        """Each node gains one unit per round it spends online."""
        overlay = BatchOverlay.build(_config(200), num_shards=2)
        expected = np.zeros(200, dtype=np.int64)
        for _ in range(6):
            overlay.step()
            expected[overlay.online_ids()] += 1
        assert overlay.node_counters()["online_time"].tolist() == expected.tolist()

    def test_trust_snapshot_is_the_induced_trust_graph(self):
        from repro.graphs.fastgraph import FlatSnapshot

        config = _config(500)
        indptr, indices = ring_lattice_csr(500, 4, np.random.default_rng(3))
        overlay = BatchOverlay(config, indptr, indices, num_shards=3)
        overlay.run(4)
        trust = FlatSnapshot.from_edge_positions(
            np.arange(500), np.repeat(np.arange(500), np.diff(indptr)), indices
        )
        online = np.zeros(500, dtype=bool)
        online[overlay.online_ids()] = True
        expected = trust.induced_by_labels(online)
        observed = overlay.trust_snapshot()
        assert np.array_equal(observed.node_ids, expected.node_ids)
        assert sorted(zip(observed.edge_u.tolist(), observed.edge_v.tolist())) == (
            sorted(zip(expected.edge_u.tolist(), expected.edge_v.tolist()))
        )

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_trusted_edges_cross_the_pipes_once(self, monkeypatch):
        """The parent keeps the static trusted edges after the first sample."""
        from repro.metrics import MetricsCollector

        fetched = []
        parts = ShardedOverlay._parts

        def counting_parts(self, method, *args):
            fetched.append(method)
            return parts(self, method, *args)

        def trust_series(overlay):
            collector = MetricsCollector(overlay)
            for now in (1.0, 2.0):
                overlay.step()
                collector.sample(now)
            return collector.trust_disconnected.values.tolist()

        serial = trust_series(BatchOverlay.build(_config(self.NODES), num_shards=2))
        monkeypatch.setattr(ShardedOverlay, "_parts", counting_parts)
        options = ShardOptions(num_shards=2, workers=2)
        with ShardedOverlay.build(_config(self.NODES), options=options) as sharded:
            assert trust_series(sharded) == serial
        assert fetched.count("trust_edges") == 1
        assert fetched.count("online_rows") >= 2


class TestOptions:
    def test_invalid_num_shards(self):
        with pytest.raises(ParallelError):
            ShardOptions(num_shards=0).validate()

    def test_invalid_workers(self):
        with pytest.raises(ParallelError):
            ShardOptions(workers=0).validate()

    def test_mismatched_graph_raises(self):
        """In-process, and in the parent before any worker forks."""
        config = _config(100)
        indptr, indices = ring_lattice_csr(
            50, 2, RandomStreams(SEED).substream("test", "graph")
        )
        for workers in (1, 2):
            with pytest.raises(GraphError):
                ShardedOverlay(
                    config, indptr, indices, options=ShardOptions(workers=workers)
                )
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "indptr, indices, match",
        [
            # A -1 in node 0's row would silently drop its 0-5 edge.
            ([0, 2, 4, 6, 8, 10, 12], [1, -1, 0, 2, 1, 3, 2, 4, 3, 5, 4, 0],
             r"\[0, 6\)"),
            ([0, 2, 4, 6, 8, 10, 12], [1, 6, 0, 2, 1, 3, 2, 4, 3, 5, 4, 0],
             r"\[0, 6\)"),
            ([1, 2, 4, 6, 8, 10, 12], [1, 5, 0, 2, 1, 3, 2, 4, 3, 5, 4, 0],
             "start at 0"),
            ([0, 2, 1, 6, 8, 10, 12], [1, 5, 0, 2, 1, 3, 2, 4, 3, 5, 4, 0],
             "never decrease"),
            ([0, 2, 4, 6, 8, 10, 12], [1, 5, 0, 2, 1, 3, 2, 4, 3, 5, 4],
             "end at"),
        ],
        ids=["negative-index", "index-n", "indptr-start", "indptr-decreases",
             "indptr-end"],
    )
    def test_malformed_csr_raises(self, indptr, indices, match):
        """A 6-node ring's CSR, broken one way per case."""
        config = _config(6)
        indptr, indices = np.array(indptr), np.array(indices)
        for workers in (1, 2):
            with pytest.raises(GraphError, match=match):
                ShardedOverlay(
                    config, indptr, indices, options=ShardOptions(workers=workers)
                )
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "field, value", [("sampler_mode", "cache"), ("adaptive_lifetime", True)]
    )
    def test_event_only_protocol_fields_raise(self, field, value):
        """The engine has one sampler and one lifetime rule; a config
        asking for the other is refused in-process and in the parent
        before any worker forks, never run as the default."""
        config = _config(100).replace(**{field: value})
        indptr, indices = ring_lattice_csr(
            100, 2, RandomStreams(SEED).substream("test", "graph")
        )
        for workers in (1, 2):
            with pytest.raises(ConfigError, match=field):
                ShardedOverlay(
                    config,
                    indptr,
                    indices,
                    options=ShardOptions(num_shards=2, workers=workers),
                )
        assert multiprocessing.active_children() == []

    def test_batch_overlay_rejects_bad_shard_count(self):
        with pytest.raises(ProtocolError):
            BatchOverlay.build(_config(100), num_shards=0)


# ----------------------------------------------------------------------
# closed and broken runs fail loudly
# ----------------------------------------------------------------------


class TestFailure:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "call",
        ["run", "stats", "state_digest", "snapshot", "mean_out_degree",
         "memory_bytes"],
    )
    def test_closed_overlay_raises(self, workers, call):
        """No answer from a closed run, at any worker count."""
        overlay = ShardedOverlay.build(
            _config(2_000), options=ShardOptions(num_shards=2, workers=workers)
        )
        overlay.run(2)
        overlay.close()
        args = (1,) if call == "run" else ()
        with pytest.raises(ParallelError, match="ShardedOverlay is closed"):
            getattr(overlay, call)(*args)

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_killed_worker_names_its_shards(self):
        """The error names the dead block and the phase; nothing is
        orphaned; a fresh run on the same config is unaffected."""
        config = _config(2_000)
        overlay = ShardedOverlay.build(
            config, options=ShardOptions(num_shards=2, workers=2)
        )
        overlay.run(1)
        victim = overlay._handles[1].process
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10.0)
        assert not victim.is_alive()
        with pytest.raises(ParallelError, match=r"shards \[1, 2\)") as failure:
            overlay.run(1)
        assert "'step'" in str(failure.value)
        assert "exit code -9" in str(failure.value)
        assert multiprocessing.active_children() == []
        digest, _, _ = _serial_run(config, 2, 2)
        with ShardedOverlay.build(
            config, options=ShardOptions(num_shards=2, workers=2)
        ) as fresh:
            fresh.run(2)
            assert fresh.state_digest() == digest


# ----------------------------------------------------------------------
# shard_ranges / ring_lattice_csr at shard boundaries
# ----------------------------------------------------------------------


class TestShardGrid:
    def test_ranges_partition_everything(self):
        for total, shards in [(10, 3), (7, 7), (5, 8), (0, 2), (1_000, 1)]:
            bounds = shard_ranges(total, shards)
            assert bounds[0] == 0 and bounds[-1] == total
            assert len(bounds) == shards + 1
            sizes = np.diff(bounds)
            assert sizes.sum() == total
            assert (sizes >= 0).all()
            # Balanced: sizes differ by at most one, big shards first.
            assert sizes.max() - sizes.min() <= 1
            assert (np.diff(sizes) <= 0).all()

    def test_ranges_reject_bad_inputs(self):
        with pytest.raises(ProtocolError):
            shard_ranges(10, 0)
        with pytest.raises(ProtocolError):
            shard_ranges(-1, 2)

    def test_shard_of_with_empty_shards(self):
        bounds = shard_ranges(5, 8)  # shards 5..7 are empty
        owners = shard_of(bounds, np.arange(5))
        assert owners.tolist() == [0, 1, 2, 3, 4]

    def test_ring_edges_cross_every_boundary(self):
        """Each shard boundary cuts the ring edge (b-1, b); both sides
        must see it in their CSR slice."""
        num_nodes, shards = 101, 4  # non-divisible on purpose
        indptr, indices = ring_lattice_csr(
            num_nodes, 0, RandomStreams(SEED).substream("test", "ring")
        )
        bounds = shard_ranges(num_nodes, shards)
        for boundary in bounds[1:-1]:
            left, right = int(boundary) - 1, int(boundary)
            assert right in indices[indptr[left] : indptr[left + 1]]
            assert left in indices[indptr[right] : indptr[right + 1]]

    def test_shard_slices_reconcatenate(self):
        """Per-shard CSR slices (local indptr, global indices) cover the
        global CSR exactly — what each ShardEngine is handed."""
        num_nodes, shards = 97, 5
        indptr, indices = ring_lattice_csr(
            num_nodes, 3, RandomStreams(SEED).substream("test", "slices")
        )
        bounds = shard_ranges(num_nodes, shards)
        rebuilt = []
        for shard in range(shards):
            lo, hi = int(bounds[shard]), int(bounds[shard + 1])
            local_indptr = indptr[lo : hi + 1] - indptr[lo]
            local_indices = indices[indptr[lo] : indptr[hi]]
            assert local_indptr[0] == 0
            assert local_indptr[-1] == len(local_indices)
            rebuilt.append(local_indices)
        assert np.array_equal(np.concatenate(rebuilt), indices)

    def test_shard_stream_single_shard_is_legacy(self):
        """S=1 reuses the unsharded substream: the pre-shard engine's
        exact draw order (byte-compat with older goldens)."""
        legacy = RandomStreams(7).substream("batch", "mint")
        sharded = shard_stream(7, 0, 1, "mint")
        assert np.array_equal(
            legacy.integers(0, 1 << 62, size=16),
            sharded.integers(0, 1 << 62, size=16),
        )

    def test_shard_streams_are_distinct(self):
        a = shard_stream(7, 0, 4, "mint")
        b = shard_stream(7, 1, 4, "mint")
        assert not np.array_equal(
            a.integers(0, 1 << 62, size=16), b.integers(0, 1 << 62, size=16)
        )


# ----------------------------------------------------------------------
# ShardedChurn at shard boundaries
# ----------------------------------------------------------------------


def _churn_rngs(num_shards, seed=SEED):
    return [
        RandomStreams(seed).spawn("test-churn", shard).substream("churn")
        for shard in range(num_shards)
    ]


class TestShardedChurn:
    def test_matches_per_shard_models(self):
        """The global mask and events are each shard's own draws: a
        stationary seat, then one uniform per node per round against
        the leave/join hazards, rebased to global ids."""
        bounds = shard_ranges(103, 4)  # non-divisible
        churn = ShardedChurn(bounds, 0.6, 8.0, _churn_rngs(4))
        p_leave = 1.0 - math.exp(-1.0 / (0.6 * 8.0 / (1.0 - 0.6)))
        p_join = 1.0 - math.exp(-1.0 / 8.0)
        rngs = _churn_rngs(4)
        sizes = np.diff(bounds)
        masks = [rng.random(size) < 0.6 for rng, size in zip(rngs, sizes)]
        assert np.array_equal(churn.online, np.concatenate(masks))
        for _ in range(5):
            joined, left = churn.step()
            expect_joined, expect_left = [], []
            for shard, (rng, mask) in enumerate(zip(rngs, masks)):
                draws = rng.random(sizes[shard])
                j = ~mask & (draws < p_join)
                l = mask & (draws < p_leave)
                mask ^= j | l
                expect_joined.append(np.flatnonzero(j) + int(bounds[shard]))
                expect_left.append(np.flatnonzero(l) + int(bounds[shard]))
            assert np.array_equal(joined, np.concatenate(expect_joined))
            assert np.array_equal(left, np.concatenate(expect_left))
            mask = np.concatenate(masks)
            assert np.array_equal(churn.online, mask)
            assert churn.online_count() == int(mask.sum())
            assert np.array_equal(churn.online_rows(), np.flatnonzero(mask))

    def test_empty_shards_draw_nothing(self):
        """Empty shards consume no randomness, so the populated shards'
        trajectories are unchanged by grid padding."""
        bounds = shard_ranges(3, 6)  # shards 3..5 empty
        rngs = _churn_rngs(6)
        churn = ShardedChurn(bounds, 0.6, 8.0, rngs)
        online = churn.online
        joined, left = churn.step()
        assert churn.online is online  # written in place, never rebound
        assert churn.online.shape == (3,)
        assert joined.dtype == np.int64 and left.dtype == np.int64
        padded = ShardedChurn(bounds[:4], 0.6, 8.0, _churn_rngs(6)[:3])
        padded.step()
        assert np.array_equal(padded.online, churn.online)
        fresh = _churn_rngs(6)
        for rng, untouched in zip(rngs[3:], fresh[3:]):
            assert rng.random() == untouched.random()

    def test_start_all_online(self):
        bounds = shard_ranges(50, 3)
        churn = ShardedChurn(
            bounds, 0.6, 8.0, _churn_rngs(3), start_all_online=True
        )
        assert churn.online.all()
        assert churn.online_fraction() == 1.0

    def test_rejects_bad_bounds(self):
        with pytest.raises(ChurnError):
            ShardedChurn(np.array([1, 5]), 0.6, 8.0, _churn_rngs(1))
        with pytest.raises(ChurnError):
            ShardedChurn(np.array([0, 5, 3]), 0.6, 8.0, _churn_rngs(2))
        with pytest.raises(ChurnError):
            ShardedChurn(np.array([0, 5]), 0.6, 8.0, _churn_rngs(2))
