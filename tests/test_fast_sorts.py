"""The batch round's fast sorts against the forms they replace.

The round sorts with numpy's default (unstable) kernels, radix sorts and
a boolean mask where the old code ran ``kind="stable"`` or the hashed
``np.unique``.  Each fast form must return exactly what the old one did,
so every test here forces the ties the old form broke: duplicated keys,
short and empty rows, heavy repeats.  ``docs/node_plane.md`` lists why
ties cannot change an output.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.core import BatchOverlay, NodeArena
from repro.core.arena import SAMPLE_MAX_COLS, _most_first
from repro.core.batch import ShardEngine, _unique_first
from repro.errors import ConfigError, ProtocolError

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

#: The largest ``Generator.random`` value, ``1 - 2⁻⁵³``.
TOP = (2**53 - 1) * 2.0**-53


def _arena(cache_ids, cache_len):
    """An arena whose cache columns are exactly ``cache_ids`` / ``cache_len``."""
    rows, cols = cache_ids.shape
    arena = NodeArena()
    arena.register_batch(rows, 0, cols)
    arena.cache_ids[:rows] = cache_ids
    arena.cache_len[:rows] = cache_len
    return arena


def _stable_picks(arena, rows, count, keys):
    """``sample_cache`` as the stable argsort of the float keys."""
    live = np.arange(arena.cache_cols) < arena.cache_len[rows][:, None]
    order = np.argsort(np.where(live, keys, math.inf), axis=1, kind="stable")
    ids = np.where(live, arena.cache_ids[rows], -1)
    return np.take_along_axis(ids, order[:, :count], axis=1)


class TestSampleCache:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_packed_key_matches_the_stable_float_sort(self, data):
        rows = data.draw(st.integers(1, 12))
        cols = data.draw(st.sampled_from([1, 2, 3, 5, 16, 17, 64]))
        # A pool of a few keys forces ties inside a row; it holds both
        # extremes of Generator.random.
        pool = data.draw(
            st.lists(st.integers(0, 2**53 - 1), min_size=1, max_size=4)
        ) + [0, 2**53 - 1]
        k = np.array(
            data.draw(
                st.lists(st.sampled_from(pool), min_size=rows * cols, max_size=rows * cols)
            ),
            dtype=np.int64,
        )
        keys = k.reshape(rows, cols) * 2.0**-53
        lens = np.array(
            data.draw(st.lists(st.integers(0, cols), min_size=rows, max_size=rows))
        )
        arena = _arena(np.arange(rows * cols).reshape(rows, cols), lens)
        count = data.draw(st.integers(0, cols + 2))
        picks = arena.sample_cache(np.arange(rows), count, keys)
        np.testing.assert_array_equal(
            picks, _stable_picks(arena, np.arange(rows), count, keys)
        )

    def test_widest_cache_with_tied_top_keys(self):
        """2048 columns: the packed key of a full row's last cell is uint64
        max, the dead-cell sentinel; full rows have no dead cell to tie."""
        rng = np.random.default_rng(3)
        cols = SAMPLE_MAX_COLS
        keys = rng.random((4, cols))
        keys[:, -1] = TOP
        keys[:, 7] = TOP
        keys[1, 100:200] = keys[1, 100]
        lens = np.array([cols, cols - 1, 1, 0])
        arena = _arena(rng.integers(0, 10**6, (4, cols)), lens)
        rows = np.arange(4)
        for count in (1, 7, cols):
            np.testing.assert_array_equal(
                arena.sample_cache(rows, count, keys),
                _stable_picks(arena, rows, count, keys),
            )

    def test_wider_cache_is_refused(self):
        arena = NodeArena()
        arena.register_batch(1, 0, SAMPLE_MAX_COLS + 1)
        with pytest.raises(ProtocolError, match=str(SAMPLE_MAX_COLS)):
            arena.sample_cache(np.arange(1), 3, np.zeros((1, SAMPLE_MAX_COLS + 1)))


class TestUniqueFirst:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 6), min_size=1, max_size=300),
        st.sampled_from([1, 3, 2**62]),
    )
    def test_matches_np_unique(self, small, scale):
        values = np.array(small, dtype=np.int64) * scale
        expected = np.unique(values, return_index=True, return_inverse=True)
        got = _unique_first(values)
        for want, have in zip(expected, got):
            np.testing.assert_array_equal(have, want)

    def test_long_runs(self):
        """Runs far longer than the sort's small-array cutoff."""
        values = np.random.default_rng(5).integers(0, 3, 100_000).astype(np.int64)
        expected = np.unique(values, return_index=True, return_inverse=True)
        for want, have in zip(expected, _unique_first(values)):
            np.testing.assert_array_equal(have, want)


class TestMostFirst:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 300), min_size=1, max_size=400))
    def test_matches_stable_argsort(self, counts):
        counts = np.array(counts, dtype=np.int64)
        np.testing.assert_array_equal(
            _most_first(counts), np.argsort(-counts, kind="stable")
        )

    def test_wide_counts(self):
        """Counts past 2¹⁶ leave the radix-sortable dtypes."""
        counts = np.random.default_rng(2).integers(1, 4, 50_000) * 40_000
        np.testing.assert_array_equal(
            _most_first(counts), np.argsort(-counts, kind="stable")
        )


class TestRoundInputs:
    """What the default sorts rely on, read off real rounds."""

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_participants_are_the_sorted_unique_ids(self, monkeypatch, num_shards):
        checked = []
        build_sets = ShardEngine.build_sets

        def checked_build_sets(engine, pairs_in, now):
            out = build_sets(engine, pairs_in, now)
            involved = np.concatenate(
                [engine._initiators] + [batch.partners for batch in pairs_in]
            )
            participants = np.unique(involved - engine.lo)
            position = engine._position
            np.testing.assert_array_equal(np.flatnonzero(position >= 0), participants)
            np.testing.assert_array_equal(
                position[participants], np.arange(len(participants))
            )
            # absorb sorts initiator ids with the default kernel.
            assert len(np.unique(engine._initiators)) == len(engine._initiators)
            checked.append(len(participants))
            return out

        monkeypatch.setattr(ShardEngine, "build_sets", checked_build_sets)
        overlay = BatchOverlay.build(CONFIG, extra_edges_per_node=4, num_shards=num_shards)
        overlay.run(4)
        assert len(checked) == 4 * num_shards and min(checked) > 0

    def test_live_values_are_distinct_on_three_shards(self):
        overlay = BatchOverlay.build(CONFIG, extra_edges_per_node=4, num_shards=3)
        for _ in range(10):
            overlay.step()
            for engine in overlay.engines:
                table = engine.arena.pseudonyms
                live = table.refcounts[: table.capacity] > 0
                values = table.values[: table.capacity][live]
                assert len(np.unique(values)) == len(values)


class TestCacheSizeGuard:
    def test_batch_engine_refuses_a_cache_past_the_packed_key(self):
        config = SystemConfig(num_nodes=50, cache_size=4096, seed=1)
        with pytest.raises(ConfigError, match="cache_size=4096"):
            BatchOverlay.build(config)

    def test_widest_cache_runs(self):
        config = SystemConfig(num_nodes=50, cache_size=SAMPLE_MAX_COLS, seed=1)
        overlay = BatchOverlay.build(config)
        overlay.run(3)
        for engine in overlay.engines:
            engine.arena.check_invariants(
                extra_holders=engine.own_ids[engine.own_ids >= 0]
            )
