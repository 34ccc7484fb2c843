"""The batch kernels' row blocks: any block size, the same state.

``NodeArena.batch_absorb``, ``NodeArena.sample_cache`` and
``NodeArena.update_digest`` (behind ``ShardEngine.digest_bytes``) walk
their rows ``arena.BLOCK_ROWS`` at a time.  Rows fold independently, so
the block size must change nothing: each test runs one input at block
sizes of 1, 7, one that splits a wave, and one of at least the row
count, and requires identical columns, refcounts, free list, returned
rows, picks and digest bytes.  The last test pins what the blocks are
for: the absorb kernel's scratch grows with the block, not with the
number of receivers.
"""

import contextlib
import copy
import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.core import BatchOverlay, NodeArena, Pseudonym
from repro.core import arena as kernels
from repro.core.arena import _wave_major
from repro.privlink import Address

#: Every column ``batch_absorb`` may write.
COLUMNS = (
    "slot_ids",
    "slot_dist",
    "slot_soonest",
    "cache_ids",
    "cache_len",
    "cache_min_exp",
    "link_ids",
    "link_len",
)

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

#: One block holds every row.
WHOLE = 10**9


@contextlib.contextmanager
def _blocks(size):
    saved = kernels.BLOCK_ROWS
    kernels.BLOCK_ROWS = size
    try:
        yield
    finally:
        kernels.BLOCK_ROWS = saved


def _state(arena):
    state = {
        name: getattr(arena, name).copy()
        for name in COLUMNS
        if getattr(arena, name) is not None
    }
    state["refcounts"] = arena.pseudonyms.refcounts.copy()
    state["free"] = np.array(arena.pseudonyms._free)
    return state


def _absorb(block, arena, dst, cands, now, own):
    """``batch_absorb`` on a copy of ``arena``: (rows, state after)."""
    arena = copy.deepcopy(arena)
    with _blocks(block):
        rows = arena.batch_absorb(dst, cands, now, own)
    return rows, _state(arena)


def _assert_same(got, want):
    rows, state = got
    want_rows, want_state = want
    np.testing.assert_array_equal(rows, want_rows)
    assert state.keys() == want_state.keys()
    for name in want_state:
        np.testing.assert_array_equal(state[name], want_state[name], name)


@pytest.fixture(scope="module")
def round_input():
    """The arena and arguments of one warm round's ``batch_absorb``,
    plus its wave sizes."""
    overlay = BatchOverlay.build(CONFIG, extra_edges_per_node=4)
    overlay.run(3)
    captured = []
    original = NodeArena.batch_absorb

    def spy(arena, dst, cands, now, own):
        captured.append((copy.deepcopy(arena), dst, cands, now, own))
        return original(arena, dst, cands, now, own)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(NodeArena, "batch_absorb", spy)
        overlay.step()
    ((arena, dst, cands, now, own),) = captured
    _, soonest = arena._usable(cands, now, own)
    _, _, sizes = _wave_major(dst[soonest < math.inf])
    return arena, (dst, cands, now, own), sizes.tolist()


def _block_size(name, sizes):
    if name == "split":
        # Ends a block inside wave 1: its size is no multiple of this.
        size = sizes[1] // 2 + 1
        assert sizes[1] % size and size < sizes[1]
        return size
    return {"one": 1, "seven": 7, "rows": sizes[0]}[name]


BLOCKS = ["one", "seven", "split", "rows"]


class TestAbsorb:
    @pytest.mark.parametrize("block", BLOCKS)
    def test_round_is_the_same_at_any_block_size(self, round_input, block):
        arena, args, sizes = round_input
        assert len(sizes) >= 3 and sizes[0] > 500
        _assert_same(
            _absorb(_block_size(block, sizes), arena, *args),
            _absorb(WHOLE, arena, *args),
        )

    def test_ids_freed_in_two_blocks_join_the_free_list_in_id_order(self):
        """Row 0 (ranked first) evicts the larger id, row 1 the smaller,
        each its last holder: one release after the last block frees
        them in id order, as a single block does."""
        arena = NodeArena()
        arena.register_batch(2, 0, 1)
        table = arena.pseudonyms
        low, high, new_0, new_1 = (
            table.intern(Pseudonym(value=v, address=Address(v), expires_at=9.0))
            for v in (1, 2, 3, 4)
        )
        own = np.full(2, -1)
        arena.batch_absorb(np.arange(2), np.array([[high], [low]]), 1.0, own)
        table.release_batch(np.array([high, low]))  # delivered
        args = (np.arange(2), np.array([[new_0], [new_1]]), 2.0, own)
        rows, state = _absorb(1, arena, *args)
        assert state["free"][-2:].tolist() == [low, high]
        _assert_same((rows, state), _absorb(WHOLE, arena, *args))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_delivery_batches(self, data):
        """Small integers, so that equal distances, equal expiries,
        repeats, evictions and freed ids are the common case; rounds
        carry their folded state forward."""
        draw = data.draw
        num_rows = draw(st.integers(1, 9))
        # Each row its own sampler size.
        slot_counts = draw(
            st.lists(st.integers(0, 3), min_size=num_rows, max_size=num_rows)
        )
        arena = NodeArena()
        arena.register_batch(num_rows, np.array(slot_counts), draw(st.integers(1, 4)))
        slots = arena.slot_cols
        refs = draw(
            st.lists(
                st.integers(0, 12),
                min_size=num_rows * slots,
                max_size=num_rows * slots,
            )
        )
        arena.slot_refs[:num_rows, :slots] = np.reshape(refs, (num_rows, slots))
        universe = [
            Pseudonym(
                value=value,
                address=Address(value + 1),
                expires_at=draw(st.sampled_from([1.5, 2.5, 9.0])),
            )
            for value in range(12)
        ]
        entry = st.one_of(st.none(), st.sampled_from(universe))
        table = arena.pseudonyms
        held = []  # the sets in flight hold every id they carry

        def ids(count):
            cells = draw(st.lists(entry, min_size=count, max_size=count))
            out = [-1 if p is None else table.intern(p) for p in cells]
            held.extend(pid for pid in out if pid >= 0)
            return out

        block = draw(st.integers(1, num_rows + 1))
        for now in (1.0, 2.0, 3.0, 4.0):
            count = draw(st.integers(0, 14))
            width = draw(st.integers(1, 5))
            dst = np.array(
                draw(st.lists(st.integers(0, num_rows - 1), min_size=count, max_size=count)),
                dtype=np.int64,
            )
            cands = np.array(ids(count * width), dtype=np.int32).reshape(count, width)
            own = np.array(ids(count), dtype=np.int64)
            args = (dst, cands, now, own)
            _assert_same(_absorb(block, arena, *args), _absorb(WHOLE, arena, *args))
            with _blocks(block):
                arena.batch_absorb(*args)
            arena.check_invariants(extra_holders=held)
            # The sets are delivered: what only a cell held is freed by
            # the next round's evictions, in the free list's order.
            table.release_batch(np.array(held, dtype=np.int64))
            held.clear()


class TestSampleCache:
    @staticmethod
    def _one_shot(arena, rows, count, keys):
        live = np.arange(arena.cache_cols) < arena.cache_len[rows][:, None]
        order = np.argsort(np.where(live, keys, math.inf), axis=1, kind="stable")
        ids = np.where(live, arena.cache_ids[rows], -1)
        return np.take_along_axis(ids, order[:, :count], axis=1)

    @pytest.mark.parametrize("block", BLOCKS)
    def test_picks_are_the_same_at_any_block_size(self, round_input, block):
        arena, _, sizes = round_input
        rng = np.random.default_rng(7)
        rows = np.unique(rng.integers(0, arena.num_nodes, sizes[0]))
        keys = rng.random((len(rows), arena.cache_cols))
        with _blocks(_block_size(block, sizes)):
            picks = arena.sample_cache(rows, 7, keys)
        assert picks.dtype == np.int32
        np.testing.assert_array_equal(picks, self._one_shot(arena, rows, 7, keys))


class TestDigest:
    @staticmethod
    def _one_shot(engine):
        """``ShardEngine.digest_bytes`` as one pass over all rows."""
        arena, size = engine.arena, engine.size
        values = arena.pseudonyms.values
        own = engine.own_ids
        digest = hashlib.sha256()
        digest.update(np.packbits(engine.online).tobytes())
        digest.update(np.where(own >= 0, values[np.maximum(own, 0)], -1).tobytes())
        for ids, lens in (
            (arena.cache_ids[:size], arena.cache_len[:size]),
            (arena.link_ids[:size], arena.link_len[:size]),
        ):
            live = np.arange(ids.shape[1])[None, :] < lens[:, None]
            digest.update(lens.tobytes())
            digest.update(values[ids[live]].tobytes())
        slot_ids = arena.slot_ids[:size]
        digest.update(np.packbits(slot_ids >= 0).tobytes())
        digest.update(values[slot_ids[slot_ids >= 0]].tobytes())
        return digest.digest()

    @pytest.mark.parametrize("block", [1, 7, 13, 2000])
    def test_digest_equals_a_one_shot_hash(self, block):
        """Slot rows whose width is not a multiple of eight, so a
        block of 1, 7 or 13 rows does not end its packed slot bits on a
        byte: the blocks round up to 8 and 16 rows.  2000 is every row
        at once."""
        config = dataclasses.replace(CONFIG, target_degree=15)
        overlay = BatchOverlay.build(config, extra_edges_per_node=4, num_shards=2)
        for engine in overlay.engines:
            assert engine.arena.slot_cols % 8 != 0
        overlay.run(3)
        for engine in overlay.engines:
            with _blocks(block):
                got = engine.digest_bytes()
            assert got == self._one_shot(engine)


class TestScratchIsPerBlock:
    @staticmethod
    def _peak(receivers):
        """Traced peak of one ``batch_absorb`` beyond its inputs: two
        sets of eight to each of ``receivers`` fresh rows with the
        batch engine's slot and cache widths."""
        rng = np.random.default_rng(3)
        arena = NodeArena()
        arena.register_batch(receivers, 12, 16)
        arena.slot_refs[:receivers, :12] = rng.integers(0, 1 << 40, (receivers, 12))
        pool = 4 * receivers
        ids = arena.pseudonyms.mint_batch(
            rng.integers(0, 1 << 40, pool), np.full(pool, 9.0), np.full(pool, -1)
        )
        dst = rng.permutation(np.repeat(np.arange(receivers), 2))
        cands = rng.choice(ids, (len(dst), 8)).astype(np.int32)
        own = np.full(len(dst), -1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            arena.batch_absorb(dst, cands, 1.0, own)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_four_times_the_receivers_less_than_half_again_the_scratch(self):
        receivers = 2 * kernels.BLOCK_ROWS
        small = self._peak(receivers)
        large = self._peak(4 * receivers)
        assert large < 1.5 * small, (small, large)
