"""The batch absorb kernel vs a delivery-at-a-time reference.

``NodeArena.batch_absorb`` gathers every receiving row once, folds the
slots as one running minimum over all of a row's sets and the cache
wave by wave, scatters once and settles refcounts once.
``reference_absorb`` restates the contract the slow way — one delivery
at a time, in the order given, through the row views
(``ArenaCache.merge``, ``ArenaSlots.offer_batch``,
``ArenaLinkSet.update_from_sample``) — and ``Planes`` requires equal
slots, caches, links, link counters, dirty rows and live ids after
every single step, with ``check_invariants()`` on both arenas, on
hand-built collisions and on random small-integer worlds where equal
distances, equal expiries and repeated pseudonyms are the rule.

The reference spells out the batch engine's one discretization of the
cache: membership is judged against the cache as a set arrives, so a
cached pseudonym the same set pushes out does not come back with it
(it does with the *next* set, as the newest entry).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ArenaCache,
    ArenaLinkSet,
    ArenaSlots,
    NodeArena,
    Pseudonym,
)
from repro.core.arena import _wave_major
from repro.errors import ProtocolError
from repro.privlink import Address


def _p(value, expires=100.0):
    return Pseudonym(value=value, address=Address(value + 1), expires_at=expires)


class Row:
    """One node of the reference plane: its three row views."""

    def __init__(self, arena, row, refs, capacity, own):
        self.slots = ArenaSlots(arena, row, len(refs), np.random.default_rng(0))
        self.cache = ArenaCache(arena, row, capacity)
        self.links = ArenaLinkSet(arena, row, ())
        self.own = own


def reference_absorb(nodes, deliveries, now):
    """Fold ``(row, received)`` deliveries one at a time, in order."""
    dirty = set()
    for row, received in deliveries:
        node = nodes[row]
        usable = [
            p for p in received
            if p is not None and p.expires_at > now and p != node.own
        ]
        absent = [p for p in dict.fromkeys(usable) if p not in node.cache]
        node.cache.merge(absent, now)
        if node.slots.offer_batch(usable):
            dirty.add(row)
    return {
        row: nodes[row].links.update_from_sample(nodes[row].slots.sample())
        for row in dirty
    }


class Planes:
    """The same rows twice: row views (reference) and batch kernels."""

    def __init__(self, specs):
        """``specs``: one ``(slot refs, cache capacity, own | None)`` per row."""
        self.reference = NodeArena()
        self.batch = NodeArena()
        self.nodes = []
        for row, (refs, capacity, own) in enumerate(specs):
            self.reference.register_node(row, len(refs), capacity)
            self.batch.register_node(row, len(refs), capacity)
            self.nodes.append(Row(self.reference, row, refs, capacity, own))
            self.reference.slot_refs[row, : len(refs)] = refs
            self.batch.slot_refs[row, : len(refs)] = refs

    def expire(self, now):
        """The round's leading purge (``ShardEngine.begin_round``)."""
        expected = {}
        for row, node in enumerate(self.nodes):
            node.cache.remove_expired(now)
            if node.slots.expire(now):
                expected[row] = node.links.update_from_sample(node.slots.sample())
        slot_dirty, _ = self.batch.batch_expire(now)
        self._assert_links(slot_dirty, expected)
        self.assert_same_state()

    def absorb(self, deliveries, now):
        """One ``batch_absorb`` against the reference fold."""
        expected = reference_absorb(self.nodes, deliveries, now)
        table = self.batch.pseudonyms
        held = []  # the sets in flight hold every id they carry

        def intern(pseudonym):
            if pseudonym is None:
                return -1
            held.append(table.intern(pseudonym))
            return held[-1]

        width = max((len(received) for _, received in deliveries), default=0)
        cands = np.full((len(deliveries), width), -1, dtype=np.int32)
        for index, (_, received) in enumerate(deliveries):
            cands[index, : len(received)] = [intern(p) for p in received]
        dst = np.array([row for row, _ in deliveries], dtype=np.int64)
        own = np.array(
            [intern(self.nodes[row].own) for row, _ in deliveries], dtype=np.int64
        )
        dirty = self.batch.batch_absorb(dst, cands, now, own)
        self._assert_links(dirty, expected)
        self.batch.check_invariants(extra_holders=held)
        table.release_batch(np.array(held, dtype=np.int64))
        self.assert_same_state()

    def _assert_links(self, dirty, expected):
        added, removed = self.batch.batch_links_from_slots(dirty)
        got = dict(zip(dirty.tolist(), zip(added.tolist(), removed.tolist())))
        assert got == expected

    def _values(self, arena, ids):
        return np.where(ids >= 0, arena.pseudonyms.values[ids], -1).tolist()

    def _expiries(self, arena, ids):
        return np.where(ids >= 0, arena.pseudonyms.expires_at[ids], -math.inf).tolist()

    def assert_same_state(self):
        reference, batch = self.reference, self.batch
        reference.check_invariants()
        batch.check_invariants()
        for row, node in enumerate(self.nodes):
            size = node.slots.size
            for arena in (reference, batch):
                assert (arena.slot_ids[row, size:] < 0).all()
            assert self._values(batch, batch.slot_ids[row, :size]) == self._values(
                reference, reference.slot_ids[row, :size]
            ), f"slot row {row}"
            assert self._expiries(
                batch, batch.slot_ids[row, :size]
            ) == self._expiries(reference, reference.slot_ids[row, :size])
            for ids, lengths in (("cache_ids", "cache_len"), ("link_ids", "link_len")):
                assert self._values(
                    batch, getattr(batch, ids)[row, : getattr(batch, lengths)[row]]
                ) == self._values(
                    reference,
                    getattr(reference, ids)[row, : getattr(reference, lengths)[row]],
                ), f"{ids} row {row}"
        assert batch.pseudonyms.live == reference.pseudonyms.live

    def slot_values(self, row):
        return self._values(
            self.batch, self.batch.slot_ids[row, : self.nodes[row].slots.size]
        )

    def cache_values(self, row):
        return self._values(
            self.batch, self.batch.cache_ids[row, : self.batch.cache_len[row]]
        )


class TestCollisions:
    """Hand-built deliveries that collide inside one round."""

    def test_three_sets_at_one_receiver(self):
        planes = Planes([([100, 200, 300], 4, _p(1)), ([150], 2, _p(2))])
        planes.absorb(
            [
                (0, [_p(90), _p(210)]),
                (1, [_p(149), _p(1)]),
                (0, [_p(101), _p(90), _p(305)]),
                (0, [_p(299), _p(2), None]),
            ],
            now=1.0,
        )
        assert planes.slot_values(0) == [101, 210, 299]
        # Capacity 4: the first set's two entries were pushed out.
        assert planes.cache_values(0) == [101, 305, 299, 2]
        assert planes.slot_values(1) == [149]
        assert planes.cache_values(1) == [149, 1]

    def test_evicted_pseudonym_comes_back_with_a_later_set(self):
        """Set 1 pushes A out of the full cache; set 2 carries A again,
        so A returns as the newest entry — within one set it would not."""
        a, b, c, d = _p(10), _p(20), _p(30), _p(40)
        planes = Planes([([], 2, None)])
        planes.absorb([(0, [a, b])], now=1.0)
        planes.absorb([(0, [c]), (0, [a, d])], now=2.0)
        assert planes.cache_values(0) == [10, 40]
        # The same traffic as ONE set: A is judged present, then evicted.
        planes = Planes([([], 2, None)])
        planes.absorb([(0, [a, b])], now=1.0)
        planes.absorb([(0, [c, a, d])], now=2.0)
        assert planes.cache_values(0) == [30, 40]

    @pytest.mark.parametrize(
        "first, second, seated",
        [
            ((90, 5.0), (110, 7.0), 110),  # equally close, later expiry
            ((90, 5.0), (110, 5.0), 90),  # equal expiries: the earlier stays
            ((110, 7.0), (90, 5.0), 110),  # earlier expiry never displaces
        ],
    )
    def test_mirror_tie_across_waves(self, first, second, seated):
        """R = 100; 90 and 110 are equally close, one per wave."""
        planes = Planes([([100], 4, None)])
        planes.absorb([(0, [_p(*first)]), (0, [_p(*second)])], now=1.0)
        assert planes.slot_values(0) == [seated]
        # ... and against an occupant seated in an earlier round.
        planes = Planes([([100], 4, None)])
        planes.absorb([(0, [_p(*first)])], now=1.0)
        planes.absorb([(0, [_p(*second)])], now=2.0)
        assert planes.slot_values(0) == [seated]

    def test_minus_inf_expiry_loses_the_tie_across_waves(self):
        """``test_minus_inf_expiry_is_the_least_preferred_tie_break`` with
        its two candidates in two waves (the absorb filter would drop an
        expired candidate, so this drives the slot fold itself)."""
        arena = NodeArena()
        arena.register_batch(1, 1, 1)
        arena.slot_refs[0, 0] = 100
        table = arena.pseudonyms
        ids = [table.intern(_p(90, -math.inf)), table.intern(_p(110, 5.0))]
        changed, seated, unseated = arena._fold_slots(
            np.array([0]), [1, 1], np.array([ids], dtype=np.int64)
        )
        assert changed.tolist() == [1] and len(unseated) == 0
        assert table.values[seated].tolist() == [110]
        assert table.expires_at[arena.slot_ids[0, 0]] == 5.0
        table.acquire_batch(seated)
        arena.check_invariants(extra_holders=ids)

    def test_candidate_at_the_empty_slot_sentinel_distance(self):
        """|0 - (2^63 - 1)| is the distance an empty slot stores; the
        candidate still beats the empty slot's -inf expiry, as in the
        row view."""
        planes = Planes([([(1 << 63) - 1], 2, None)])
        planes.absorb([(0, [_p(0)])], now=1.0)
        assert planes.slot_values(0) == [0]

    def test_candidate_that_already_occupies_the_slot(self):
        x, y = _p(95), _p(300)
        planes = Planes([([100, 310], 4, None)])
        planes.absorb([(0, [x])], now=1.0)
        assert planes.slot_values(0) == [95, 95]
        before = planes.batch.pseudonyms.refcounts.copy()
        # X again, twice in one set and once more in the next wave: it
        # ties with itself everywhere and must change nothing; Y takes
        # the second slot only.
        planes.absorb([(0, [x, x, y]), (0, [x])], now=2.0)
        assert planes.slot_values(0) == [95, 300]
        after = planes.batch.pseudonyms.refcounts
        x_id = planes.batch.slot_ids[0, 0]
        # X left one slot; its other slot, its link and its cache entry stay.
        assert before[x_id] - after[x_id] == 1

    def test_more_usable_candidates_than_cache_capacity(self):
        planes = Planes([([500], 2, None), ([500], 1, None)])
        received = [_p(v) for v in (10, 20, 30, 40, 50)]
        planes.absorb([(0, received), (1, received), (1, received[:2])], now=1.0)
        assert planes.cache_values(0) == [40, 50]
        assert planes.cache_values(1) == [20]

    def test_delivery_with_nothing_usable(self):
        own = _p(7)
        planes = Planes([([100], 2, own), ([100], 2, None)])
        planes.absorb([(1, [_p(90)])], now=1.0)
        planes.absorb(
            [
                (0, [own, _p(50, 2.0), None]),  # own, expired, padding
                (1, [_p(60, 1.5)]),  # expired
                (0, []),
            ],
            now=3.0,
        )
        assert planes.slot_values(0) == [-1] and planes.cache_values(0) == []
        assert planes.slot_values(1) == [90] and planes.cache_values(1) == [90]
        # The all-unusable delivery must not shift the wave of the next.
        planes.absorb([(0, [own]), (0, [_p(99)]), (0, [own])], now=3.0)
        assert planes.slot_values(0) == [99]

    def test_inserted_then_evicted_within_one_round(self):
        """The release-before-acquire trap: X is known to this table only
        through the set that carries it (a remote-interned instance);
        wave 0 caches it, wave 1 evicts it.  Releasing first would drop
        X to zero — onto the free list — and re-acquire it there."""
        planes = Planes([([], 1, None)])
        planes.absorb([(0, [_p(10)]), (0, [_p(20)])], now=1.0)
        assert planes.cache_values(0) == [20]
        table = planes.batch.pseudonyms
        assert table.live == 1
        assert len(table._free) == len(set(table._free))

    def test_expiry_between_rounds(self):
        planes = Planes([([100, 200], 3, None)])
        planes.absorb([(0, [_p(101, 2.5), _p(199, 9.0), _p(150, 2.0)])], now=1.0)
        assert planes.slot_values(0) == [101, 199]
        planes.expire(3.0)
        assert planes.slot_values(0) == [-1, 199]
        assert planes.cache_values(0) == [199]
        planes.absorb([(0, [_p(120, 9.0)])], now=3.0)
        assert planes.slot_values(0) == [120, 199]


class TestOneWaveAbsorb:
    """``batch_absorb`` with one delivery per row."""

    def test_row_with_only_padding_is_left_alone(self):
        arena = NodeArena()
        arena.register_batch(3, 2, 2)
        arena.slot_refs[:3, :2] = [[10, 20], [10, 20], [10, 20]]
        table = arena.pseudonyms
        ids = [table.intern(_p(11)), table.intern(_p(19))]
        cands = np.array([[ids[0], -1], [-1, -1], [-1, ids[1]]], dtype=np.int64)
        rows = np.array([2, 0, 1])
        changed = arena.batch_absorb(rows, cands, 0.0, np.full(3, -1))
        assert sorted(changed.tolist()) == [1, 2]
        assert arena.slot_ids[:3, :2].tolist() == [
            [-1, -1], [ids[1], ids[1]], [ids[0], ids[0]],
        ]
        assert arena.cache_len[:3].tolist() == [0, 1, 1]
        assert arena.cache_ids[:3, :2].tolist() == [
            [-1, -1], [ids[1], -1], [ids[0], -1],
        ]
        arena.check_invariants(extra_holders=ids)


class TestWaveMajor:
    @given(dst=st.lists(st.integers(0, 6), max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_every_wave_is_a_prefix(self, dst):
        dst = np.array(dst, dtype=np.int64)
        rows, order, sizes = _wave_major(dst)
        assert sorted(order.tolist()) == list(range(len(dst)))
        counts = np.bincount(dst, minlength=7)
        # Distinct receivers, most sets first, ties by row.
        expected = sorted(set(dst.tolist()), key=lambda row: (-counts[row], row))
        assert rows.tolist() == expected
        assert sizes.tolist() == [
            int((counts > wave).sum()) for wave in range(counts.max(initial=0))
        ]
        seen = {row: [] for row in expected}
        offset = 0
        for size in sizes.tolist():
            block = order[offset : offset + size]
            assert dst[block].tolist() == rows[:size].tolist()
            for row, index in zip(rows[:size].tolist(), block.tolist()):
                seen[row].append(index)
            offset += size
        # A row's deliveries keep their order.
        for row, indices in seen.items():
            assert indices == np.flatnonzero(dst == row).tolist()


@st.composite
def _worlds(draw):
    """Small integers everywhere, so that mirror ties, equal expiries
    and pseudonyms seen twice are the common case."""
    expiries = draw(
        st.lists(st.sampled_from([1.5, 2.5, 3.5, 9.0]), min_size=12, max_size=12)
    )
    universe = [_p(value, expiry) for value, expiry in enumerate(expiries)]
    entry = st.one_of(st.none(), st.sampled_from(universe))
    num_rows = draw(st.integers(1, 4))
    specs = [
        (
            draw(st.lists(st.integers(0, 12), max_size=3)),
            draw(st.integers(1, 4)),
            draw(entry),
        )
        for _ in range(num_rows)
    ]
    delivery = st.tuples(st.integers(0, num_rows - 1), st.lists(entry, max_size=5))
    steps = draw(st.lists(st.lists(delivery, max_size=10), min_size=1, max_size=4))
    return specs, steps


class TestRandomWorlds:
    @given(world=_worlds())
    @settings(max_examples=300, deadline=None)
    def test_step_by_step_equals_reference(self, world):
        specs, steps = world
        planes = Planes(specs)
        for now, deliveries in enumerate(steps, start=1):
            planes.expire(float(now))
            planes.absorb(deliveries, float(now))


class TestInvariantChecker:
    """``check_invariants`` names what is broken."""

    def _arena(self):
        arena = NodeArena()
        arena.register_batch(2, 2, 2)
        arena.slot_refs[:2, :2] = [[10, 20], [30, 40]]
        table = arena.pseudonyms
        self.ids = [table.intern(_p(v, 5.0 + v)) for v in (11, 19, 33)]
        cands = np.array([self.ids[:2], [self.ids[2], -1]], dtype=np.int64)
        rows = np.arange(2)
        arena.batch_absorb(rows, cands, 0.0, np.full(2, -1))
        arena.batch_links_from_slots(rows)
        arena.check_invariants(extra_holders=self.ids)
        return arena

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda a: a.pseudonyms.refcounts.__setitem__(0, 9), "refcount 9"),
            (lambda a: a.pseudonyms._free.append(a.pseudonyms._free[-1]), "twice"),
            (lambda a: a.pseudonyms._free.append(0), "on the free list"),
            (lambda a: a.pseudonyms._free.pop(), "off the free list"),
            (lambda a: a.cache_len.__setitem__(1, 2), "cache cells and length"),
            (lambda a: a.cache_cap.__setitem__(0, 1), "past capacity"),
            (lambda a: a.link_ids.__setitem__((1, 1), 0), "link cells and length"),
            (lambda a: a.slot_dist.__setitem__((0, 0), 3), "slot_dist"),
            (lambda a: a.slot_soonest.__setitem__(0, 99.0), "slot_soonest"),
            (lambda a: a.cache_min_exp.__setitem__(1, 99.0), "cache_min_exp"),
            (lambda a: a.slot_n.__setitem__(1, 1), "past the slot count"),
        ],
    )
    def test_names_the_violation(self, corrupt, message):
        arena = self._arena()
        corrupt(arena)
        with pytest.raises(ProtocolError, match=message):
            arena.check_invariants(extra_holders=self.ids)
