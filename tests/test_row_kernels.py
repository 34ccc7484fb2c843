"""The per-receipt row kernels against a tuple-level reference.

``ArenaCache.merge``, ``ArenaSlots.offer_batch`` and
``ArenaLinkSet.update_from_sample`` fold one received shuffle set into
one arena row.  The reference here keeps that row as plain tuples and
applies the paper's policy an entry at a time; the views must agree
with it after every step — cache order, slot
occupants, link-table order, the ``(added, removed)`` counts and the
number of live interned ids (a leaked or double-released refcount shows
there first).
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ArenaCache, ArenaLinkSet, ArenaSlots, NodeArena, Pseudonym
from repro.privlink import Address

from .node_state import make_cache


def _p(value, expires=100.0):
    """A pseudonym that ``(value, expires)`` identifies."""
    return Pseudonym(value=value, address=Address(value + 1), expires_at=expires)


def reference_merge(cache, capacity, received, now, just_sent=(), own_value=None):
    """CYCLON merge over ``(value, expiry)`` tuples, oldest first."""
    cache = [entry for entry in cache if entry[1] > now]
    victims = list({value for value, _ in just_sent})
    inserted = 0
    for value, expiry in received:
        if expiry <= now or value == own_value:
            continue
        held = [i for i, entry in enumerate(cache) if entry[0] == value]
        if held:
            if expiry > cache[held[0]][1]:
                cache[held[0]] = (value, expiry)
                inserted += 1
            continue
        if len(cache) >= capacity:
            cached = {entry[0] for entry in cache}
            victim = next((v for v in victims if v in cached), cache[0][0])
            if victim in victims:
                victims.remove(victim)
            cache = [entry for entry in cache if entry[0] != victim]
        cache.append((value, expiry))
        inserted += 1
    return cache, inserted


def reference_offer(slots, references, received):
    """Offer each ``(value, expiry)`` to each slot in turn; returns changes."""
    before = list(slots)
    for value, expiry in received:
        for index, reference in enumerate(references):
            held = slots[index]
            distance = abs(value - reference)
            if (
                held is None
                or distance < abs(held[0] - reference)
                or (distance == abs(held[0] - reference) and expiry > held[1])
            ):
                slots[index] = (value, expiry)
    return sum(old != new for old, new in zip(before, slots))


def reference_links(links, sample):
    """Sync the ordered link table to ``sample``; returns (added, removed)."""
    wanted = {value: (value, expiry) for value, expiry in sample}
    removed = sum(entry[0] not in wanted for entry in links)
    links[:] = [entry for entry in links if entry[0] in wanted]
    added = 0
    for value, entry in wanted.items():
        held = [i for i, old in enumerate(links) if old[0] == value]
        if not held:
            links.append(entry)
            added += 1
        elif links[held[0]] != entry:
            links[held[0]] = entry
            added += 1
            removed += 1
    return added, removed


def _cache_rows(cache):
    """The view's row as the reference's tuples."""
    return [(p.value, p.expires_at) for p in cache.pseudonyms()]


def _merge_both(cache, state, received, now, just_sent=(), own_value=None):
    """One merge on the view and on the reference; returns the new state."""
    expected, count = reference_merge(
        state,
        cache.capacity,
        [(p.value, p.expires_at) for p in received],
        now,
        [(p.value, p.expires_at) for p in just_sent],
        own_value,
    )
    assert cache.merge(received, now, just_sent=just_sent, own_value=own_value) == count
    assert _cache_rows(cache) == expected
    return expected


class TestMergeCollisions:
    """Hand-built receipts where victims, copies and own entries collide."""

    def test_two_just_sent_victims_go_in_set_order(self):
        cache = make_cache(3)
        state = _merge_both(cache, [], [_p(1), _p(8), _p(3)], 0.0)
        # {1, 8} iterates 8 first, so 8 is the first victim although 1
        # was both sent and inserted earlier.
        sent = [_p(1), _p(8)]
        assert list({p.value for p in sent}) == [8, 1]
        state = _merge_both(cache, state, [_p(4)], 1.0, just_sent=sent)
        assert [entry[0] for entry in state] == [1, 3, 4]
        # The second victim, then (none left) the oldest.
        state = _merge_both(cache, state, [_p(5), _p(6)], 2.0, just_sent=sent)
        assert [entry[0] for entry in state] == [4, 5, 6]
        assert cache._arena.pseudonyms.live == 3

    def test_victim_is_itself_in_the_received_set(self):
        cache = make_cache(2)
        state = _merge_both(cache, [], [_p(1), _p(2)], 0.0)
        # 7 was sent but is not cached: it arrives, takes the oldest
        # entry's place, and is then the preferred victim for 9.
        state = _merge_both(cache, state, [_p(7), _p(9)], 1.0, just_sent=[_p(7)])
        assert [entry[0] for entry in state] == [2, 9]
        # 2 is evicted as just sent, then received again: it re-enters
        # as a new entry, at the cost of the oldest.
        state = _merge_both(cache, state, [_p(3), _p(2)], 2.0, just_sent=[_p(2)])
        assert state == [(3, 100.0), (2, 100.0)]
        assert cache._arena.pseudonyms.live == 2

    def test_later_expiring_copy_keeps_place_and_insertion_time(self):
        cache = make_cache(3)
        state = _merge_both(cache, [], [_p(1, 10.0), _p(2, 10.0)], 0.0)
        state = _merge_both(
            cache, state, [_p(1, 30.0), _p(2, 5.0), _p(1, 20.0)], 1.0
        )
        assert state == [(1, 30.0), (2, 10.0)]
        # The copy replaced the id it refreshed; nothing leaked.
        assert cache._arena.pseudonyms.live == 2
        assert cache._arena.cache_min_exp[0] <= 10.0

    def test_own_value_inside_the_set(self):
        cache = make_cache(2)
        state = _merge_both(
            cache, [], [_p(5), _p(6), _p(5, 200.0), _p(7)], 0.0, own_value=5
        )
        assert [entry[0] for entry in state] == [6, 7]

    def test_capacity_one(self):
        cache = make_cache(1)
        state = _merge_both(cache, [], [_p(1)], 0.0)
        state = _merge_both(cache, state, [_p(2), _p(3)], 1.0, just_sent=[_p(1)])
        assert state == [(3, 100.0)]
        state = _merge_both(cache, state, [_p(3, 150.0)], 2.0)
        assert state == [(3, 150.0)]
        assert cache._arena.pseudonyms.live == 1

    def test_expiry_before_merge_frees_room(self):
        cache = make_cache(2)
        state = _merge_both(cache, [], [_p(1, 2.0), _p(2)], 0.0)
        state = _merge_both(cache, state, [_p(3), _p(4, 1.0)], 5.0)
        assert [entry[0] for entry in state] == [2, 3]


    def test_refresh_and_eviction_of_an_entry_inserted_in_the_same_set(self):
        cache = make_cache(2)
        state = _merge_both(cache, [], [_p(1), _p(2)], 0.0)
        # 3 takes 1's place, is refreshed by its later copy, and is then
        # the just-sent victim for 4; 5 evicts the oldest, 2.
        state = _merge_both(
            cache,
            state,
            [_p(3, 10.0), _p(3, 20.0), _p(4), _p(5)],
            1.0,
            just_sent=[_p(3)],
        )
        assert state == [(4, 100.0), (5, 100.0)]
        assert cache._arena.pseudonyms.live == 2

    def test_append_only_receipt(self):
        cache = make_cache(10)
        state = _merge_both(cache, [], [_p(1), _p(2), _p(3)], 0.0)
        state = _merge_both(
            cache, state, [_p(4), _p(2), _p(5)], 1.0, just_sent=[_p(1)]
        )
        assert [entry[0] for entry in state] == [1, 2, 3, 4, 5]
        assert (cache._arena.cache_ids[0, len(state) :] == -1).all()
        assert cache._arena.pseudonyms.live == 5

    def test_one_value_twice_in_a_set(self):
        cache = make_cache(3)
        state = _merge_both(cache, [], [_p(5, 10.0), _p(5, 30.0), _p(5, 20.0)], 0.0)
        assert state == [(5, 30.0)]
        assert cache._arena.pseudonyms.live == 1


def _slots(references):
    """A slot row with the given references, all slots empty."""
    arena = NodeArena(node_chunk=1)
    arena.register_node(0, len(references), 1)
    slots = ArenaSlots(arena, 0, len(references), np.random.default_rng(0))
    arena.slot_refs[0, : len(references)] = references
    return slots


def _offer_both(slots, state, received):
    """One offer on the view and on the reference; returns the new state."""
    expected = list(state)
    changed = reference_offer(
        expected,
        slots.references.tolist(),
        [(p.value, p.expires_at) for p in received],
    )
    assert slots.offer_batch(received) == changed
    occupants = [slots.entry(index) for index in range(slots.size)]
    assert [
        None if p is None else (p.value, p.expires_at) for p in occupants
    ] == expected
    return expected


class TestOfferCollisions:
    """Hand-built receipts at the edges of the slots' acceptance test."""

    def test_empty_and_converged_slots_in_one_row(self):
        slots = _slots([100, 200, 300])
        state = _offer_both(slots, [None] * 3, [_p(101, 5.0), _p(299)])
        assert state == [(101, 5.0), (299, 100.0), (299, 100.0)]
        assert slots.expire(6.0) == 1
        state[0] = None
        # Slot 0 is empty and takes its closest value, however far; slot 1
        # (reach 99) takes the earlier of two equally close values; slot 2
        # is converged and takes nothing.
        state = _offer_both(slots, state, [_p(1000), _p(150), _p(250)])
        assert state == [(150, 100.0), (150, 100.0), (299, 100.0)]

    def test_candidate_at_exactly_reach(self):
        slots = _slots([100, 200])
        state = _offer_both(slots, [None] * 2, [_p(110, 10.0), _p(190, 10.0)])
        # |90 - 100| is slot 0's distance and the reach: an equal expiry
        # leaves the occupant, a later one replaces it.
        state = _offer_both(slots, state, [_p(90, 10.0), _p(210, 10.0)])
        assert state == [(110, 10.0), (190, 10.0)]
        state = _offer_both(slots, state, [_p(90, 10.0), _p(210, 20.0)])
        assert state == [(110, 10.0), (210, 20.0)]

    def test_one_value_wins_two_slots(self):
        slots = _slots([100, 104, 500])
        state = _offer_both(slots, [None] * 3, [_p(600)])
        state = _offer_both(slots, state, [_p(102), _p(650)])
        assert state == [(102, 100.0), (102, 100.0), (600, 100.0)]
        assert slots.sample() == [_p(102), _p(600)]
        assert slots._arena.pseudonyms.live == 2

    def test_one_value_twice_in_a_set(self):
        slots = _slots([100, 300])
        state = _offer_both(
            slots, [None] * 2, [_p(105, 10.0), _p(105, 30.0), _p(105, 20.0)]
        )
        assert state == [(105, 30.0), (105, 30.0)]
        # An equal copy of the occupant changes nothing.
        assert _offer_both(slots, state, [_p(105, 30.0)]) == state


# A small value pool and a few expiries, so cached values, slot
# occupants, just-sent entries and own values collide all the time.
_ENTRY = st.builds(_p, st.integers(0, 24), st.sampled_from([3.0, 6.0, 9.0, 40.0]))
_STEP = st.tuples(
    st.sampled_from([0.0, 0.5, 2.0]),  # time advance
    st.lists(_ENTRY, max_size=8),  # received
    st.lists(_ENTRY, max_size=4),  # sent beside what the cache offered
    st.integers(0, 24),  # own value
    st.integers(0, 2**31),  # selection seed
)


class TestRowKernelsProperty:
    @given(
        capacity=st.integers(1, 6),
        slot_count=st.integers(0, 4),
        refs_seed=st.integers(0, 2**31),
        steps=st.lists(_STEP, min_size=1, max_size=10),
    )
    @settings(max_examples=150, deadline=None)
    def test_views_follow_the_reference_step_by_step(
        self, capacity, slot_count, refs_seed, steps
    ):
        arena = NodeArena(node_chunk=1)
        arena.register_node(0, slot_count, capacity)
        cache = ArenaCache(arena, 0, capacity)
        slots = ArenaSlots(arena, 0, slot_count, np.random.default_rng(refs_seed))
        links = ArenaLinkSet(arena, 0, ())
        # Small references keep the small values' distances distinct
        # and tied in turn.
        arena.slot_refs[0, :slot_count] %= 25
        references = slots.references.tolist()
        ref_cache, ref_slots, ref_links = [], [None] * slot_count, []
        now = 0.0
        for advance, received, extra_sent, own_value, seed in steps:
            now += advance
            selection = cache.select_for_shuffle(
                np.random.default_rng(seed), 3, now
            )
            just_sent = selection + extra_sent
            ref_cache = _merge_both(
                cache, ref_cache, received, now, just_sent, own_value
            )
            assert arena.cache_min_exp[0] <= min(
                (entry[1] for entry in ref_cache), default=math.inf
            )

            expired = slots.expire(now)
            live = [None if s is None or s[1] <= now else s for s in ref_slots]
            assert expired == sum(a != b for a, b in zip(live, ref_slots))
            ref_slots = live
            usable = [
                p for p in received if p.value != own_value and p.expires_at > now
            ]
            changed = reference_offer(
                ref_slots, references, [(p.value, p.expires_at) for p in usable]
            )
            assert slots.offer_batch(usable) == changed
            occupants = [slots.entry(i) for i in range(slot_count)]
            assert [
                None if p is None else (p.value, p.expires_at) for p in occupants
            ] == ref_slots

            sample = slots.sample()
            ref_sample = list(dict.fromkeys(s for s in ref_slots if s is not None))
            assert [(p.value, p.expires_at) for p in sample] == ref_sample
            counts = reference_links(ref_links, ref_sample)
            assert links.update_from_sample(sample) == counts
            assert [
                (p.value, p.expires_at) for p in links.pseudonym_links()
            ] == ref_links

            held = set(ref_cache)
            held.update(s for s in ref_slots if s is not None)
            held.update(ref_links)
            assert arena.pseudonyms.live == len(held)
