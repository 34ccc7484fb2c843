"""Tests for the Brahms-style sampler slots."""

import math

import numpy as np
import pytest

from repro.core import ArenaSlots, NodeArena, Pseudonym
from repro.errors import ProtocolError
from repro.privlink import Address

from .node_state import make_slots


def _pseudonym(value, expires_at=1000.0):
    return Pseudonym(value=value, address=Address(value + 1), expires_at=expires_at)


def _offset(ref, delta):
    """A value exactly ``delta`` away from ``ref`` without wrapping."""
    return ref + delta if ref < (1 << 62) else ref - delta


class TestConstruction:
    def test_all_slots_empty_on_start(self, rng):
        slots = make_slots(10, rng)
        assert slots.size == 10
        assert slots.filled() == 0
        assert slots.sample() == []

    def test_zero_slots_allowed(self, rng):
        slots = make_slots(0, rng)
        assert slots.offer(_pseudonym(1)) == 0
        assert slots.sample() == []

    def test_negative_size_rejected(self, rng):
        with pytest.raises(ProtocolError):
            make_slots(-1, rng)

    def test_references_immutable_view(self, rng):
        slots = make_slots(5, rng)
        refs = slots.references
        with pytest.raises(ValueError):
            refs[0] = 0


class TestReplacementRules:
    def test_empty_slot_filled(self, rng):
        slots = make_slots(4, rng)
        changed = slots.offer(_pseudonym(123))
        assert changed == 4  # fills every empty slot
        assert slots.filled() == 4

    def test_closer_value_wins(self, rng):
        slots = make_slots(1, rng)
        ref = int(slots.references[0])
        far = _pseudonym(_offset(ref, 10**9))
        near = _pseudonym(_offset(ref, 5))
        slots.offer(far)
        assert slots.entry(0) == far
        slots.offer(near)
        assert slots.entry(0) == near

    def test_farther_value_loses(self, rng):
        slots = make_slots(1, rng)
        ref = int(slots.references[0])
        near = _pseudonym(_offset(ref, 5))
        far = _pseudonym(_offset(ref, 10**9))
        slots.offer(near)
        slots.offer(far)
        assert slots.entry(0) == near

    def test_equal_distance_later_expiry_wins(self, rng):
        slots = make_slots(1, rng)
        ref = int(slots.references[0])
        value = _offset(ref, 7)
        early = Pseudonym(value=value, address=Address(1), expires_at=10.0)
        late = Pseudonym(value=value, address=Address(2), expires_at=20.0)
        slots.offer(early)
        slots.offer(late)
        assert slots.entry(0) == late

    def test_equal_distance_earlier_expiry_loses(self, rng):
        slots = make_slots(1, rng)
        ref = int(slots.references[0])
        value = _offset(ref, 7)
        late = Pseudonym(value=value, address=Address(2), expires_at=20.0)
        early = Pseudonym(value=value, address=Address(1), expires_at=10.0)
        slots.offer(late)
        slots.offer(early)
        assert slots.entry(0) == late

    def test_batch_equals_sequential(self, rng):
        """Folding a batch must match offering one-by-one."""
        batch_rng = np.random.default_rng(42)
        sequential = make_slots(20, np.random.default_rng(7))
        batched = make_slots(20, np.random.default_rng(7))
        pseudonyms = [
            _pseudonym(int(batch_rng.integers(0, 1 << 62)), expires_at=float(e))
            for e in batch_rng.integers(1, 1000, size=50)
        ]
        for pseudonym in pseudonyms:
            sequential.offer(pseudonym)
        batched.offer_batch(pseudonyms)
        for index in range(20):
            assert sequential.entry(index) == batched.entry(index)

    def test_offer_batch_empty(self, rng):
        slots = make_slots(3, rng)
        assert slots.offer_batch([]) == 0


class TestExpiry:
    def test_expired_entries_cleared(self, rng):
        slots = make_slots(4, rng)
        slots.offer(_pseudonym(5, expires_at=10.0))
        assert slots.filled() == 4
        removed = slots.expire(now=10.0)
        assert removed == 4
        assert slots.filled() == 0

    def test_unexpired_entries_kept(self, rng):
        slots = make_slots(4, rng)
        slots.offer(_pseudonym(5, expires_at=10.0))
        assert slots.expire(now=9.0) == 0
        assert slots.filled() == 4

    def test_slot_refillable_after_expiry(self, rng):
        slots = make_slots(1, rng)
        ref = int(slots.references[0])
        near = _pseudonym(_offset(ref, 1), expires_at=5.0)
        far = _pseudonym(_offset(ref, 10**12), expires_at=1000.0)
        slots.offer(near)
        slots.offer(far)  # rejected: farther
        assert slots.entry(0) == near
        slots.expire(now=6.0)
        slots.offer(far)  # now accepted: slot empty
        assert slots.entry(0) == far

    def test_evict_specific(self, rng):
        slots = make_slots(3, rng)
        entry = _pseudonym(9)
        slots.offer(entry)
        assert slots.evict(entry) == 3
        assert slots.filled() == 0


class TestSamplingProperties:
    def test_sample_deduplicates(self, rng):
        slots = make_slots(8, rng)
        slots.offer(_pseudonym(1))
        assert slots.filled() == 8
        assert len(slots.sample()) == 1

    def test_min_wise_uniformity(self):
        """Each slot keeps a uniform sample of everything offered,
        regardless of offer frequency (the Brahms property): a
        pseudonym offered 50 times wins no more often than one offered
        once, because only the values' distances to the reference
        matter and the values are uniform."""
        wins = 0
        trials = 400
        value_rng = np.random.default_rng(999)
        for trial in range(trials):
            slots = make_slots(1, np.random.default_rng(trial))
            hot = _pseudonym(int(value_rng.integers(0, 1 << 62)))
            cold = _pseudonym(int(value_rng.integers(0, 1 << 62)))
            for _ in range(50):
                slots.offer(hot)  # offered 50x
            slots.offer(cold)  # offered once
            if slots.entry(0) == cold:
                wins += 1
        # The cold pseudonym should win about half the slots.
        assert 0.4 < wins / trials < 0.6

    def test_holds(self, rng):
        slots = make_slots(4, rng)
        entry = _pseudonym(3)
        slots.offer(entry)
        assert slots.holds([entry])
        assert not slots.holds([_pseudonym(4)])

    def test_cached_columns_consistency(self, rng):
        arena = NodeArena(node_chunk=1)
        arena.register_node(0, 10, 0)
        slots = ArenaSlots(arena, 0, 10, rng)
        values = np.random.default_rng(3).integers(0, 1 << 62, size=30)
        slots.offer_batch([_pseudonym(int(value)) for value in values])
        # The cached distances are the occupants' and the soonest-expiry
        # bound holds.
        arena.check_invariants()
        # Offering the same batch again changes nothing.
        assert slots.offer_batch([_pseudonym(int(value)) for value in values]) == 0

    def test_infinite_expiry_supported(self, rng):
        slots = make_slots(2, rng)
        eternal = _pseudonym(5, expires_at=math.inf)
        slots.offer(eternal)
        assert slots.expire(now=1e12) == 0
        assert slots.sample() == [eternal]
