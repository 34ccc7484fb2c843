"""Property-based tests for the Brahms-style sampler slots."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Pseudonym
from repro.privlink import Address
from repro.rng import PSEUDONYM_BITS

from .node_state import make_slots

_VALUE = st.integers(min_value=0, max_value=(1 << PSEUDONYM_BITS) - 1)
_EXPIRY = st.one_of(
    st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
    st.just(math.inf),
)


@st.composite
def pseudonyms(draw):
    value = draw(_VALUE)
    expiry = draw(_EXPIRY)
    return Pseudonym(value=value, address=Address(draw(st.integers(1, 10**6))), expires_at=expiry)


@st.composite
def pseudonym_batches(draw):
    return draw(st.lists(pseudonyms(), min_size=0, max_size=30))


class TestSlotInvariants:
    @given(batch=pseudonym_batches(), seed=st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_each_slot_holds_nearest_value(self, batch, seed):
        """After any batch, each slot holds a pseudonym whose distance to
        the slot reference is minimal among everything offered."""
        slots = make_slots(6, np.random.default_rng(seed))
        slots.offer_batch(batch)
        if not batch:
            assert slots.filled() == 0
            return
        values = np.array([p.value for p in batch], dtype=np.int64)
        for index in range(slots.size):
            entry = slots.entry(index)
            assert entry is not None
            ref = int(slots.references[index])
            best = np.abs(values - ref).min()
            assert abs(entry.value - ref) == best

    @given(batch=pseudonym_batches(), seed=st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_sequential(self, batch, seed):
        batched = make_slots(5, np.random.default_rng(seed))
        sequential = make_slots(5, np.random.default_rng(seed))
        batched.offer_batch(batch)
        for pseudonym in batch:
            sequential.offer(pseudonym)
        for index in range(5):
            assert batched.entry(index) == sequential.entry(index)

    @given(
        batch=pseudonym_batches(),
        seed=st.integers(0, 1000),
        now=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_expire_removes_exactly_expired(self, batch, seed, now):
        slots = make_slots(5, np.random.default_rng(seed))
        slots.offer_batch(batch)
        slots.expire(now)
        for index in range(slots.size):
            entry = slots.entry(index)
            if entry is not None:
                assert not entry.is_expired(now)

    @given(batch=pseudonym_batches(), seed=st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_idempotent_reoffer(self, batch, seed):
        """Re-offering the same batch never changes any slot."""
        slots = make_slots(5, np.random.default_rng(seed))
        slots.offer_batch(batch)
        before = [slots.entry(index) for index in range(slots.size)]
        changed = slots.offer_batch(batch)
        after = [slots.entry(index) for index in range(slots.size)]
        assert changed == 0
        assert before == after

    @given(
        first=pseudonym_batches(),
        second=pseudonym_batches(),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_order_independence_of_final_distance(self, first, second, seed):
        """The final distance per slot is the min over all offers,
        regardless of batch boundaries or ordering."""
        one = make_slots(4, np.random.default_rng(seed))
        two = make_slots(4, np.random.default_rng(seed))
        one.offer_batch(first)
        one.offer_batch(second)
        two.offer_batch(second)
        two.offer_batch(first)
        for index in range(4):
            a, b = one.entry(index), two.entry(index)
            if a is None or b is None:
                assert a is None and b is None
                continue
            ref = int(one.references[index])
            assert abs(a.value - ref) == abs(b.value - ref)
