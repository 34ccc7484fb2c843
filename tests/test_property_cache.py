"""Property-based tests for the pseudonym cache."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Pseudonym
from repro.privlink import Address
from repro.rng import PSEUDONYM_BITS

from .node_state import make_cache

_VALUE = st.integers(min_value=0, max_value=(1 << PSEUDONYM_BITS) - 1)


@st.composite
def pseudonyms(draw):
    return Pseudonym(
        value=draw(_VALUE),
        address=Address(draw(st.integers(1, 10**6))),
        expires_at=draw(st.floats(min_value=0.5, max_value=1000.0, allow_nan=False)),
    )


_BATCHES = st.lists(
    st.tuples(
        st.lists(pseudonyms(), min_size=0, max_size=15),
        st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
    ),
    min_size=1,
    max_size=8,
)


def _check_min_exp(cache):
    """``cache_min_exp`` is a lower bound on the row's expiries.

    ``remove_expired`` returns early on it, so a value above the true
    minimum would let an expired entry survive.
    """
    soonest = min((p.expires_at for p in cache.pseudonyms()), default=math.inf)
    assert cache._arena.cache_min_exp[cache._row] <= soonest


def _check_tail(cache):
    """Every ``cache_ids`` cell past ``cache_len`` is -1."""
    assert (cache._arena.cache_ids[cache._row, len(cache) :] == -1).all()


# Few values and capacities: later-expiring copies of cached values,
# evictions of the soonest entry and full rows all come up.
_COLLIDING = st.builds(
    lambda value, expires_at: Pseudonym(
        value=value, address=Address(value + 1), expires_at=expires_at
    ),
    st.integers(0, 12),
    st.sampled_from([2.0, 4.0, 8.0, 16.0, math.inf]),
)


class TestCacheInvariants:
    @given(capacity=st.integers(1, 30), batches=_BATCHES)
    @settings(max_examples=60, deadline=None)
    def test_capacity_never_exceeded(self, capacity, batches):
        cache = make_cache(capacity)
        for batch, now in batches:
            cache.merge(batch, now=now)
            _check_tail(cache)
            assert len(cache) <= capacity
            _check_min_exp(cache)

    @given(batches=_BATCHES)
    @settings(max_examples=60, deadline=None)
    def test_no_expired_entry_survives_merge(self, batches):
        cache = make_cache(50)
        last_now = 0.0
        for batch, now in batches:
            last_now = max(last_now, now)
            cache.merge(batch, now=last_now)
            _check_tail(cache)
            _check_min_exp(cache)
        for pseudonym in cache.pseudonyms():
            assert not pseudonym.is_expired(last_now)

    @given(batches=_BATCHES, own=_VALUE)
    @settings(max_examples=60, deadline=None)
    def test_own_value_never_cached(self, batches, own):
        cache = make_cache(50)
        for batch, now in batches:
            cache.merge(batch, now=now, own_value=own)
            _check_tail(cache)
            _check_min_exp(cache)
        assert own not in {p.value for p in cache.pseudonyms()}

    @given(batches=_BATCHES)
    @settings(max_examples=60, deadline=None)
    def test_values_unique(self, batches):
        cache = make_cache(50)
        for batch, now in batches:
            cache.merge(batch, now=now)
            _check_tail(cache)
            _check_min_exp(cache)
        values = [p.value for p in cache.pseudonyms()]
        assert len(values) == len(set(values))

    @given(
        capacity=st.integers(1, 5),
        steps=st.lists(
            st.tuples(
                st.sampled_from([0.0, 1.0, 3.0]),
                st.lists(_COLLIDING, max_size=6),
                st.lists(_COLLIDING, max_size=3),
                st.booleans(),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_min_expiry_stays_a_lower_bound(self, capacity, steps):
        """After every merge and remove_expired, on colliding traffic."""
        cache = make_cache(capacity)
        now = 0.0
        for advance, batch, just_sent, expire_first in steps:
            now += advance
            if expire_first:
                cache.remove_expired(now)
                _check_min_exp(cache)
            cache.merge(batch, now=now, just_sent=just_sent, own_value=0)
            _check_tail(cache)
            _check_min_exp(cache)
            assert all(not p.is_expired(now) for p in cache.pseudonyms())

    @given(
        batch=st.lists(pseudonyms(), min_size=1, max_size=20),
        count=st.integers(1, 25),
    )
    @settings(max_examples=60, deadline=None)
    def test_selection_is_subset_without_duplicates(self, batch, count):
        cache = make_cache(50)
        cache.merge(batch, now=0.0)
        _check_tail(cache)
        rng = np.random.default_rng(0)
        selection = cache.select_for_shuffle(rng, count, now=0.0)
        assert len(selection) <= count
        values = [p.value for p in selection]
        assert len(values) == len(set(values))
        cached = {p.value for p in cache.pseudonyms()}
        assert set(values) <= cached
