"""Tests for the CYCLON-style pseudonym cache."""

import pytest

from repro.core import Pseudonym
from repro.errors import ProtocolError
from repro.privlink import Address

from .node_state import make_cache


def _pseudonym(value, expires_at=100.0):
    return Pseudonym(value=value, address=Address(value), expires_at=expires_at)


class TestBasics:
    def test_empty_on_start(self):
        cache = make_cache(10)
        assert len(cache) == 0
        assert cache.pseudonyms() == []

    def test_merge_inserts(self):
        cache = make_cache(10)
        inserted = cache.merge([_pseudonym(1), _pseudonym(2)], now=0.0)
        assert inserted == 2
        assert len(cache) == 2

    def test_contains(self):
        cache = make_cache(10)
        entry = _pseudonym(1)
        cache.merge([entry], now=0.0)
        assert entry in cache
        assert _pseudonym(2) not in cache

    def test_own_pseudonym_never_cached(self):
        cache = make_cache(10)
        cache.merge([_pseudonym(7)], now=0.0, own_value=7)
        assert len(cache) == 0

    def test_expired_entries_not_inserted(self):
        cache = make_cache(10)
        cache.merge([_pseudonym(1, expires_at=5.0)], now=6.0)
        assert len(cache) == 0

    def test_duplicate_value_keeps_later_expiry(self):
        cache = make_cache(10)
        cache.merge([_pseudonym(1, expires_at=10.0)], now=0.0)
        cache.merge([_pseudonym(1, expires_at=20.0)], now=0.0)
        assert len(cache) == 1
        assert cache.pseudonyms()[0].expires_at == 20.0

    def test_duplicate_value_ignores_earlier_expiry(self):
        cache = make_cache(10)
        cache.merge([_pseudonym(1, expires_at=20.0)], now=0.0)
        cache.merge([_pseudonym(1, expires_at=10.0)], now=0.0)
        assert cache.pseudonyms()[0].expires_at == 20.0

    def test_invalid_capacity(self):
        with pytest.raises(ProtocolError):
            make_cache(0)


class TestExpiry:
    def test_remove_expired(self):
        cache = make_cache(10)
        cache.merge([_pseudonym(1, 5.0), _pseudonym(2, 50.0)], now=0.0)
        removed = cache.remove_expired(now=10.0)
        assert removed == 1
        assert len(cache) == 1

    def test_remove_specific(self):
        cache = make_cache(10)
        entry = _pseudonym(1)
        cache.merge([entry], now=0.0)
        assert cache.remove(entry)
        assert not cache.remove(entry)


class TestReplacementPolicy:
    def test_capacity_respected(self):
        cache = make_cache(3)
        cache.merge([_pseudonym(value) for value in range(10)], now=0.0)
        assert len(cache) == 3

    def test_just_sent_evicted_first(self):
        cache = make_cache(3)
        first_batch = [_pseudonym(1), _pseudonym(2), _pseudonym(3)]
        cache.merge(first_batch, now=0.0)
        # Entry 2 was just sent to the partner; it should be the victim.
        cache.merge([_pseudonym(4)], now=1.0, just_sent=[_pseudonym(2)])
        values = {entry.value for entry in cache.pseudonyms()}
        assert values == {1, 3, 4}

    def test_oldest_evicted_when_nothing_sent(self):
        cache = make_cache(2)
        cache.merge([_pseudonym(1)], now=0.0)
        cache.merge([_pseudonym(2)], now=1.0)
        cache.merge([_pseudonym(3)], now=2.0)
        values = {entry.value for entry in cache.pseudonyms()}
        assert values == {2, 3}

    def test_expired_dropped_before_eviction(self):
        cache = make_cache(2)
        cache.merge([_pseudonym(1, expires_at=1.0), _pseudonym(2)], now=0.0)
        cache.merge([_pseudonym(3)], now=5.0)
        values = {entry.value for entry in cache.pseudonyms()}
        assert values == {2, 3}


class TestNewest:
    def test_same_instant_inserts_come_newest_first(self):
        cache = make_cache(10)
        cache.merge([_pseudonym(11), _pseudonym(22), _pseudonym(33)], now=0.0)
        assert [entry.value for entry in cache.newest(1, now=0.0)] == [33]
        assert [entry.value for entry in cache.newest(5, now=0.0)] == [33, 22, 11]

    def test_later_insert_is_newest(self):
        cache = make_cache(10)
        cache.merge([_pseudonym(1), _pseudonym(2)], now=0.0)
        cache.merge([_pseudonym(3)], now=1.0)
        assert [entry.value for entry in cache.newest(2, now=1.0)] == [3, 2]


class TestSelectForShuffle:
    def test_respects_count(self, rng):
        cache = make_cache(20)
        cache.merge([_pseudonym(value) for value in range(10)], now=0.0)
        selection = cache.select_for_shuffle(rng, 4, now=0.0)
        assert len(selection) == 4
        assert len({entry.value for entry in selection}) == 4

    def test_returns_all_when_count_exceeds_size(self, rng):
        cache = make_cache(20)
        cache.merge([_pseudonym(value) for value in range(3)], now=0.0)
        selection = cache.select_for_shuffle(rng, 10, now=0.0)
        assert len(selection) == 3

    def test_excludes_expired(self, rng):
        cache = make_cache(20)
        cache.merge([_pseudonym(1, 5.0), _pseudonym(2, 50.0)], now=0.0)
        selection = cache.select_for_shuffle(rng, 10, now=10.0)
        assert [entry.value for entry in selection] == [2]

    def test_selection_varies(self):
        import numpy as np

        cache = make_cache(50)
        cache.merge([_pseudonym(value) for value in range(30)], now=0.0)
        rng = np.random.default_rng(0)
        selections = {
            tuple(sorted(e.value for e in cache.select_for_shuffle(rng, 5, 0.0)))
            for _ in range(20)
        }
        assert len(selections) > 1
