"""Tests for pseudonyms."""

import math

import pytest

from repro.core import Pseudonym, mint_pseudonym
from repro.errors import PseudonymError
from repro.privlink import Address
from repro.rng import PSEUDONYM_BITS


class TestPseudonym:
    def test_expiry(self):
        pseudonym = Pseudonym(value=5, address=Address(1), expires_at=10.0)
        assert not pseudonym.is_expired(9.99)
        assert pseudonym.is_expired(10.0)
        assert pseudonym.is_expired(11.0)

    def test_never_expires(self):
        pseudonym = Pseudonym(value=5, address=Address(1), expires_at=math.inf)
        assert pseudonym.never_expires
        assert not pseudonym.is_expired(1e18)

    def test_value_range_enforced(self):
        with pytest.raises(PseudonymError):
            Pseudonym(value=-1, address=Address(1), expires_at=1.0)
        with pytest.raises(PseudonymError):
            Pseudonym(value=1 << PSEUDONYM_BITS, address=Address(1), expires_at=1.0)

    def test_equality_by_fields(self):
        a = Pseudonym(value=5, address=Address(1), expires_at=10.0)
        b = Pseudonym(value=5, address=Address(1), expires_at=10.0)
        c = Pseudonym(value=5, address=Address(1), expires_at=20.0)
        assert a == b
        assert a != c

    def test_str(self):
        pseudonym = Pseudonym(value=255, address=Address(1), expires_at=math.inf)
        assert "inf" in str(pseudonym)


class TestMint:
    def test_expiry_set_from_lifetime(self, rng):
        pseudonym = mint_pseudonym(rng, Address(1), now=5.0, lifetime=10.0)
        assert pseudonym.expires_at == 15.0

    def test_infinite_lifetime(self, rng):
        pseudonym = mint_pseudonym(rng, Address(1), now=5.0, lifetime=math.inf)
        assert pseudonym.never_expires

    def test_values_look_random(self, rng):
        values = {mint_pseudonym(rng, Address(i), 0.0, 1.0).value for i in range(100)}
        assert len(values) == 100  # collisions effectively impossible

    def test_invalid_lifetime(self, rng):
        with pytest.raises(PseudonymError):
            mint_pseudonym(rng, Address(1), now=0.0, lifetime=0.0)

    def test_nan_lifetime_rejected(self, rng):
        # A NaN expiry never compares as reached: it would never expire.
        with pytest.raises(PseudonymError):
            mint_pseudonym(rng, Address(1), now=0.0, lifetime=math.nan)
