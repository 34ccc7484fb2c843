"""Tests for availability math and static online sampling."""

import pytest

from repro.churn import (
    availability,
    mean_online_for,
    stationary_online_mask,
)
from repro.errors import ChurnError


class TestAvailabilityMath:
    def test_basic_formula(self):
        assert availability(10.0, 30.0) == pytest.approx(0.25)

    def test_roundtrip(self):
        ton = mean_online_for(0.4, 30.0)
        assert availability(ton, 30.0) == pytest.approx(0.4)

    def test_invalid_durations(self):
        with pytest.raises(ChurnError):
            availability(0.0, 1.0)
        with pytest.raises(ChurnError):
            availability(1.0, -1.0)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_invalid_alpha(self, alpha):
        with pytest.raises(ChurnError):
            mean_online_for(alpha, 30.0)


class TestStationaryMask:
    def test_fraction(self, rng):
        mask = stationary_online_mask(10000, 0.3, rng)
        assert mask.mean() == pytest.approx(0.3, abs=0.02)

    def test_alpha_one_all_online(self, rng):
        mask = stationary_online_mask(100, 1.0, rng)
        assert mask.all()

    def test_invalid_alpha(self, rng):
        with pytest.raises(ChurnError):
            stationary_online_mask(10, 0.0, rng)

