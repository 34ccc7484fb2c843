"""Tests for churn duration distributions."""

import numpy as np
import pytest

from repro.churn import Exponential, Pareto
from repro.errors import ChurnError


def _samples(dist, rng, count):
    return np.array([dist.sample(rng) for _ in range(count)])


class TestExponential:
    def test_mean_property(self):
        assert Exponential(30.0).mean == 30.0

    def test_sample_mean_converges(self, rng):
        dist = Exponential(10.0)
        samples = _samples(dist, rng, 20000)
        assert samples.mean() == pytest.approx(10.0, rel=0.05)

    def test_samples_positive(self, rng):
        dist = Exponential(5.0)
        assert (_samples(dist, rng, 1000) >= 0).all()

    def test_invalid_mean(self):
        with pytest.raises(ChurnError):
            Exponential(0.0)


class TestPareto:
    def test_mean_converges(self, rng):
        dist = Pareto(10.0, shape=3.0)
        samples = _samples(dist, rng, 50000)
        assert samples.mean() == pytest.approx(10.0, rel=0.15)

    def test_heavy_tail(self, rng):
        exp_samples = _samples(Exponential(10.0), rng, 20000)
        par_samples = _samples(Pareto(10.0, shape=2.0), rng, 20000)
        # Pareto has far larger extreme values at the same mean.
        assert np.percentile(par_samples, 99.9) > np.percentile(exp_samples, 99.9)

    def test_shape_must_exceed_one(self):
        with pytest.raises(ChurnError):
            Pareto(10.0, shape=1.0)

    def test_invalid_mean(self):
        with pytest.raises(ChurnError):
            Pareto(-1.0)
