"""Tests for repro.config.SystemConfig."""

import math

import pytest

from repro.config import INFINITE_LIFETIME, SystemConfig
from repro.errors import ConfigError


class TestDefaults:
    def test_table1_defaults(self):
        config = SystemConfig()
        assert config.num_nodes == 1000
        assert config.sampling_f == 0.5
        assert config.mean_offline_time == 30.0
        assert config.lifetime_ratio == 3.0
        assert config.cache_size == 400
        assert config.shuffle_length == 40
        assert config.target_degree == 50

    def test_pseudonym_lifetime_is_ratio_times_toff(self):
        config = SystemConfig()
        assert config.pseudonym_lifetime == pytest.approx(90.0)

    def test_infinite_lifetime(self):
        config = SystemConfig(lifetime_ratio=INFINITE_LIFETIME)
        assert math.isinf(config.pseudonym_lifetime)

    def test_mean_online_time_from_availability(self):
        config = SystemConfig(availability=0.5, mean_offline_time=30.0)
        assert config.mean_online_time == pytest.approx(30.0)
        config = SystemConfig(availability=0.25, mean_offline_time=30.0)
        assert config.mean_online_time == pytest.approx(10.0)

    def test_availability_identity(self):
        config = SystemConfig(availability=0.37)
        ton = config.mean_online_time
        toff = config.mean_offline_time
        assert ton / (ton + toff) == pytest.approx(0.37)

    def test_paper_defaults_helper(self):
        config = SystemConfig.paper_defaults(availability=0.25)
        assert config.availability == 0.25
        assert config.num_nodes == 1000

    def test_replace_returns_modified_copy(self):
        config = SystemConfig()
        other = config.replace(num_nodes=100)
        assert other.num_nodes == 100
        assert config.num_nodes == 1000


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_nodes": 1},
            {"sampling_f": -0.1},
            {"sampling_f": 1.1},
            {"mean_offline_time": 0},
            {"lifetime_ratio": 0},
            {"cache_size": 0},
            {"shuffle_length": 0},
            {"target_degree": 0},
            {"min_pseudonym_links": -1},
            {"availability": 0.0},
            {"availability": 1.0},
            {"message_latency": -0.1},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SystemConfig(**kwargs)

    @pytest.mark.parametrize(
        "field", ["mean_offline_time", "lifetime_ratio", "message_latency"]
    )
    def test_nan_rejected(self, field):
        # NaN passes every "x <= 0" check; it is no duration.
        with pytest.raises(ConfigError):
            SystemConfig(**{field: math.nan})

    def test_frozen(self):
        config = SystemConfig()
        with pytest.raises(Exception):
            config.num_nodes = 5  # type: ignore[misc]
