"""Tests for the centralized-directory baseline."""

import pytest

from repro import SystemConfig
from repro.baselines import CentralizedOverlay, DirectoryServer
from repro.errors import ExperimentError
from repro.graphs import SnapshotAnalysis


@pytest.fixture
def config():
    return SystemConfig(
        num_nodes=40,
        availability=0.6,
        mean_offline_time=5.0,
        cache_size=10,
        shuffle_length=4,
        target_degree=8,
        seed=21,
    )


class TestDirectoryServer:
    def test_sample_excludes_asker(self, rng):
        server = DirectoryServer(rng)
        for node in range(10):
            server.register(node)
        peers = server.sample_peers(3, 9)
        assert 3 not in peers
        assert len(peers) == 9

    def test_sample_capped_by_population(self, rng):
        server = DirectoryServer(rng)
        server.register(0)
        server.register(1)
        assert server.sample_peers(0, 10) == [1]

    def test_breach_reveals_everything(self, rng):
        server = DirectoryServer(rng)
        for node in range(5):
            server.register(node)
        server.record_link(0, 1)
        server.record_link(1, 2)
        report = server.breach()
        assert report.identities_exposed == 5
        assert (0, 1) in report.links and (1, 2) in report.links


class TestCentralizedOverlay:
    def test_converges_immediately_without_churn(self, config):
        overlay = CentralizedOverlay.build(config, with_churn=False)
        overlay.start()
        overlay.run_until(1.0)
        snapshot = overlay.snapshot()
        assert SnapshotAnalysis(snapshot).fraction_disconnected() == 0.0
        assert snapshot.degrees().min() >= config.target_degree // 2

    def test_robust_under_churn(self, config):
        overlay = CentralizedOverlay.build(config)
        overlay.start()
        overlay.run_until(30.0)
        snapshot = overlay.snapshot()
        assert SnapshotAnalysis(snapshot).fraction_disconnected() < 0.1

    def test_breach_exposes_whole_group(self, config):
        overlay = CentralizedOverlay.build(config)
        overlay.start()
        overlay.run_until(5.0)
        report = overlay.directory.breach()
        assert report.identities_exposed == config.num_nodes
        assert len(report.links) > 0

    def test_message_accounting(self, config):
        overlay = CentralizedOverlay.build(config, with_churn=False)
        overlay.start()
        overlay.run_until(5.0)
        assert overlay.messages_sent > 0
        assert overlay.directory.queries_served > 0

    def test_double_start_rejected(self, config):
        overlay = CentralizedOverlay.build(config, with_churn=False)
        overlay.start()
        with pytest.raises(ExperimentError):
            overlay.start()

    def test_invalid_refresh_period(self, config):
        with pytest.raises(ExperimentError):
            CentralizedOverlay.build(config, refresh_period=0.0)

    def test_snapshot_full_population(self, config):
        overlay = CentralizedOverlay.build(config)
        overlay.start()
        overlay.run_until(2.0)
        snapshot = overlay.snapshot(online_only=False)
        assert snapshot.number_of_nodes() == config.num_nodes
