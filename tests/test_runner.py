"""Tests for the experiment runner."""

import networkx as nx
import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    SMOKE,
    make_config,
    make_trust_graph,
    random_baseline_graph,
    run_overlay_experiment,
    static_churn_metrics,
)

from . import nx_oracle
from .nx_oracle import assert_same_graph, to_flat


@pytest.fixture(scope="module")
def smoke_inputs():
    graph = make_trust_graph(SMOKE, f=0.5, seed=1)
    config = make_config(SMOKE, alpha=0.5, f=0.5, seed=1)
    return graph, config


class TestRunOverlayExperiment:
    def test_basic_run(self, smoke_inputs):
        graph, config = smoke_inputs
        result = run_overlay_experiment(
            graph, config, horizon=20.0, measure_window=10.0
        )
        assert 0.0 <= result.disconnected <= 1.0
        assert 0.0 <= result.trust_disconnected <= 1.0
        assert result.full_edge_count > graph.number_of_edges() // 2
        assert result.snapshot.number_of_nodes() == len(result.overlay.online_ids())

    def test_snapshots_match_networkx_reference(self, smoke_inputs):
        """The run's snapshots are the overlay's, built link by link."""
        graph, config = smoke_inputs
        result = run_overlay_experiment(
            graph, config, horizon=20.0, measure_window=10.0
        )
        overlay = result.overlay
        assert_same_graph(result.snapshot, nx_oracle.overlay_snapshot(overlay))
        assert_same_graph(result.trust_snapshot, nx_oracle.trust_snapshot(overlay))
        full = nx_oracle.overlay_snapshot(overlay, online_only=False)
        assert result.full_edge_count == full.number_of_edges()

    def test_overlay_beats_trust_baseline(self, smoke_inputs):
        graph, config = smoke_inputs
        result = run_overlay_experiment(
            graph, config, horizon=40.0, measure_window=15.0
        )
        assert result.disconnected <= result.trust_disconnected

    def test_path_lengths_reported_when_enabled(self, smoke_inputs):
        graph, config = smoke_inputs
        result = run_overlay_experiment(
            graph,
            config,
            horizon=20.0,
            measure_window=10.0,
            path_length_every=5,
            path_sources=8,
        )
        assert result.path_length is not None
        assert result.trust_path_length is not None
        assert result.path_length > 0

    def test_path_lengths_none_by_default(self, smoke_inputs):
        graph, config = smoke_inputs
        result = run_overlay_experiment(
            graph, config, horizon=10.0, measure_window=5.0
        )
        assert result.path_length is None

    def test_invalid_measure_window(self, smoke_inputs):
        graph, config = smoke_inputs
        with pytest.raises(ExperimentError):
            run_overlay_experiment(graph, config, horizon=10.0, measure_window=0.0)
        with pytest.raises(ExperimentError):
            run_overlay_experiment(graph, config, horizon=10.0, measure_window=20.0)

    def test_without_churn(self, smoke_inputs):
        graph, config = smoke_inputs
        result = run_overlay_experiment(
            graph, config, horizon=15.0, measure_window=5.0, with_churn=False
        )
        assert result.online_fraction == 1.0
        assert result.disconnected == 0.0

    def test_build_options_reach_the_overlay(self, smoke_inputs):
        """Churn specs and a link-layer factory go to ``Overlay.build``,
        and the run equals that overlay driven by hand."""
        from repro.churn import homogeneous_specs
        from repro.core import Overlay
        from repro.metrics import MetricsCollector
        from repro.privlink import make_ideal_link_layer

        graph, config = smoke_inputs
        specs = homogeneous_specs(config.num_nodes, 0.8, config.mean_offline_time)
        layers = []

        def factory(sim, rng):
            layers.append(make_ideal_link_layer(sim, rng, loss_rate=0.2))
            return layers[-1]

        options = {"churn_specs": specs, "link_layer_factory": factory}
        result = run_overlay_experiment(
            graph, config, horizon=20.0, measure_window=10.0, **options
        )
        assert result.overlay.link_layer is layers[0]
        assert result.overlay.link_layer.anonymity.loss.dropped > 0

        overlay = Overlay.build(graph, config, **options)
        collector = MetricsCollector(overlay)
        overlay.start()
        collector.start()
        overlay.run_until(20.0)
        assert result.disconnected == collector.disconnected.tail_mean(0.5)
        assert result.trust_disconnected == collector.trust_disconnected.tail_mean(0.5)
        assert result.online_fraction == len(overlay.online_ids()) / config.num_nodes
        assert result.online_fraction > 0.6


class TestStaticChurnMetrics:
    def test_full_availability_connected(self, smoke_inputs, rng):
        graph, _ = smoke_inputs
        metrics = static_churn_metrics(graph, alpha=0.99, draws=3, rng=rng)
        assert metrics.disconnected < 0.05

    def test_low_availability_partitioned(self, smoke_inputs, rng):
        graph, _ = smoke_inputs
        high = static_churn_metrics(graph, alpha=0.9, draws=3, rng=rng)
        low = static_churn_metrics(graph, alpha=0.2, draws=3, rng=rng)
        assert low.disconnected > high.disconnected

    def test_paths_skippable(self, smoke_inputs, rng):
        graph, _ = smoke_inputs
        metrics = static_churn_metrics(
            graph, alpha=0.5, draws=2, rng=rng, measure_paths=False
        )
        assert metrics.path_length == 0.0

    def test_invalid_draws(self, smoke_inputs, rng):
        graph, _ = smoke_inputs
        with pytest.raises(ExperimentError):
            static_churn_metrics(graph, alpha=0.5, draws=0, rng=rng)

    def test_mean_online_degree(self, rng):
        graph = to_flat(nx.complete_graph(20))
        metrics = static_churn_metrics(graph, alpha=0.99, draws=2, rng=rng)
        assert metrics.mean_online_degree > 15


class TestRandomBaseline:
    def test_matches_overlay_edges(self, smoke_inputs, rng):
        graph, config = smoke_inputs
        result = run_overlay_experiment(
            graph, config, horizon=15.0, measure_window=5.0
        )
        baseline = random_baseline_graph(result, rng)
        assert baseline.number_of_nodes() == config.num_nodes
        assert baseline.number_of_edges() == result.full_edge_count
