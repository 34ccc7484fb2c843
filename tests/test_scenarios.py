"""Tests for experiment scales and input construction."""

import dataclasses
import math

import pytest

from repro.graphs import SnapshotAnalysis
from repro.experiments import (
    PAPER,
    QUICK,
    SMOKE,
    clear_graph_cache,
    lifetime_label,
    make_config,
    make_trust_graph,
    scale_from_env,
)


class TestScales:
    def test_paper_scale_matches_table1(self):
        assert PAPER.num_nodes == 1000
        assert PAPER.mean_offline_time == 30.0
        assert PAPER.cache_size == 400
        assert PAPER.shuffle_length == 40
        assert PAPER.target_degree == 50

    def test_quick_scale_keeps_paper_toff(self):
        # Session dynamics are measured in shuffling periods; quick scale
        # must not distort them.
        assert QUICK.mean_offline_time == PAPER.mean_offline_time

    def test_total_horizon(self):
        assert SMOKE.total_horizon == (
            SMOKE.stabilization_horizon + SMOKE.measure_window
        )


class TestScaleFromEnv:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert scale_from_env() is QUICK

    def test_repro_full(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert scale_from_env() is PAPER

    def test_repro_scale_name(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert scale_from_env() is SMOKE

    def test_unknown_name_falls_back(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        assert scale_from_env() is QUICK


class TestMakeConfig:
    def test_fields_propagated(self):
        config = make_config(SMOKE, alpha=0.25, f=1.0, lifetime_ratio=9.0, seed=5)
        assert config.num_nodes == SMOKE.num_nodes
        assert config.availability == 0.25
        assert config.sampling_f == 1.0
        assert config.lifetime_ratio == 9.0
        assert config.seed == 5
        assert config.cache_size == SMOKE.cache_size


class TestMakeTrustGraph:
    def test_size_and_connectivity(self):
        graph = make_trust_graph(SMOKE, f=0.5, seed=1)
        assert graph.number_of_nodes() == SMOKE.num_nodes
        assert SnapshotAnalysis(graph).component_count() == 1

    def test_memoized(self):
        a = make_trust_graph(SMOKE, f=0.5, seed=1)
        b = make_trust_graph(SMOKE, f=0.5, seed=1)
        assert a is b

    def test_different_f_different_graph(self):
        a = make_trust_graph(SMOKE, f=0.5, seed=1)
        b = make_trust_graph(SMOKE, f=1.0, seed=1)
        assert a is not b
        assert b.number_of_edges() > a.number_of_edges()

    @pytest.mark.parametrize(
        "changes", [{"num_nodes": 40}, {"source_multiplier": 3}]
    )
    def test_memo_keyed_on_graph_shape_not_name(self, changes):
        # A replaced scale keeps SMOKE's name (which seeds the substreams)
        # but asks for another graph; the memo must not hand back SMOKE's.
        a = make_trust_graph(SMOKE, f=0.5, seed=1)
        resized = dataclasses.replace(SMOKE, **changes)
        b = make_trust_graph(resized, f=0.5, seed=1)
        assert b is not a
        assert b.number_of_nodes() == resized.num_nodes
        assert make_trust_graph(resized, f=0.5, seed=1) is b
        assert make_trust_graph(SMOKE, f=0.5, seed=1) is a

    def test_cache_clear(self):
        a = make_trust_graph(SMOKE, f=0.5, seed=1)
        clear_graph_cache()
        b = make_trust_graph(SMOKE, f=0.5, seed=1)
        assert a is not b
        # Still deterministic.
        assert a.edge_u.tolist() == b.edge_u.tolist()
        assert a.edge_v.tolist() == b.edge_v.tolist()


class TestLifetimeLabel:
    def test_finite(self):
        assert lifetime_label(3.0) == "3"
        assert lifetime_label(1.5) == "1.5"

    def test_infinite(self):
        assert lifetime_label(math.inf) == "Infinite"
