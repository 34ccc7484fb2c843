"""Property-based tests for simulator ordering, churn math, graph
metrics, and the f-sampler."""

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.churn import availability, mean_online_for
from repro.graphs import SnapshotAnalysis, erdos_renyi_gnm, sample_trust_graph
from repro.sim import Simulator

from .csr import from_networkx
from .nx_oracle import analyze


class TestSimulatorProperties:
    @given(times=st.lists(st.floats(0.0, 100.0, allow_nan=False), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_events_fire_sorted(self, times):
        sim = Simulator()
        fired = []
        for time in times:
            sim.schedule(time, lambda t=time: fired.append(t))
        sim.run_until(101.0)
        assert fired == sorted(fired)
        assert len(fired) == len(times)

    @given(
        times=st.lists(st.floats(0.0, 100.0, allow_nan=False), max_size=30),
        horizon=st.floats(0.0, 100.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_horizon_respected(self, times, horizon):
        sim = Simulator()
        fired = []
        for time in times:
            sim.schedule(time, lambda t=time: fired.append(t))
        sim.run_until(horizon)
        assert all(time <= horizon for time in fired)
        assert sim.now == horizon


class TestChurnMath:
    @given(
        alpha=st.floats(0.01, 0.99),
        toff=st.floats(0.1, 1000.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_availability_roundtrip(self, alpha, toff):
        ton = mean_online_for(alpha, toff)
        assert abs(availability(ton, toff) - alpha) < 1e-9


class TestGraphMetricProperties:
    @given(
        num_nodes=st.integers(2, 40),
        num_edges=st.integers(0, 60),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=60, deadline=None)
    def test_disconnected_fraction_bounds(self, num_nodes, num_edges, seed):
        max_edges = num_nodes * (num_nodes - 1) // 2
        graph = erdos_renyi_gnm(
            num_nodes, min(num_edges, max_edges), rng=np.random.default_rng(seed)
        )
        fraction = SnapshotAnalysis(graph).fraction_disconnected()
        assert 0.0 <= fraction <= 1.0 - 1.0 / num_nodes

    @given(num_nodes=st.integers(2, 25), seed=st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_normalized_path_length_positive(self, num_nodes, seed):
        graph = nx.path_graph(num_nodes)
        value = analyze(graph).normalized_path_length(total_nodes=num_nodes)
        assert value > 0


class TestSamplerProperties:
    @given(
        f=st.floats(0.0, 1.0),
        target=st.integers(5, 60),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=30, deadline=None)
    def test_sample_always_connected_and_sized(self, f, target, seed):
        source = from_networkx(nx.barabasi_albert_graph(200, 4, seed=7))
        sample = sample_trust_graph(
            source, target, f=f, rng=np.random.default_rng(seed)
        )
        assert sample.number_of_nodes() == target
        assert SnapshotAnalysis(sample).component_count() == 1
