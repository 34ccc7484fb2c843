"""Tests for the vertex-cut flow-control attack (III-E3)."""

import networkx as nx
import pytest

from repro import Overlay, SystemConfig
from repro.attacks import install_flow_control, measure_flow_control
from repro.errors import ExperimentError

from .nx_oracle import to_flat


@pytest.fixture
def barbell_overlay():
    """Two dense clusters joined only through node 10 (a cut vertex)."""
    graph = nx.Graph()
    left = list(range(0, 10))
    right = list(range(11, 21))
    for cluster in (left, right):
        for index, u in enumerate(cluster):
            for v in cluster[index + 1:]:
                if (u + v) % 3 != 0:
                    graph.add_edge(u, v)
        graph.add_edge(cluster[0], cluster[1])  # ensure density
    graph.add_edge(0, 10)
    graph.add_edge(10, 11)
    config = SystemConfig(
        num_nodes=21,
        availability=0.9,
        mean_offline_time=10.0,
        cache_size=30,
        shuffle_length=8,
        target_degree=16,
        seed=5,
    )
    return Overlay.build(to_flat(graph), config, with_churn=False), [10]


class TestFlowControl:
    def test_honest_run_has_cross_side_links(self, barbell_overlay):
        overlay, coalition = barbell_overlay
        overlay.start()
        overlay.run_until(26.0)
        outcome = measure_flow_control(overlay, coalition)
        assert len(outcome.sides) == 2
        assert outcome.cross_side_links > 0
        assert outcome.uncontrolled_fraction > 0.3

    def test_deviating_cut_controls_flow(self, barbell_overlay):
        overlay, coalition = barbell_overlay
        install_flow_control(overlay, coalition)
        overlay.start()
        overlay.run_until(26.0)
        outcome = measure_flow_control(overlay, coalition)
        # The two sides learn only coalition pseudonyms, so essentially
        # no overlay link crosses the cut without the coalition.
        assert outcome.uncontrolled_fraction < 0.05

    def test_filter_strips_foreign_pseudonyms(self, barbell_overlay):
        overlay, coalition = barbell_overlay
        install_flow_control(overlay, coalition)
        overlay.start()
        overlay.run_until(10.0)
        member = overlay.nodes[coalition[0]]
        entries = member._build_shuffle_set(overlay.sim.now)
        owners = {overlay.owner_of_value(entry.value) for entry in entries}
        assert owners <= set(coalition)

    def test_non_cut_coalition_rejected(self, barbell_overlay):
        overlay, _ = barbell_overlay
        overlay.start()
        overlay.run_until(2.0)
        # Node 5 is interior to the left cluster, not on the bridge.
        with pytest.raises(ExperimentError):
            measure_flow_control(overlay, [5])

    def test_empty_coalition_rejected(self, barbell_overlay):
        overlay, _ = barbell_overlay
        with pytest.raises(ExperimentError):
            install_flow_control(overlay, [])

    def test_unknown_member_rejected(self, barbell_overlay):
        overlay, _ = barbell_overlay
        with pytest.raises(ExperimentError):
            install_flow_control(overlay, [999])
