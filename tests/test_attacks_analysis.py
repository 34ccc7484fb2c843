"""Tests for the static coalition analysis."""

import pytest

from repro.attacks import (
    coalition_exposure,
    cut_components,
    is_vertex_cut,
)
from repro.errors import ExperimentError

from .csr import graph_from_edges


@pytest.fixture
def barbell():
    """Two triangles joined through node 3 (a cut vertex)."""
    return graph_from_edges(
        7,
        [(0, 1), (1, 2), (2, 0)]  # left triangle
        + [(4, 5), (5, 6), (6, 4)]  # right triangle
        + [(2, 3), (3, 4)],  # bridge through 3
    )


def path(num_nodes):
    return graph_from_edges(num_nodes, [(u, u + 1) for u in range(num_nodes - 1)])


class TestVertexCut:
    def test_cut_vertex_detected(self, barbell):
        assert is_vertex_cut(barbell, [3])

    def test_non_cut_vertex(self, barbell):
        assert not is_vertex_cut(barbell, [0])

    def test_cut_components(self, barbell):
        components = cut_components(barbell, [3])
        assert len(components) == 2
        sizes = sorted(len(component) for component in components)
        assert sizes == [3, 3]

    def test_whole_graph_coalition_not_a_cut(self, barbell):
        assert not is_vertex_cut(barbell, barbell.node_ids.tolist())

    def test_cut_set_of_two(self):
        graph = path(5)  # 0-1-2-3-4
        assert is_vertex_cut(graph, [2])
        assert is_vertex_cut(graph, [1, 3])
        assert not is_vertex_cut(graph, [0, 4])


class TestCoalitionExposure:
    def test_known_ids_are_members_plus_neighbors(self, barbell):
        exposure = coalition_exposure(barbell, [0])
        assert exposure.known_ids == frozenset({0, 1, 2})

    def test_vertex_cut_flag(self, barbell):
        assert coalition_exposure(barbell, [3]).forms_vertex_cut
        assert not coalition_exposure(barbell, [1]).forms_vertex_cut

    def test_isolated_pair_detected(self):
        # Coalition {2} separates the trust-edge pair (0, 1).
        graph = graph_from_edges(
            6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 3)]
        )
        exposure = coalition_exposure(graph, [2])
        assert exposure.forms_vertex_cut
        assert (0, 1) in exposure.isolated_pairs

    def test_no_isolated_pairs_without_cut(self, barbell):
        exposure = coalition_exposure(barbell, [0])
        assert exposure.isolated_pairs == ()

    def test_probe_targets_are_adjacent_non_members(self, barbell):
        exposure = coalition_exposure(barbell, [3])
        # 3's neighbors are 2 and 4; the only probe pair is (2, 4).
        assert exposure.probe_targets == ((2, 4),)

    def test_probe_target_cap(self):
        graph = graph_from_edges(21, [(0, leaf) for leaf in range(1, 21)])
        exposure = coalition_exposure(graph, [0], max_probe_targets=5)
        assert len(exposure.probe_targets) == 5

    def test_empty_coalition_rejected(self, barbell):
        with pytest.raises(ExperimentError):
            coalition_exposure(barbell, [])

    def test_unknown_member_rejected(self, barbell):
        with pytest.raises(ExperimentError):
            coalition_exposure(barbell, [99])
        # -1 must not wrap around to the last node's row.
        with pytest.raises(ExperimentError):
            coalition_exposure(barbell, [-1])

    def test_id_disclosure_counts_non_members(self, barbell):
        exposure = coalition_exposure(barbell, [0, 1])
        assert exposure.id_disclosure_fraction == 1.0  # only node 2 learned
