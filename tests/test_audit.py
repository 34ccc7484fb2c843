"""Tests for the packaged privacy audit."""

import pytest

from repro.attacks import run_privacy_audit
from repro.errors import ExperimentError

from .csr import graph_from_edges


def _fixture_graph():
    edges = [(0, node) for node in range(1, 10)]
    edges += [(node, node + 1) for node in range(10, 29)]
    edges += [(9, 10), (29, 0)]
    edges += [(node, (node * 7) % 10) for node in range(10, 30, 4)]
    return graph_from_edges(30, edges)


@pytest.fixture(scope="module")
def audit_report():
    from repro import SystemConfig

    graph = _fixture_graph()
    config = SystemConfig(
        num_nodes=30,
        availability=0.6,
        mean_offline_time=5.0,
        cache_size=40,
        shuffle_length=8,
        target_degree=10,
        seed=99,
    )
    return run_privacy_audit(
        graph,
        config,
        warmup=20.0,
        coalition_size=3,
        coalitions=6,
        detection_trials=4,
        seed=7,
    )


class TestPrivacyAudit:
    @pytest.fixture
    def report(self, audit_report):
        return audit_report

    def test_static_exposure_bounded(self, report):
        # A 3-node coalition learns its members' friends, not the group.
        assert 0.0 < report.mean_ids_learned < report.num_nodes / 2
        assert 0.0 <= report.vertex_cut_fraction <= 1.0

    def test_size_estimation_reasonable(self, report):
        assert 0.0 <= report.size_estimate_error < 0.6

    def test_detection_statistics_consistent(self, report):
        assert report.detection_trials > 0
        assert 0 <= report.detections <= report.detection_trials
        assert 0.0 <= report.detection_rate <= 1.0
        assert 0.0 <= report.detection_accuracy <= 1.0

    def test_report_renders(self, report):
        text = report.format_report()
        assert "Privacy audit" in text
        assert "size estimation" in text
        assert "link detection" in text

    def test_validation(self, small_trust_graph, small_config):
        with pytest.raises(ExperimentError):
            run_privacy_audit(
                small_trust_graph, small_config, coalition_size=0
            )
        with pytest.raises(ExperimentError):
            run_privacy_audit(
                small_trust_graph,
                small_config,
                coalition_size=10_000,
            )

    def test_empty_detection_report(self):
        from repro.attacks import AuditReport

        report = AuditReport(
            num_nodes=10,
            coalition_size=2,
            coalitions_tested=1,
            mean_ids_learned=1.0,
            vertex_cut_fraction=0.0,
            size_estimate_error=0.1,
            detection_trials=0,
            detections=0,
            detection_correct=0,
        )
        assert report.detection_rate == 0.0
        assert report.detection_accuracy == 0.0


class TestCrossCommitPins:
    """``repro audit --scale smoke`` printed byte for byte.

    Its coalitions and detection quadruples are rng draws that index
    into the trust graph's node list and neighbour rows, so a change to
    either order moves this text.
    """

    REPORT = (
        "Privacy audit (80 nodes, coalitions of 3)\n"
        "----------------------------------------------------------------\n"
        "1. static exposure (10 random coalitions):\n"
        "     identities learned beyond the coalition: 20.4 on average "
        "(25.5% of the group)\n"
        "     coalitions forming a vertex cut: 0%\n"
        "2. size estimation (III-E4, permitted knowledge):\n"
        "     relative error of the live-pseudonym estimate: 3.8%\n"
        "3. timing-analysis link detection (III-E2):\n"
        "     trials: 6, detections: 0 (0%), correct conclusions: 67%\n"
    )

    def test_smoke_audit_report_is_pinned(self, capsys):
        from repro.cli import main

        assert main(["audit", "--scale", "smoke"]) == 0
        assert capsys.readouterr().out == self.REPORT
