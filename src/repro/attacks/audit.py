"""A packaged privacy audit: run the Section III-E threat suite.

:func:`run_privacy_audit` builds a live overlay over a trust graph and
executes the full attack battery against it:

1. **Static coalition exposure** — random coalitions of a given size:
   how many identities they learn, how often they form vertex cuts.
2. **Size estimation** (III-E4) — accuracy of the coalition's
   live-pseudonym population estimate.
3. **Timing-analysis link detection** (III-E2) — precision of the
   marked-pseudonym attack over sampled observer/target quadruples.

The result is an :class:`AuditReport` suitable for printing — the kind
of artifact a group deploying the system would want before trusting it.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..config import SystemConfig
from ..core import Overlay
from ..errors import ExperimentError
from ..graphs import FlatSnapshot
from .analysis import coalition_exposure
from .link_detection import run_link_detection_trials
from .observers import ObserverCoalition
from .size_estimation import estimate_overlay_size

__all__ = ["AuditReport", "run_privacy_audit"]


@dataclasses.dataclass(frozen=True)
class AuditReport:
    """Aggregate outcome of a privacy audit."""

    num_nodes: int
    coalition_size: int
    coalitions_tested: int
    mean_ids_learned: float
    vertex_cut_fraction: float
    size_estimate_error: float
    detection_trials: int
    detections: int
    detection_correct: int

    @property
    def detection_rate(self) -> float:
        """Fraction of trials in which the coalition claimed a link."""
        if self.detection_trials == 0:
            return 0.0
        return self.detections / self.detection_trials

    @property
    def detection_accuracy(self) -> float:
        """Fraction of trials whose conclusion matched ground truth."""
        if self.detection_trials == 0:
            return 0.0
        return self.detection_correct / self.detection_trials

    def format_report(self) -> str:
        lines = [
            f"Privacy audit ({self.num_nodes} nodes, coalitions of "
            f"{self.coalition_size})",
            "-" * 64,
            "1. static exposure "
            f"({self.coalitions_tested} random coalitions):",
            f"     identities learned beyond the coalition: "
            f"{self.mean_ids_learned:.1f} on average "
            f"({self.mean_ids_learned / max(1, self.num_nodes):.1%} of the group)",
            f"     coalitions forming a vertex cut: "
            f"{self.vertex_cut_fraction:.0%}",
            "2. size estimation (III-E4, permitted knowledge):",
            f"     relative error of the live-pseudonym estimate: "
            f"{self.size_estimate_error:.1%}",
            "3. timing-analysis link detection (III-E2):",
            f"     trials: {self.detection_trials}, detections: "
            f"{self.detections} ({self.detection_rate:.0%}), correct "
            f"conclusions: {self.detection_accuracy:.0%}",
        ]
        return "\n".join(lines)


def _sample_coalitions(
    trust_graph: FlatSnapshot,
    size: int,
    count: int,
    rng: np.random.Generator,
) -> List[List[int]]:
    nodes = trust_graph.node_ids
    if size > len(nodes):
        raise ExperimentError("coalition size exceeds population")
    return [
        nodes[rng.choice(len(nodes), size=size, replace=False)].tolist()
        for _ in range(count)
    ]


def _sample_detection_quadruples(
    overlay: Overlay,
    count: int,
    rng: np.random.Generator,
) -> List[Tuple[int, int, int, int]]:
    """(observer_n, target_a, observer_o, target_b) with trust edges."""
    graph = overlay.trust_graph
    nodes = graph.node_ids[graph.degrees() >= 1].tolist()
    quadruples: List[Tuple[int, int, int, int]] = []
    attempts = 0
    while len(quadruples) < count and attempts < 50 * count:
        attempts += 1
        observer_n = nodes[int(rng.integers(0, len(nodes)))]
        observer_o = nodes[int(rng.integers(0, len(nodes)))]
        neighbors_n = graph.neighbors(observer_n)
        neighbors_o = graph.neighbors(observer_o)
        if not neighbors_n or not neighbors_o:
            continue
        target_a = neighbors_n[int(rng.integers(0, len(neighbors_n)))]
        target_b = neighbors_o[int(rng.integers(0, len(neighbors_o)))]
        if len({observer_n, target_a, observer_o, target_b}) < 4:
            continue
        quadruples.append((observer_n, target_a, observer_o, target_b))
    return quadruples


def run_privacy_audit(
    trust_graph: FlatSnapshot,
    config: SystemConfig,
    warmup: float = 40.0,
    coalition_size: int = 3,
    coalitions: int = 10,
    detection_trials: int = 6,
    detection_window: float = 4.0,
    seed: Optional[int] = None,
) -> AuditReport:
    """Run the full Section III-E attack battery against a live system."""
    if coalition_size < 1 or coalitions < 1:
        raise ExperimentError("coalition_size and coalitions must be >= 1")
    rng = np.random.default_rng(seed if seed is not None else config.seed)

    # 1. Static exposure over random coalitions.
    learned: List[float] = []
    cuts = 0
    for members in _sample_coalitions(trust_graph, coalition_size, coalitions, rng):
        exposure = coalition_exposure(trust_graph, members)
        learned.append(exposure.id_disclosure_fraction)
        if exposure.forms_vertex_cut:
            cuts += 1

    # 2 + 3. Dynamic attacks against a live overlay.
    overlay = Overlay.build(trust_graph, config, with_churn=False)
    observer_members = list(range(min(coalition_size, config.num_nodes)))
    coalition = ObserverCoalition(overlay, observer_members)
    coalition.install()
    overlay.start()
    overlay.run_until(warmup)
    estimate = estimate_overlay_size(overlay, coalition, window=warmup)

    quadruples = _sample_detection_quadruples(overlay, detection_trials, rng)
    outcomes = run_link_detection_trials(
        overlay, quadruples, detection_window=detection_window
    )

    return AuditReport(
        num_nodes=config.num_nodes,
        coalition_size=coalition_size,
        coalitions_tested=coalitions,
        mean_ids_learned=float(np.mean(learned)) if learned else 0.0,
        vertex_cut_fraction=cuts / coalitions,
        size_estimate_error=estimate.relative_error,
        detection_trials=len(outcomes),
        detections=sum(outcome.detected_via_b for outcome in outcomes),
        detection_correct=sum(outcome.correct for outcome in outcomes),
    )
