"""Static privacy analysis of colluding internal observers.

Section III-E reasons about what a set of colluding participants can
learn from its *position in the trust graph*:

* a single non-cut-vertex node learns essentially nothing beyond its
  own edges (III-E1);
* a colluding set that is **not** a vertex cut cannot control
  pseudonym flow (III-E2);
* a colluding set that **is** a vertex cut can partition pseudonym
  flow and run stronger attacks — in the extreme, if one side of the
  cut contains exactly two nodes a and b, the coalition knows any
  a-b overlay connectivity must be a trust edge (III-E3).

These are graph-theoretic statements, so this module answers them with
graph algorithms over the trust graph (a
:class:`~repro.graphs.FlatSnapshot`), no simulation required.
"""

from __future__ import annotations

import dataclasses
from typing import FrozenSet, List, Sequence, Set, Tuple

import numpy as np

from ..errors import ExperimentError
from ..graphs.fastgraph import FlatSnapshot, SnapshotAnalysis

__all__ = ["CoalitionExposure", "is_vertex_cut", "cut_components", "coalition_exposure"]


def _remainder_analysis(
    trust_graph: FlatSnapshot, members: Set[int]
) -> SnapshotAnalysis:
    """One labeling of the trust graph minus the coalition."""
    keep = np.array(
        [label not in members for label in trust_graph.node_ids.tolist()],
        dtype=bool,
    )
    return SnapshotAnalysis(trust_graph.induced(keep))


def _forms_cut(remainder: SnapshotAnalysis) -> bool:
    return remainder.snapshot.number_of_nodes() > 1 and remainder.component_count() != 1


def _component_sets(remainder: SnapshotAnalysis) -> List[FrozenSet[int]]:
    return [
        frozenset(int(label) for label in component.tolist())
        for component in remainder.components()
    ]


def is_vertex_cut(trust_graph: FlatSnapshot, coalition: Sequence[int]) -> bool:
    """Whether removing ``coalition`` disconnects the trust graph.

    A coalition that covers all nodes trivially "disconnects" the rest;
    by convention that returns True only if at least two non-coalition
    nodes remain separated, else False.
    """
    return _forms_cut(_remainder_analysis(trust_graph, set(coalition)))


def cut_components(
    trust_graph: FlatSnapshot, coalition: Sequence[int]
) -> List[FrozenSet[int]]:
    """Connected components of the trust graph minus the coalition,
    ordered by smallest member."""
    return _component_sets(_remainder_analysis(trust_graph, set(coalition)))


@dataclasses.dataclass(frozen=True)
class CoalitionExposure:
    """What a coalition's graph position lets it do.

    Attributes
    ----------
    coalition:
        The colluding node set.
    known_ids:
        Real node IDs the coalition knows: its members plus all their
        trust neighbors (the only IDs the protocol ever discloses).
    forms_vertex_cut:
        Whether the coalition can partition pseudonym flow.
    isolated_pairs:
        Cut components of size exactly two whose two members are
        adjacent in the trust graph — the III-E3 worst case where the
        coalition learns a trust edge with certainty.
    probe_targets:
        Pairs of distinct coalition-adjacent nodes the coalition could
        subject to the timing-analysis link-detection attack.
    """

    coalition: FrozenSet[int]
    known_ids: FrozenSet[int]
    forms_vertex_cut: bool
    isolated_pairs: Tuple[Tuple[int, int], ...]
    probe_targets: Tuple[Tuple[int, int], ...]

    @property
    def id_disclosure_fraction(self) -> float:
        """Known IDs net of the coalition itself, as a count."""
        return float(len(self.known_ids - self.coalition))


def coalition_exposure(
    trust_graph: FlatSnapshot,
    coalition: Sequence[int],
    max_probe_targets: int = 1000,
) -> CoalitionExposure:
    """Full static analysis of one coalition."""
    members = frozenset(coalition)
    if not members:
        raise ExperimentError("coalition must not be empty")
    labels = set(trust_graph.node_ids.tolist())
    unknown = [node for node in members if node not in labels]
    if unknown:
        raise ExperimentError(f"coalition nodes not in trust graph: {unknown}")

    known: Set[int] = set(members)
    adjacent: Set[int] = set()
    for member in members:
        for neighbor in trust_graph.neighbors(member):
            known.add(neighbor)
            if neighbor not in members:
                adjacent.add(neighbor)

    # One remainder labeling answers both the cut question and the
    # component enumeration.
    remainder = _remainder_analysis(trust_graph, set(members))
    forms_cut = _forms_cut(remainder)
    isolated: List[Tuple[int, int]] = []
    if forms_cut:
        for component in _component_sets(remainder):
            if len(component) == 2:
                a, b = sorted(component)
                if trust_graph.has_edge(a, b):
                    isolated.append((a, b))

    probes: List[Tuple[int, int]] = []
    adjacent_sorted = sorted(adjacent)
    for index, a in enumerate(adjacent_sorted):
        for b in adjacent_sorted[index + 1:]:
            probes.append((a, b))
            if len(probes) >= max_probe_targets:
                break
        if len(probes) >= max_probe_targets:
            break

    return CoalitionExposure(
        coalition=members,
        known_ids=frozenset(known),
        forms_vertex_cut=forms_cut,
        isolated_pairs=tuple(isolated),
        probe_targets=tuple(probes),
    )
