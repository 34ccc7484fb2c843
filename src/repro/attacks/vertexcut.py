"""The vertex-cut flow-control attack (paper Section III-E3).

"When a set of colluding internal observers forms a vertex cut in the
trust graph, then it has the possibility to control the flow of
pseudonyms from one part of the graph to the other.  If this set
maliciously deviates from the protocol and sends only pseudonyms
created by the set, then it can detect the existence of overlay links
between adjacent nodes [...]"

This module *runs* that attack: the coalition installs a shuffle filter
that strips every pseudonym not minted by a coalition member, starving
the two sides of each other's pseudonyms.  The experiment then measures
how thoroughly the coalition controls cross-side connectivity: the
fraction of overlay links between the separated sides that do **not**
pass through the coalition.  With an effective cut that fraction decays
toward zero — every remaining cross-side path is coalition-mediated,
which is exactly the observation power the paper describes.
"""

from __future__ import annotations

import dataclasses
from typing import FrozenSet, List, Sequence, Set, Tuple

from ..core import Overlay
from ..errors import ExperimentError
from .analysis import cut_components, is_vertex_cut

__all__ = ["VertexCutOutcome", "install_flow_control", "measure_flow_control"]


@dataclasses.dataclass(frozen=True)
class VertexCutOutcome:
    """Result of the flow-control measurement."""

    coalition: FrozenSet[int]
    sides: Tuple[FrozenSet[int], ...]
    cross_side_links: int
    coalition_mediated_links: int

    @property
    def uncontrolled_fraction(self) -> float:
        """Cross-side overlay links NOT passing through the coalition.

        0.0 means total flow control: the coalition sits on every path
        between the separated parts.
        """
        total = self.cross_side_links + self.coalition_mediated_links
        if total == 0:
            return 0.0
        return self.cross_side_links / total


def install_flow_control(overlay: Overlay, coalition: Sequence[int]) -> None:
    """Make the coalition deviate: forward only coalition pseudonyms.

    Installs a shuffle filter on every member that drops any pseudonym
    whose (measurement-oracle) owner is outside the coalition.  The
    oracle stands in for the coalition's own bookkeeping — members know
    exactly which pseudonyms they minted.
    """
    members: Set[int] = set(coalition)
    if not members:
        raise ExperimentError("coalition must not be empty")

    def make_filter(member: int):
        def only_coalition(entries):
            return tuple(
                pseudonym
                for pseudonym in entries
                if overlay.owner_of_value(pseudonym.value) in members
            )

        return only_coalition

    for member in members:
        if not 0 <= member < len(overlay.nodes):
            raise ExperimentError(f"no such node {member}")
        overlay.nodes[member].shuffle_filter = make_filter(member)


def measure_flow_control(
    overlay: Overlay, coalition: Sequence[int]
) -> VertexCutOutcome:
    """Measure how much cross-cut connectivity escapes the coalition.

    The trust graph minus the coalition is split into components; every
    current overlay link joining two *different* components (neither
    endpoint in the coalition) counts as uncontrolled, every link with
    a coalition endpoint as mediated.
    """
    members = frozenset(coalition)
    if not is_vertex_cut(overlay.trust_graph, list(members)):
        raise ExperimentError("coalition is not a vertex cut of the trust graph")
    components = cut_components(overlay.trust_graph, list(members))
    side_of = {}
    for index, component in enumerate(components):
        for node in component:
            side_of[node] = index

    snapshot = overlay.snapshot(online_only=False)
    labels = snapshot.node_ids
    cross = 0
    mediated = 0
    for u, v in zip(
        labels[snapshot.edge_u].tolist(), labels[snapshot.edge_v].tolist()
    ):
        u_in = u in members
        v_in = v in members
        if u_in or v_in:
            if u_in != v_in:
                mediated += 1
            continue
        if side_of.get(u) != side_of.get(v):
            cross += 1
    return VertexCutOutcome(
        coalition=members,
        sides=tuple(components),
        cross_side_links=cross,
        coalition_mediated_links=mediated,
    )
