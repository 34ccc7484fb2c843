"""Structural robustness analysis beyond the paper's churn metrics.

The paper's related-work section highlights the "celebrity attack":
compromising (or losing) a hub of the social graph devastates a
trust-graph overlay, and MCONs introduce degree caps specifically to
resist it.  The rewired overlay resists it by construction — its degree
distribution is near-uniform — and this module quantifies that:

* :func:`targeted_failure_curve` — connectivity as the highest-degree
  (or random) nodes are removed;
* :func:`articulation_ratio` — fraction of nodes whose removal
  disconnects the graph (single points of failure).

Both are pure graph analyses of a :class:`~repro.graphs.FlatSnapshot`
such as :meth:`repro.core.Overlay.snapshot`.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

import numpy as np

from ..errors import GraphError
from ..graphs.fastgraph import FlatSnapshot, SnapshotAnalysis
from ..rng import fallback_rng

__all__ = [
    "FailurePoint",
    "targeted_failure_curve",
    "articulation_ratio",
]


@dataclasses.dataclass(frozen=True)
class FailurePoint:
    """Connectivity after removing a fraction of nodes."""

    removed_fraction: float
    removed_count: int
    disconnected: float
    largest_component_fraction: float


def targeted_failure_curve(
    graph: FlatSnapshot,
    fractions: Sequence[float] = (0.0, 0.05, 0.1, 0.2, 0.3),
    strategy: str = "degree",
    rng: Optional[np.random.Generator] = None,
    removal_order: Optional[Sequence[int]] = None,
) -> List[FailurePoint]:
    """Connectivity of ``graph`` as nodes are progressively removed.

    Parameters
    ----------
    graph:
        The graph under attack (not modified).
    fractions:
        Cumulative node fractions to remove, in increasing order.
    strategy:
        ``"degree"`` removes the highest-degree nodes first (the
        celebrity attack); ``"random"`` removes uniformly (plain
        failures); ``"custom"`` follows ``removal_order``.
    rng:
        Randomness for the random strategy.
    removal_order:
        Explicit removal sequence for ``strategy="custom"`` — e.g. the
        *trust graph's* hub order applied to the overlay, modeling the
        compromise of the same celebrity users in both topologies.

    Returns
    -------
    list of FailurePoint
        One entry per requested fraction.  ``disconnected`` follows the
        paper's metric (fraction of surviving nodes outside the largest
        component).
    """
    if strategy not in ("degree", "random", "custom"):
        raise GraphError(f"unknown strategy {strategy!r}")
    if any(earlier > later for earlier, later in zip(fractions, fractions[1:])):
        raise GraphError("fractions must be non-decreasing")
    if fractions and (fractions[0] < 0.0 or fractions[-1] >= 1.0):
        raise GraphError("fractions must lie in [0, 1)")
    total = graph.number_of_nodes()
    if total == 0:
        raise GraphError("graph is empty")
    labels = graph.node_ids

    if strategy == "degree":
        # Highest degree first, ties toward the smaller label.
        order = labels[np.lexsort((labels, -graph.degrees()))].tolist()
    elif strategy == "custom":
        if removal_order is None:
            raise GraphError("strategy='custom' requires removal_order")
        present = set(labels.tolist())
        order = [node for node in removal_order if node in present]
        if len(order) < int(max(fractions, default=0.0) * total):
            raise GraphError("removal_order too short for requested fractions")
    else:
        if rng is None:
            rng = fallback_rng("analysis.robustness.failure")
        order = labels.tolist()
        rng.shuffle(order)

    keep = np.ones(int(labels[-1]) + 1, dtype=bool)
    points: List[FailurePoint] = []
    removed_so_far = 0
    for fraction in fractions:
        target_removed = int(fraction * total)
        while removed_so_far < target_removed:
            keep[order[removed_so_far]] = False
            removed_so_far += 1
        survivors = total - removed_so_far
        if survivors == 0:
            points.append(FailurePoint(fraction, removed_so_far, 1.0, 0.0))
            continue
        analysis = SnapshotAnalysis(graph.induced_by_labels(keep))
        disconnected = analysis.fraction_disconnected()
        largest = (1.0 - disconnected) * survivors / total
        points.append(
            FailurePoint(
                removed_fraction=fraction,
                removed_count=removed_so_far,
                disconnected=disconnected,
                largest_component_fraction=largest,
            )
        )
    return points


def articulation_ratio(graph: FlatSnapshot) -> float:
    """Fraction of nodes that are articulation points (cut vertices).

    High ratios mean many single points of failure — typical of trust
    graphs, rare in the rewired overlay.  One iterative depth-first
    search per component over the CSR rows (Hopcroft–Tarjan low
    points): a non-root node is a cut vertex when some child's subtree
    reaches no higher than the node itself, a root when it has two or
    more children.
    """
    total = graph.number_of_nodes()
    if total == 0:
        raise GraphError("graph is empty")
    indptr = graph.indptr.tolist()
    indices = graph.indices.tolist()
    discovered = [-1] * total
    low = [0] * total
    cut = [False] * total
    clock = 0
    for root in range(total):
        if discovered[root] >= 0:
            continue
        discovered[root] = low[root] = clock
        clock += 1
        root_children = 0
        # (node, its DFS parent, next row offset to scan)
        stack = [(root, -1, indptr[root])]
        while stack:
            node, parent, offset = stack[-1]
            if offset < indptr[node + 1]:
                stack[-1] = (node, parent, offset + 1)
                child = indices[offset]
                if discovered[child] < 0:
                    discovered[child] = low[child] = clock
                    clock += 1
                    stack.append((child, node, indptr[child]))
                elif child != parent:
                    low[node] = min(low[node], discovered[child])
                continue
            stack.pop()
            if parent == root:
                root_children += 1
            elif parent >= 0:
                low[parent] = min(low[parent], low[node])
                if low[node] >= discovered[parent]:
                    cut[parent] = True
        cut[root] = root_children > 1
    return sum(cut) / total
