"""Trust-graph sampling (the paper's ``f``-parameterized traversal).

Section IV-A: "Our sampling mechanism starts at a random node and adds
additional nodes by traversing the graph following (some of) the
contacts of each node until reaching a pre-established number of nodes.
[...] when we visit a node n during the traversal, we add to the sample
``max(1, f * |delta(n)|)`` random neighbors of n which have not yet been
visited.  These newly added nodes are in turn visited in a breadth-first
manner."

The sampled trust graph is the subgraph *induced* by the selected nodes
on the source graph ("the edges of the sampled trust graph are all the
edges among the selected nodes").  Because every sampled node is reached
through a sampled inviter, the induced subgraph is connected.

``f = 1`` is a full breadth-first crawl (everyone invites all friends),
``f = 0`` a chain of single invitations, and intermediate values are
partial invitations — the paper's invitation model for privacy-minded
groups.

The source is a CSR adjacency ``(indptr, indices)`` as the generators
in :mod:`repro.graphs.social` return it; the walk follows its row order.
:func:`sample_trust_members` is the walk alone; :func:`sample_trust_graph`
returns the induced subgraph as a :class:`~repro.graphs.FlatSnapshot`.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Set, Tuple

import numpy as np

from ..errors import SamplingError
from ..rng import ScalarDraws, fallback_rng
from .fastgraph import FlatSnapshot

__all__ = ["sample_trust_graph", "sample_trust_members"]


def sample_trust_graph(
    source: Tuple[np.ndarray, np.ndarray],
    target_size: int,
    f: float,
    rng: Optional[np.random.Generator] = None,
    start: Optional[int] = None,
) -> FlatSnapshot:
    """Draw one trust graph of ``target_size`` nodes.

    Takes the parameters of :func:`sample_trust_members` and returns
    the subgraph the source induces on the sampled nodes, relabeled to
    ``0..target_size-1`` by ascending source label: node ``i`` is
    source node ``sample_trust_members(...)[i]``.
    """
    indptr, indices = source
    members = sample_trust_members(source, target_size, f, rng=rng, start=start)
    relabel = np.full(len(indptr) - 1, -1, dtype=np.int64)
    relabel[members] = np.arange(len(members), dtype=np.int64)
    holders = relabel[np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))]
    neighbors = relabel[indices]
    keep = (holders >= 0) & (neighbors >= 0) & (holders != neighbors)
    return FlatSnapshot.from_edge_positions(
        np.arange(len(members), dtype=np.int64), holders[keep], neighbors[keep]
    )


def sample_trust_members(
    source: Tuple[np.ndarray, np.ndarray],
    target_size: int,
    f: float,
    rng: Optional[np.random.Generator] = None,
    start: Optional[int] = None,
) -> np.ndarray:
    """Walk the source and return the ``target_size`` sampled labels.

    Parameters
    ----------
    source:
        CSR adjacency ``(indptr, indices)`` of the social graph, node
        labels ``0..n-1``.
    target_size:
        Number of nodes in the sample.  Must not exceed the source
        graph's largest connected component reachable from the
        start node; if the traversal exhausts its frontier early it
        restarts from a random already-sampled node that still has
        unsampled neighbors.
    f:
        Invitation fraction in ``[0, 1]``.
    rng:
        Source of randomness (a seeded fallback generator derived
        from :data:`repro.config.DEFAULT_SEED` when omitted).
    start:
        Optional fixed start node; random when omitted.

    Returns
    -------
    numpy.ndarray
        The sampled source labels (int64), ascending.
    """
    indptr, indices = source
    num_nodes = len(indptr) - 1
    if num_nodes < 1:
        raise SamplingError("source graph is empty")
    if rng is None:
        rng = fallback_rng("graphs.sampling")
    if not 0.0 <= f <= 1.0:
        raise SamplingError(f"f must be in [0, 1], got {f}")
    if target_size < 1:
        raise SamplingError("target_size must be at least 1")
    if target_size > num_nodes:
        raise SamplingError(
            f"target_size {target_size} exceeds source size {num_nodes}"
        )

    def neighbors(node: int) -> List[int]:
        return indices[indptr[node] : indptr[node + 1]].tolist()

    below = ScalarDraws(rng).below
    if start is None:
        start = below(num_nodes)
    elif 0 <= start < num_nodes:
        start = int(start)
    else:
        raise SamplingError(f"start node {start!r} not in source graph")

    sampled: Set[int] = {start}
    frontier = deque([start])

    while len(sampled) < target_size:
        if not frontier:
            # Sorted, not set order: the restart choice must not depend
            # on hash iteration (lint rule DET004).
            candidates = [
                node
                for node in sorted(sampled)
                if any(neighbor not in sampled for neighbor in neighbors(node))
            ]
            if not candidates:
                raise SamplingError(
                    "traversal exhausted: the component containing the "
                    f"start node has fewer than {target_size} nodes"
                )
            frontier.append(candidates[below(len(candidates))])
        node = frontier.popleft()
        row = neighbors(node)
        unvisited = [neighbor for neighbor in row if neighbor not in sampled]
        if not unvisited:
            continue
        invite_count = max(1, int(f * len(row)))
        invite_count = min(invite_count, len(unvisited), target_size - len(sampled))
        order = rng.permutation(len(unvisited))
        for index in order[:invite_count].tolist():
            invitee = unvisited[index]
            sampled.add(invitee)
            frontier.append(invitee)

    return np.array(sorted(sampled), dtype=np.int64)
