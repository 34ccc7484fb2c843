"""The Section IV-C graph metrics, over flat arrays.

The paper measures robustness through three undirected-graph metrics:
the fraction of (online) nodes outside the largest connected component,
the normalized average path length (mean shortest-path length inside
that component, divided by its size and multiplied by the *total* node
count, offline nodes included, so a partitioned snapshot is penalized
rather than rewarded for its short internal paths), and the degree
distribution.  This module is their only implementation:

* :class:`FlatSnapshot` — an immutable compressed-sparse-row view of an
  undirected simple graph (sorted node ids, sorted neighbor lists).
* :class:`SnapshotAnalysis` — computes the component labeling **once**
  (numpy min-label hooking over the edge arrays) and serves every
  metric from it;
  path lengths use a batched multi-source BFS whose frontiers expand
  with numpy gathers instead of per-node Python loops.

Exactness contract
------------------
Every value produced here is **bit-identical** to the same metric
computed with networkx on the same graph:

* components are exact (labels are component minima), and the
  largest component is a canonical list: ascending nodes, size ties
  broken toward the component containing the smallest node;
* BFS distances are integers, accumulated as Python ints, and the
  final averages are the ``total / pairs`` and
  ``average / size * total_nodes`` float expressions;
* a sampled path length draws its sources with one
  ``rng.choice(size, size=k, replace=False)`` over positions in that
  canonical list, so a shared stream consumes exactly that draw.

``tests/test_fastgraph.py`` pins the contract differentially against a
networkx oracle (``tests/nx_oracle.py``) on random, social, and
churned-overlay graphs.

:class:`FlatSnapshot` is also the package's one graph type: the trust
graphs the sampler draws, the random baselines and every overlay
snapshot are all built with :meth:`FlatSnapshot.from_edge_positions`.
Snapshot graphs are *simple*: callers exclude self-loops, and the
constructor folds duplicate edges.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import GraphError
from ..rng import fallback_rng

__all__ = ["FlatSnapshot", "SnapshotAnalysis"]

_EMPTY_INT = np.zeros(0, dtype=np.int64)


class FlatSnapshot:
    """CSR view of an undirected simple graph with integer node labels.

    Attributes
    ----------
    node_ids:
        Original node labels, ascending.  Position ``i`` in every other
        array refers to ``node_ids[i]``.
    indptr, indices:
        CSR adjacency over positions; each neighbor list is ascending.
    edge_u, edge_v:
        Deduplicated undirected edge list over positions with
        ``edge_u < edge_v`` — the labeling's input, kept so component
        labeling never re-derives edges from the CSR arrays.

    The query methods take and return node *labels*, spelled as
    networkx spells them.  A label no node carries is never looked up
    by position: :meth:`neighbors` raises :class:`GraphError` and
    :meth:`has_edge` answers False.
    """

    __slots__ = ("node_ids", "indptr", "indices", "edge_u", "edge_v")

    def __init__(
        self,
        node_ids: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        edge_u: np.ndarray,
        edge_v: np.ndarray,
    ) -> None:
        self.node_ids = node_ids
        self.indptr = indptr
        self.indices = indices
        self.edge_u = edge_u
        self.edge_v = edge_v

    def number_of_nodes(self) -> int:
        """Number of nodes in the snapshot."""
        return len(self.node_ids)

    def number_of_edges(self) -> int:
        """Number of (undirected, deduplicated) edges."""
        return len(self.edge_u)

    def _position(self, label: int) -> int:
        """Position of ``label``, or -1 when no node carries it."""
        node_ids = self.node_ids
        position = int(np.searchsorted(node_ids, label))
        if position < len(node_ids) and node_ids[position] == label:
            return position
        return -1

    def neighbors(self, label: int) -> List[int]:
        """Neighbour labels of node ``label``, ascending."""
        position = self._position(label)
        if position < 0:
            raise GraphError(f"no such node {label!r}")
        row = self.indices[self.indptr[position] : self.indptr[position + 1]]
        return self.node_ids[row].tolist()

    def has_edge(self, u: int, v: int) -> bool:
        """Whether nodes ``u`` and ``v`` exist and are adjacent."""
        a = self._position(u)
        b = self._position(v)
        if a < 0 or b < 0:
            return False
        row = self.indices[self.indptr[a] : self.indptr[a + 1]]
        index = int(np.searchsorted(row, b))
        return bool(index < len(row) and row[index] == b)

    def degrees(self) -> np.ndarray:
        """Degree of every position (int64)."""
        return np.diff(self.indptr)

    @classmethod
    def from_edge_positions(
        cls, node_ids: np.ndarray, a: np.ndarray, b: np.ndarray
    ) -> "FlatSnapshot":
        """Assemble a snapshot from raw endpoint-position arrays.

        ``a``/``b`` are parallel arrays of edge endpoints given as
        positions into ``node_ids``; duplicates and orientation are
        normalized here, self-loops must already be excluded.
        """
        node_ids = np.ascontiguousarray(node_ids, dtype=np.int64)
        k = max(len(node_ids), 1)
        # key = lo * k + hi, built in place: hi = a + b - lo.
        key = np.minimum(a, b).astype(np.int64, copy=False)
        key *= k - 1
        key += a
        key += b
        key.sort()
        first = np.ones(len(key), dtype=bool)
        first[1:] = key[1:] != key[:-1]
        # Both directions of every edge as one source-major key: sorted,
        # the low parts are the neighbor lists in CSR order.
        count = int(np.count_nonzero(first))
        directed = np.empty(2 * count, dtype=np.int64)
        key = np.compress(first, key, out=directed[:count])
        lo, hi = np.divmod(key, k)
        degree = np.bincount(lo, minlength=len(node_ids)) + np.bincount(
            hi, minlength=len(node_ids)
        )
        indptr = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(degree, dtype=np.int64))
        )
        reverse = directed[count:]
        np.multiply(hi, k, out=reverse)
        reverse += lo
        directed.sort()
        directed %= k
        return cls(node_ids, indptr, directed, lo, hi)

    def induced(self, keep: np.ndarray) -> "FlatSnapshot":
        """The subgraph induced by a boolean mask over positions."""
        keep = np.asarray(keep, dtype=bool)
        remap = np.cumsum(keep, dtype=np.int64) - 1
        mask = keep[self.edge_u] & keep[self.edge_v]
        return FlatSnapshot.from_edge_positions(
            self.node_ids[keep],
            remap[self.edge_u[mask]],
            remap[self.edge_v[mask]],
        )

    def induced_by_labels(self, keep_labels: np.ndarray) -> "FlatSnapshot":
        """The subgraph induced by a boolean mask indexed by node label.

        ``keep_labels[label]`` says whether that node survives; labels
        outside the mask's range are dropped.  This is the shape churn
        masks come in (:func:`repro.churn.stationary_online_mask`).
        """
        keep_labels = np.asarray(keep_labels, dtype=bool)
        in_range = self.node_ids < len(keep_labels)
        keep = np.zeros(self.number_of_nodes(), dtype=bool)
        keep[in_range] = keep_labels[self.node_ids[in_range]]
        return self.induced(keep)


def _component_labels(num_nodes: int, edge_u: np.ndarray, edge_v: np.ndarray) -> np.ndarray:
    """Component labels; each label is the component's smallest
    position (which makes the labeling canonical).

    Min-label hooking with pointer jumping: each round hooks every root
    to the smallest root across its edges, then shortcuts ``parent =
    parent[parent]`` until every node points at a root.  Hooks point
    to smaller roots, so each root is its tree's minimum.  O(log n)
    rounds over E-sized arrays (``docs/metrics.md`` has the argument).
    """
    parent = np.arange(num_nodes, dtype=np.int64)
    while True:
        root_u = parent[edge_u]
        root_v = parent[edge_v]
        lo = np.minimum(root_u, root_v)
        hi = np.maximum(root_u, root_v, out=root_v)
        joins = lo < hi
        if not joins.any():
            return parent
        # An edge inside one tree stays inside it; drop it for good.
        edge_u = edge_u[joins]
        edge_v = edge_v[joins]
        np.minimum.at(parent, hi[joins], lo[joins])
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand


def _popcount_sum(bits: np.ndarray) -> int:
    """Total number of set bits across a uint64 array."""
    if hasattr(np, "bitwise_count"):
        return int(np.bitwise_count(bits).sum())
    return int(np.unpackbits(bits.view(np.uint8)).sum())  # pragma: no cover


def _bfs_distance_totals(
    indptr: np.ndarray, indices: np.ndarray, sources: np.ndarray
) -> Tuple[int, int]:
    """Batched multi-source BFS: (sum of distances, reached pairs).

    Up to 64 sources run simultaneously as bits of one ``uint64`` per
    node (more sources process in chunks of 64).  Each level expands
    every frontier at once: gather the per-node bit masks along the CSR
    ``indices`` array and OR-reduce them per adjacency row
    (``bitwise_or.reduceat``), so a level costs O(edges) regardless of
    the source count.  Distances are exact integers (BFS levels), so
    the totals equal a per-source BFS's bit for bit.
    """
    num_nodes = len(indptr) - 1
    num_sources = len(sources)
    if num_sources == 0 or num_nodes == 0 or len(indices) == 0:
        return 0, 0
    sources = np.asarray(sources, dtype=np.int64)
    # reduceat needs in-range segment starts; rows whose start would
    # fall off the end are degree-0 and get zeroed below anyway.
    row_starts = np.minimum(indptr[:-1], len(indices) - 1)
    empty_rows = np.flatnonzero(np.diff(indptr) == 0)
    total = 0
    reached = 0
    for chunk_start in range(0, num_sources, 64):
        chunk = sources[chunk_start : chunk_start + 64]
        frontier = np.zeros(num_nodes, dtype=np.uint64)
        frontier[chunk] = np.left_shift(
            np.uint64(1), np.arange(len(chunk), dtype=np.uint64)
        )
        visited = frontier.copy()
        level = 0
        while True:
            level += 1
            expanded = np.bitwise_or.reduceat(frontier[indices], row_starts)
            expanded[empty_rows] = 0
            new = expanded & ~visited
            newly = _popcount_sum(new)
            if newly == 0:
                break
            visited |= new
            total += level * newly
            reached += newly
            frontier = new
    return total, reached


class SnapshotAnalysis:
    """One component labeling shared by every metric of one snapshot.

    Construct once per snapshot per sample; the labeling pass
    (:func:`_component_labels`) runs lazily on first use and is reused
    by the disconnected fraction, path length, and component queries
    (``labelings_run`` counts the passes — tests assert it stays at one).
    """

    __slots__ = (
        "snapshot",
        "labelings_run",
        "_labels",
        "_largest_label",
        "_largest_size",
        "_component_count",
    )

    def __init__(self, snapshot: FlatSnapshot) -> None:
        self.snapshot = snapshot
        #: Number of component-labeling passes run (expected: at most 1).
        self.labelings_run = 0
        self._labels: Optional[np.ndarray] = None
        self._largest_label = -1
        self._largest_size = 0
        self._component_count = 0

    def _ensure_labels(self) -> np.ndarray:
        labels = self._labels
        if labels is None:
            self.labelings_run += 1
            snap = self.snapshot
            labels = _component_labels(snap.number_of_nodes(), snap.edge_u, snap.edge_v)
            self._labels = labels
            if snap.number_of_nodes():
                sizes = np.bincount(labels, minlength=snap.number_of_nodes())
                self._largest_size = int(sizes.max())
                # Labels are minimum members, so the first position with
                # a maximal size is the canonical tie-break (smallest
                # node wins among equally large components).
                self._largest_label = int(
                    np.flatnonzero(sizes == self._largest_size)[0]
                )
                self._component_count = int(np.count_nonzero(sizes))
        return labels

    def component_count(self) -> int:
        """Number of connected components (0 for the empty graph)."""
        self._ensure_labels()
        return self._component_count

    def largest_component_nodes(self) -> np.ndarray:
        """Node labels of the canonical largest component, ascending.

        Among equally large components the one containing the smallest
        node wins.  Sampled path lengths index into this list, so the
        ordering is part of the reproducibility contract.
        """
        labels = self._ensure_labels()
        if self.snapshot.number_of_nodes() == 0:
            return _EMPTY_INT
        return self.snapshot.node_ids[labels == self._largest_label]

    def components(self) -> List[np.ndarray]:
        """Every component's node labels, ordered by smallest member."""
        labels = self._ensure_labels()
        if self.snapshot.number_of_nodes() == 0:
            return []
        order = np.argsort(labels, kind="stable")
        sorted_labels = labels[order]
        boundaries = np.flatnonzero(np.diff(sorted_labels)) + 1
        groups = np.split(self.snapshot.node_ids[order], boundaries)
        return list(groups)

    def fraction_disconnected(self) -> float:
        """Fraction of nodes outside the largest component (empty -> 0)."""
        n = self.snapshot.number_of_nodes()
        if n == 0:
            return 0.0
        self._ensure_labels()
        return 1.0 - self._largest_size / n

    def degree_histogram(self) -> Dict[int, int]:
        """Map of degree -> node count; equal to the networkx dict."""
        degrees = self.snapshot.degrees()
        if degrees.size == 0:
            return {}
        counts = np.bincount(degrees)
        return {
            int(degree): int(count)
            for degree, count in enumerate(counts.tolist())
            if count
        }

    def degree_sequence(self) -> np.ndarray:
        """Sorted (descending) degree sequence."""
        return np.sort(self.snapshot.degrees())[::-1]

    def average_path_length(
        self,
        sample_sources: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        """Mean pairwise BFS distance in the largest component.

        ``sample_sources`` estimates the mean (unbiased) from BFS trees
        rooted at that many sources, drawn uniformly from the canonical
        :meth:`largest_component_nodes` list; by default every node is a
        source.  Components of fewer than two nodes give 0.0.

        .. warning::
           Without ``rng`` the fallback generator is re-seeded
           identically on **every call**, so two rng-less calls sample
           the *same* sources.  One estimate stays reproducible, but a
           time series built from rng-less calls reuses one source set
           and its sampling noise never averages out.  Callers that
           sample repeatedly own a persistent stream and pass it in
           (:class:`~repro.metrics.MetricsCollector` does, with
           ``overlay.substream("collector")``).
        """
        labels = self._ensure_labels()
        size = self._largest_size
        if size < 2:
            return 0.0
        component_positions = np.flatnonzero(labels == self._largest_label)
        if sample_sources is not None and sample_sources < size:
            if rng is None:
                # The key predates this module; renaming it would change
                # every rng-less value (pinned in test_determinism).
                rng = fallback_rng("graphs.metrics.path-sources")
            chosen = rng.choice(size, size=sample_sources, replace=False)
            sources = component_positions[chosen.astype(np.int64)]
        else:
            sources = component_positions
        total, pairs = _bfs_distance_totals(
            self.snapshot.indptr, self.snapshot.indices, sources
        )
        if pairs == 0:
            return 0.0
        return total / pairs

    def normalized_path_length(
        self,
        total_nodes: int,
        sample_sources: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        """The paper's normalized path length, reusing this labeling.

        ``average_path_length() / |component| * total_nodes``, where
        ``total_nodes`` counts every node in the system, online or not.
        A component of fewer than two nodes reports ``total_nodes``,
        the worst case, so plots stay monotone.
        """
        if total_nodes < 1:
            raise GraphError("total_nodes must be at least 1")
        self._ensure_labels()
        if self._largest_size < 2:
            return float(total_nodes)
        average = self.average_path_length(sample_sources=sample_sources, rng=rng)
        return average / self._largest_size * total_nodes
