"""Differential tests pinning the fastgraph exactness contract.

Every kernel in :mod:`repro.graphs.fastgraph` promises *bit-identical*
values to the same metric computed with networkx (``tests/nx_oracle.py``),
including identical RNG consumption.  These tests enforce that promise
on random graphs, synthetic social graphs, churned overlay snapshots,
and the degenerate cases (empty/singleton/partitioned graphs,
equal-size component ties).
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro import Overlay, SystemConfig
from repro.churn import stationary_online_mask
from repro.core import Pseudonym
from repro.errors import GraphError, ProtocolError
from repro.experiments.scenarios import SMOKE, make_config, make_trust_graph
from repro.analysis import FailurePoint, targeted_failure_curve
from repro.experiments.runner import StaticMetrics, static_churn_metrics
from repro.graphs import erdos_renyi_gnm, generate_social_graph
from repro.graphs.fastgraph import FlatSnapshot, SnapshotAnalysis
from repro.metrics import MetricsCollector
from repro.privlink import Address

from . import nx_oracle
from .csr import to_networkx
from .nx_oracle import (
    assert_same_graph,
    average_path_length,
    degree_histogram,
    fraction_disconnected,
    induced,
    largest_component,
    normalized_path_length,
    to_flat,
    to_nx,
)


def _assert_matches_networkx(
    graph: nx.Graph, seed: int = 9, snapshot=None, sources=None
) -> SnapshotAnalysis:
    """Assert every fast metric of ``graph`` is bit-identical to networkx.

    ``snapshot`` substitutes another assembly of the same graph for
    ``to_flat``; ``sources`` sets the sampled-BFS count and skips
    the all-pairs pass (0.6 s of networkx at 1,200 nodes).
    """
    if snapshot is None:
        snapshot = to_flat(graph)
    analysis = SnapshotAnalysis(snapshot)
    total = graph.number_of_nodes()

    assert analysis.fraction_disconnected() == fraction_disconnected(graph)
    assert analysis.degree_histogram() == degree_histogram(graph)
    assert analysis.largest_component_nodes().tolist() == largest_component(graph)

    if total >= 1:
        if sources is None:
            fast_rng = np.random.default_rng(seed)
            ref_rng = np.random.default_rng(seed)
            assert analysis.average_path_length(
                rng=fast_rng
            ) == average_path_length(graph, rng=ref_rng)
        sample = min(sources or 7, total)
        fast_rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        fast_value = analysis.normalized_path_length(
            total, sample_sources=sample, rng=fast_rng
        )
        ref_value = normalized_path_length(
            graph, total, sample_sources=sample, rng=ref_rng
        )
        assert fast_value == ref_value
        # Identical RNG consumption: the streams stay in lockstep.
        assert fast_rng.bit_generator.state == ref_rng.bit_generator.state
    return analysis


class TestDifferentialRandomGraphs:
    def test_seeded_erdos_renyi_sweep(self):
        order_rng = np.random.default_rng(11)
        for case in range(25):
            n = int(order_rng.integers(2, 150))
            m = int(order_rng.integers(0, max(1, 3 * n)))
            graph = to_nx(erdos_renyi_gnm(n, m, rng=np.random.default_rng(1000 + case)))
            # Relabeling shuffles nx iteration order without changing
            # the graph, so label-order assumptions would be caught.
            relabel = dict(zip(graph.nodes(), order_rng.permutation(n).tolist()))
            _assert_matches_networkx(nx.relabel_nodes(graph, relabel), seed=case)

    def test_synthetic_social_graphs(self):
        for seed in (1, 2, 3):
            graph = to_networkx(generate_social_graph(150, rng=np.random.default_rng(seed)))
            _assert_matches_networkx(graph, seed=seed)

    def test_churned_social_snapshots(self):
        graph = to_networkx(generate_social_graph(200, rng=np.random.default_rng(4)))
        for seed in (5, 6):
            mask = stationary_online_mask(200, 0.5, np.random.default_rng(seed))
            _assert_matches_networkx(induced(graph, mask), seed=seed)
        # One collector sample at scale: 2,000 nodes, the snapshot
        # assembled from raw endpoint positions as the overlay's edge
        # store hands them over, 64 BFS sources.
        graph = to_networkx(generate_social_graph(2000, rng=np.random.default_rng(7)))
        mask = stationary_online_mask(2000, 0.6, np.random.default_rng(8))
        subgraph = induced(graph, mask)
        base = to_flat(subgraph)
        _assert_matches_networkx(
            subgraph,
            seed=8,
            snapshot=FlatSnapshot.from_edge_positions(
                base.node_ids, base.edge_u, base.edge_v
            ),
            sources=64,
        )

    def test_empty_singleton_and_edgeless(self):
        _assert_matches_networkx(nx.empty_graph(0))
        _assert_matches_networkx(nx.empty_graph(1))
        _assert_matches_networkx(nx.empty_graph(5))

    def test_partitioned_components(self):
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (1, 2), (10, 11), (20, 21), (21, 22), (22, 23)])
        graph.add_node(30)
        _assert_matches_networkx(graph)

    def test_equal_size_component_tiebreak(self):
        # Two components of equal size: the canonical choice is the one
        # containing the smallest node, on both sides.
        graph = nx.Graph()
        graph.add_edges_from([(5, 6), (6, 7), (1, 2), (2, 3)])
        analysis = _assert_matches_networkx(graph)
        assert analysis.largest_component_nodes().tolist() == [1, 2, 3]

    def test_more_than_64_bfs_sources(self):
        # The packed-uint64 BFS processes sources in chunks of 64;
        # a full (exact) path length on a >64-node component covers the
        # chunked path.
        graph = to_networkx(generate_social_graph(300, rng=np.random.default_rng(8)))
        component = largest_component(graph)
        assert len(component) > 64
        analysis = SnapshotAnalysis(to_flat(graph))
        assert analysis.average_path_length() == average_path_length(graph)


class TestFlatSnapshot:
    def test_structure_matches_graph(self):
        graph = to_nx(erdos_renyi_gnm(40, 80, rng=np.random.default_rng(2)))
        snap = to_flat(graph)
        assert snap.number_of_nodes() == 40
        assert snap.number_of_edges() == graph.number_of_edges()
        for position, node in enumerate(snap.node_ids.tolist()):
            row = snap.indices[snap.indptr[position] : snap.indptr[position + 1]]
            neighbors = sorted(
                int(snap.node_ids[p]) for p in row.tolist()
            )
            assert neighbors == sorted(graph.neighbors(node))

    def test_neighbors_and_has_edge_match_graph(self):
        graph = nx.relabel_nodes(
            to_nx(erdos_renyi_gnm(30, 60, rng=np.random.default_rng(5))),
            lambda node: 3 * node + 2,
        )
        snap = to_flat(graph)
        for node in graph.nodes():
            assert snap.neighbors(node) == sorted(graph.neighbors(node))
        for u in range(0, 95, 4):
            for v in range(1, 95, 3):
                assert snap.has_edge(u, v) == graph.has_edge(u, v)

    def test_missing_labels_are_no_such_node(self):
        """-1 and n must not wrap around or run off the last row."""
        snap = erdos_renyi_gnm(10, 30, rng=np.random.default_rng(6))
        assert snap.neighbors(9)
        for label in (-1, 10):
            with pytest.raises(GraphError, match="no such node"):
                snap.neighbors(label)
        assert not snap.has_edge(-1, 0)
        assert not snap.has_edge(9, -1)
        assert not snap.has_edge(0, 10)
        assert not snap.has_edge(-1, -1)

    def test_duplicate_edges_are_deduplicated(self):
        node_ids = np.arange(4, dtype=np.int64)
        a = np.array([0, 1, 1, 2], dtype=np.int64)
        b = np.array([1, 0, 2, 1], dtype=np.int64)
        snap = FlatSnapshot.from_edge_positions(node_ids, a, b)
        assert snap.number_of_edges() == 2
        assert snap.degrees().tolist() == [1, 2, 1, 0]

    @staticmethod
    def _unique_lexsort_oracle(k, a, b):
        """``from_edge_positions`` as it was written before it sorted
        packed keys: ``np.unique`` for the edges, ``np.lexsort`` for the
        CSR order."""
        key = np.unique(np.minimum(a, b) * max(k, 1) + np.maximum(a, b))
        lo, hi = key // max(k, 1), key % max(k, 1)
        degree = np.bincount(lo, minlength=k) + np.bincount(hi, minlength=k)
        src, dst = np.concatenate((lo, hi)), np.concatenate((hi, lo))
        indptr = np.concatenate(([0], np.cumsum(degree)))
        return indptr, dst[np.lexsort((dst, src))], lo, hi

    @pytest.mark.parametrize(
        "k, edges", [(0, 0), (1, 0), (7, 0), (2, 5), (9, 40), (300, 2000)]
    )
    def test_from_edge_positions_matches_unique_lexsort(self, k, edges):
        """Random multigraph input, duplicates in both orientations."""
        rng = np.random.default_rng(k + edges)
        a = rng.integers(0, max(k, 1), size=edges)
        b = rng.integers(0, max(k, 1), size=edges)
        keep = a != b
        a, b = a[keep], b[keep]
        # Every edge again, reversed, and a third of them a third time.
        a, b = (
            np.concatenate((a, b, a[::3])),
            np.concatenate((b, a, b[::3])),
        )
        snap = FlatSnapshot.from_edge_positions(np.arange(k) * 10, a, b)
        for got, expected in zip(
            (snap.indptr, snap.indices, snap.edge_u, snap.edge_v),
            self._unique_lexsort_oracle(k, a, b),
        ):
            assert got.dtype == np.int64
            assert got.tolist() == expected.tolist()
        assert snap.node_ids.tolist() == (np.arange(k) * 10).tolist()

    @pytest.mark.parametrize(
        "edges", [[("a", "b")], [(-1, 0), (0, 1)], [(0, 1), (1, 2.5)]],
        ids=["string", "negative", "float"],
    )
    def test_bad_labels_raise_graph_error(self, edges):
        """Labels index churn masks: a negative one would read the mask
        from its end, so ``induced_by_labels`` would keep node -1 by
        label 2's entry."""
        with pytest.raises(GraphError, match="non-negative integers"):
            to_flat(nx.Graph(edges))

    def test_self_loops_skipped_on_conversion(self):
        graph = nx.Graph([(0, 1), (1, 1)])
        snap = to_flat(graph)
        assert snap.number_of_edges() == 1

    def test_induced_by_labels_matches_subgraph(self):
        graph = erdos_renyi_gnm(60, 120, rng=np.random.default_rng(3))
        mask = stationary_online_mask(60, 0.6, np.random.default_rng(4))
        fast = graph.induced_by_labels(mask)
        reference = to_flat(induced(to_nx(graph), mask))
        assert fast.node_ids.tolist() == reference.node_ids.tolist()
        assert fast.indptr.tolist() == reference.indptr.tolist()
        assert fast.indices.tolist() == reference.indices.tolist()


class TestSingleLabelingPass:
    def test_one_union_find_pass_serves_every_metric(self):
        graph = to_networkx(generate_social_graph(100, rng=np.random.default_rng(7)))
        analysis = SnapshotAnalysis(to_flat(graph))
        assert analysis.labelings_run == 0
        analysis.fraction_disconnected()
        analysis.normalized_path_length(
            100, sample_sources=8, rng=np.random.default_rng(1)
        )
        analysis.degree_histogram()
        analysis.component_count()
        analysis.largest_component_nodes()
        analysis.components()
        assert analysis.labelings_run == 1

    def test_collector_runs_one_labeling_per_snapshot_per_sample(
        self, small_trust_graph, monkeypatch
    ):
        config = SystemConfig(num_nodes=30, seed=5)
        passes = []
        original = SnapshotAnalysis._ensure_labels

        def counting(self):
            if self._labels is None:
                passes.append(self.snapshot)
            return original(self)

        monkeypatch.setattr(SnapshotAnalysis, "_ensure_labels", counting)
        overlay = Overlay.build(small_trust_graph, config, with_churn=False)
        collector = MetricsCollector(
            overlay, path_length_every=1, path_length_sources=4
        )
        overlay.start()
        collector.start()
        overlay.run_until(6.0)
        samples = len(collector.disconnected)
        assert samples == 6
        # Per sample: one labeling for the overlay snapshot; the trust
        # baseline is cached across samples (static graph, no churn) so
        # it labels exactly once overall.
        assert len(passes) == samples + 1
        # And no snapshot was ever labeled twice.
        assert len(set(map(id, passes))) == len(passes)


class TestOverlayIncrementalStore:
    """``Overlay``'s snapshots, trust baseline and degrees, read from the
    node arena's link columns, against the link-by-link oracle."""

    def _overlay(self, with_churn: bool) -> Overlay:
        graph = to_flat(
            to_networkx(generate_social_graph(40, rng=np.random.default_rng(21)))
        )
        config = SystemConfig(num_nodes=40, seed=7, availability=0.6)
        return Overlay.build(graph, config, with_churn=with_churn)

    def test_snapshot_fast_tracks_reference_over_run(self):
        overlay = self._overlay(with_churn=True)
        overlay.start()
        for checkpoint in (0.5, 3.0, 7.5, 12.0, 20.0):
            overlay.run_until(checkpoint)
            for online_only in (True, False):
                fast = overlay.snapshot_fast(online_only=online_only)
                reference = nx_oracle.overlay_snapshot(overlay, online_only=online_only)
                assert_same_graph(fast, reference)
                assert_same_graph(overlay.snapshot(online_only=online_only), reference)

    def test_trust_snapshot_fast_cached_until_online_set_changes(self):
        overlay = self._overlay(with_churn=False)
        overlay.start()
        overlay.run_until(1.0)
        online_ids = overlay.online_ids()
        first = overlay.trust_snapshot_fast(online_ids=online_ids)
        second = overlay.trust_snapshot_fast(online_ids=online_ids)
        assert first is second
        overlay.nodes[online_ids[0]].go_offline()
        third = overlay.trust_snapshot_fast()
        assert third is not first
        assert_same_graph(third, nx_oracle.trust_snapshot(overlay))

    def test_online_out_degrees_match_node_out_degree(self):
        overlay = self._overlay(with_churn=True)
        overlay.start()
        overlay.run_until(9.0)
        online_ids = overlay.online_ids()
        degrees = overlay.online_out_degrees(overlay.sim.now, online_ids)
        expected = [
            overlay.nodes[node_id].out_degree(overlay.sim.now)
            for node_id in online_ids
        ]
        assert degrees.tolist() == expected

    def test_online_ids_cache_follows_transitions(self):
        overlay = self._overlay(with_churn=False)
        overlay.start()
        overlay.run_until(0.5)
        before = overlay.online_ids()
        victim = before[0]
        overlay.nodes[victim].go_offline()
        after = overlay.online_ids()
        assert victim in before and victim not in after
        # Returned lists are copies: mutating one does not poison the cache.
        after.append(victim)
        assert victim not in overlay.online_ids()

    def _assert_matches_oracle(self, overlay) -> None:
        """Snapshots equal the link-by-link oracle and degrees equal
        ``OverlayNode.out_degree`` at the current instant."""
        now = overlay.sim.now
        for online_only in (True, False):
            assert_same_graph(
                overlay.snapshot(online_only=online_only),
                nx_oracle.overlay_snapshot(overlay, online_only=online_only),
            )
        assert_same_graph(overlay.trust_snapshot(), nx_oracle.trust_snapshot(overlay))
        online_ids = overlay.online_ids()
        assert overlay.online_out_degrees(now, online_ids).tolist() == [
            overlay.nodes[node_id].out_degree(now) for node_id in online_ids
        ]

    @pytest.mark.parametrize(
        "case",
        ["unregistered-owner", "self-link", "after-add-node", "after-add-trust-edge"],
    )
    def test_snapshot_cases_no_run_produces(self, case):
        overlay = self._overlay(with_churn=True)
        overlay.start()
        overlay.run_until(6.0)
        # Away from node 0, so an unknown owner read as row 0 would show.
        full = overlay.snapshot(online_only=False)
        holder = overlay.nodes[
            next(
                node_id
                for node_id in overlay.online_ids()
                if node_id != 0 and not full.has_edge(node_id, 0)
            )
        ]
        links = list(holder.links.pseudonym_links())
        if case == "unregistered-owner":
            assert overlay.owner_of_value(1) is None
            extra = Pseudonym(
                value=1, address=Address(token=1), expires_at=overlay.sim.now + 50
            )
            holder.links.update_from_sample(links + [extra])
            assert holder.links.has_pseudonym_link(extra)
        elif case == "self-link":
            assert overlay.owner_of_value(holder.own.value) == holder.node_id
            holder.links.update_from_sample(links + [holder.own])
            assert holder.links.has_pseudonym_link(holder.own)
        elif case == "after-add-node":
            overlay.add_node([0, 1])
        else:
            trusted = holder.links.trusted
            stranger = next(
                node_id
                for node_id in range(len(overlay.nodes))
                if node_id != holder.node_id and node_id not in trusted
            )
            overlay.add_trust_edge(holder.node_id, stranger)
        self._assert_matches_oracle(overlay)
        overlay.run_until(9.0)
        self._assert_matches_oracle(overlay)

    def test_owner_column_matches_registry_over_churned_run(self):
        overlay = self._overlay(with_churn=True)
        overlay.start()
        table = overlay.arena.pseudonyms
        for checkpoint in (1.0, 4.0, 9.0, 16.0, 25.0):
            overlay.run_until(checkpoint)
            live = np.flatnonzero(table.refcounts > 0)
            assert len(live)
            expected = [
                overlay.owner_of_value(value) for value in table.values[live].tolist()
            ]
            assert table.owners[live].tolist() == [
                -1 if owner is None else owner for owner in expected
            ]

    @pytest.mark.parametrize(
        "online_ids", [[0], [-1], [3, 3], [80]], ids=["0", "-1", "3,3", "80"]
    )
    @pytest.mark.parametrize(
        "method", ["snapshot", "trust_snapshot", "online_out_degrees"]
    )
    def test_wrong_online_ids_raise(self, method, online_ids):
        graph = make_trust_graph(SMOKE, f=0.5, seed=1)
        overlay = Overlay.build(graph, make_config(SMOKE, alpha=0.5, f=0.5, seed=1))
        overlay.start()
        overlay.run_until(5.0)
        assert len(overlay.online_ids()) == 43
        # Warm every cache first: a wrong list must not be served from it.
        overlay.trust_snapshot(online_ids=overlay.online_ids())
        with pytest.raises(ProtocolError, match="online_ids"):
            getattr(overlay, method)(online_ids=online_ids)
        # Nor may it leave anything behind for the next plain call.
        self._assert_matches_oracle(overlay)


class TestCollectorBackendEquivalence:
    def test_max_out_degrees_covers_every_node(self):
        graph = to_flat(
            to_networkx(generate_social_graph(50, rng=np.random.default_rng(31)))
        )
        config = SystemConfig(num_nodes=50, seed=13, availability=0.6)
        overlay = Overlay.build(graph, config, with_churn=True)
        collector = MetricsCollector(
            overlay,
            path_length_every=2,
            path_length_sources=6,
            rng=overlay.substream("collector"),
        )
        overlay.start()
        collector.start()
        overlay.run_until(15.0)
        assert len(collector.max_out_degrees()) == 50
        assert sorted(collector.max_out_degree) == list(range(50))


class TestStaticChurnBackends:
    def test_static_metrics_identical_across_backends(self):
        """The flat-snapshot baseline equals the networkx oracle on the
        same induced subgraphs, rng consumption included."""
        graph = to_networkx(generate_social_graph(120, rng=np.random.default_rng(17)))
        fast = static_churn_metrics(
            to_flat(graph), 0.5, 5, np.random.default_rng(3), path_sources=8
        )
        rng = np.random.default_rng(3)
        disconnected, paths, degrees = [], [], []
        for _ in range(5):
            subgraph = induced(graph, stationary_online_mask(120, 0.5, rng))
            disconnected.append(fraction_disconnected(subgraph))
            degrees.append(float(np.mean([d for _, d in subgraph.degree()])))
            paths.append(
                normalized_path_length(subgraph, 120, sample_sources=8, rng=rng)
            )
        assert fast == StaticMetrics(
            disconnected=float(np.mean(disconnected)),
            path_length=float(np.mean(paths)),
            mean_online_degree=float(np.mean(degrees)),
        )


def _networkx_failure_curve(graph, fractions, order):
    """``targeted_failure_curve`` by removing nodes from a networkx copy."""
    total = graph.number_of_nodes()
    working = graph.copy()
    points = []
    removed = 0
    for fraction in fractions:
        while removed < int(fraction * total):
            working.remove_node(order[removed])
            removed += 1
        disconnected = fraction_disconnected(working)
        largest = (1.0 - disconnected) * working.number_of_nodes() / total
        points.append(FailurePoint(fraction, removed, disconnected, largest))
    return points


class TestTargetedFailurePaths:
    def test_int_and_string_labels_agree(self):
        """The kernel curve of an int-labelled graph equals networkx
        removing the same nodes from a string-labelled copy, which no
        conversion to the package's graph type accepts."""
        graph = to_networkx(generate_social_graph(150, rng=np.random.default_rng(23)))
        names = {node: f"n{node:04d}" for node in graph.nodes()}
        relabelled = nx.relabel_nodes(graph, names)
        fractions = (0.0, 0.05, 0.2, 0.4)
        hubs = sorted(graph.nodes(), key=lambda node: (-graph.degree(node), node))
        shuffled = list(graph.nodes())
        np.random.default_rng(5).shuffle(shuffled)
        for kwargs, order in (
            ({"strategy": "degree"}, hubs),
            ({"strategy": "custom", "removal_order": hubs[::2]}, hubs[::2]),
            ({"strategy": "random", "rng": np.random.default_rng(5)}, shuffled),
        ):
            fast = targeted_failure_curve(to_flat(graph), fractions, **kwargs)
            reference = _networkx_failure_curve(
                relabelled, fractions, [names[node] for node in order]
            )
            assert fast == reference
            assert fast[-1].removed_count == 60
        with pytest.raises(GraphError):
            to_flat(relabelled)
