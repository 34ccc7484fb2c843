"""Scale: the synthetic social source graph, 10^4 nodes to 10^6.

DESIGN.md substitutes a Holme–Kim generator for the paper's Facebook
crawl and claims it keeps what the evaluation depends on.  This bench
builds one source graph with :func:`repro.graphs.generate_social_graph`
and asserts those claims on it:

* connected — every node but 0 has a lower-labelled neighbour;
* ``9N - 45`` edges (a 10-clique seed, nine edges per arrival), less
  one per step whose three preferential fallback draws all land on
  nodes the arrival already chose — at most one per thousand nodes
  (2 at 10^4 here);
* hubs: the maximum degree is at least 20x the mean;
* clustering: at 10^4 only (networkx is the oracle), the average
  clustering coefficient is at least 20x that of a G(n, m) of equal
  size;
* footprint: peak RSS grows by at most 100 bytes per edge;
* identity: at 10^6 the CSR digest equals ``_FULL_DIGEST``, so the
  full-size graph is the one every earlier generator built, not only
  one with the same shape (the 10^4 digest is pinned by the committed
  results table).

The graph is built in a freshly spawned interpreter, so the RSS growth
is the generator's own over that interpreter's import baseline, even
when other benches ran earlier in this process.  Default: 10^4 nodes;
``REPRO_FULL=1``: 10^6.

Only deterministic columns go to ``results/social_scale.txt``; build
time, peak RSS and bytes per edge are printed (run with ``-s``).
"""

import concurrent.futures
import hashlib
import multiprocessing
import resource
import time

import networkx as nx
import numpy as np

from repro.experiments import PAPER, format_table
from repro.graphs import erdos_renyi_gnm, generate_social_graph
from repro.rng import RandomStreams

from conftest import SEED, emit

_BYTES_PER_EDGE = 100
_HUB_RATIO = 20
_CLUSTERING_RATIO = 20
_CLUSTERING_MAX_NODES = 10_000
#: ``csr_digest`` of the 10^6-node graph (seed 1, "social-scale").
_FULL_DIGEST = "fd07340534814c3f"


def _peak_rss_bytes():
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _clustering(num_nodes, sources, targets):
    """networkx's average clustering of the graph with these edges."""
    graph = nx.Graph()
    graph.add_nodes_from(range(num_nodes))
    graph.add_edges_from(zip(sources.tolist(), targets.tolist()))
    return nx.average_clustering(graph)


def _measure(num_nodes):
    """Build one source graph and reduce it to the bench's columns.

    Runs in a spawned child; returns plain numbers only.
    """
    baseline = _peak_rss_bytes()
    started = time.perf_counter()
    indptr, indices = generate_social_graph(
        num_nodes, rng=RandomStreams(SEED).substream("social-scale")
    )
    build_s = time.perf_counter() - started
    peak = _peak_rss_bytes()

    degree = np.diff(indptr)
    edges = len(indices) // 2
    # A node with a lower-labelled neighbour hangs off a path down to 0.
    lowest = np.minimum.reduceat(indices, indptr[:-1]) if degree.all() else None
    connected = lowest is not None and bool(
        (lowest[1:] < np.arange(1, num_nodes)).all()
    )
    clustering = gnm_clustering = None
    if num_nodes <= _CLUSTERING_MAX_NODES:
        sources = np.repeat(np.arange(num_nodes), degree)
        clustering = _clustering(num_nodes, sources, indices)
        gnm = erdos_renyi_gnm(num_nodes, edges, rng=RandomStreams(SEED).substream("gnm"))
        gnm_clustering = _clustering(num_nodes, gnm.edge_u, gnm.edge_v)
    digest = hashlib.sha256(indptr)
    digest.update(indices)
    return {
        "edges": edges,
        "connected": connected,
        "max_degree": int(degree.max()),
        "mean_degree": float(degree.mean()),
        "clustering": clustering,
        "gnm_clustering": gnm_clustering,
        "digest": digest.hexdigest()[:16],
        "build_s": build_s,
        "peak_rss": peak,
        "grown_bytes": peak - baseline,
    }


class TestSocialScale:
    def test_bench_social_source_graph(self, benchmark, scale, results_dir):
        num_nodes = 1_000_000 if scale is PAPER else 10_000

        def run():
            spawn = multiprocessing.get_context("spawn")
            with concurrent.futures.ProcessPoolExecutor(1, mp_context=spawn) as pool:
                return pool.submit(_measure, num_nodes).result()

        result = benchmark.pedantic(run, rounds=1, iterations=1)
        edges = result["edges"]
        missing = 9 * num_nodes - 45 - edges
        emit(
            results_dir,
            "social_scale",
            format_table(
                ["nodes", "edges", "missing", "max_degree", "mean_degree",
                 "clustering", "gnm_clustering", "csr_digest"],
                [(num_nodes, edges, missing, result["max_degree"],
                  result["mean_degree"], result["clustering"],
                  result["gnm_clustering"], result["digest"])],
                title="Scale: Holme-Kim social source graph (edges_per_node=9)",
            ),
        )
        bytes_per_edge = result["grown_bytes"] / edges
        print(
            f"build {result['build_s']:.1f} s, peak RSS "
            f"{result['peak_rss'] / 2**20:.0f} MiB "
            f"({result['peak_rss'] / edges:.0f} B/edge), "
            f"{bytes_per_edge:.0f} B/edge over the import baseline"
        )

        assert result["connected"]
        assert 0 <= missing <= num_nodes // 1000
        assert result["max_degree"] >= _HUB_RATIO * result["mean_degree"]
        if result["clustering"] is not None:
            assert result["clustering"] >= _CLUSTERING_RATIO * result["gnm_clustering"]
        assert bytes_per_edge <= _BYTES_PER_EDGE
        if scale is PAPER:
            assert result["digest"] == _FULL_DIGEST
