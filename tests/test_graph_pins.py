"""Graph identity pins for the trust-graph inputs of every experiment.

``make_trust_graph`` is the one input every figure, table and ablation
reads.  Each literal below is the SHA-256 of one trust graph's sorted
edge list plus the source labels of its nodes, so a change to the
social generator or the f-sampler that moves a single edge, a single
sampled node or a single rng draw fails here before it moves a
committed table.

The generator and the sampler are exact ports of an earlier networkx
implementation; the row-order pins further down were computed from
that implementation's ``list(G.adj[u])`` rows.  A source graph's row
order is part of the contract: the triad step and the sampler index
into it.  A sampled trust graph's rows are ascending; its pins hash the
rows that implementation emitted, rebuilt from the source
(:func:`legacy_rows`).
"""

import hashlib

import numpy as np
import pytest

from repro.experiments import QUICK, SMOKE, make_trust_graph
from repro.graphs import (
    generate_community_social_graph,
    generate_social_graph,
    sample_trust_graph,
)
from repro.graphs.sampling import sample_trust_members
from repro.rng import RandomStreams


def trust_digest(graph, originals) -> str:
    """SHA-256 of a trust graph's sorted edges and its nodes' source
    labels."""
    edges = np.stack((graph.edge_u, graph.edge_v), axis=1)
    hasher = hashlib.sha256()
    hasher.update(np.asarray(edges, dtype=np.int64).tobytes())
    hasher.update(np.asarray(originals, dtype=np.int64).tobytes())
    return hasher.hexdigest()


def make_trust_members(scale, f, seed):
    """The source labels ``make_trust_graph`` sampled: its recipe, walk
    only."""
    streams = RandomStreams(seed)
    source = generate_social_graph(
        scale.num_nodes * scale.source_multiplier,
        rng=streams.substream("social", scale.name),
    )
    return sample_trust_members(
        source,
        scale.num_nodes,
        f=f,
        rng=streams.substream("trust-sample", scale.name, str(f)),
    )


def _key_id(key) -> str:
    return "-".join(map(str, key))


_MAKE_TRUST_GRAPH_SHA256 = {
    ("smoke", 0.5, 1):
        "cfa5f0dff6f7fa3a863be2856137f7425ff05f249625658812b2d5a38b80152f",
    ("smoke", 0.5, 7):
        "89f7484dfeb68758f45e58e0583d3b5a4eef82c404cdbd32b2c5577b67dae759",
    ("smoke", 1.0, 1):
        "756442009a049f754ab118a1577efa95322416b3aaa65e668c4de3641471dd82",
    ("smoke", 1.0, 7):
        "5e62c69b75adea38f8298ca296c82ebe91eb068cc68fd14bb336933269c89843",
    ("quick", 0.5, 1):
        "3808933e5d9d564a84e1ca3a5dd404baf9359e4bd9013c3d26604d332db1cc42",
    ("quick", 0.5, 7):
        "45e6a9593f8165e5c0e216ead88e3eceef53287fc9b3fe3422541f2aa47c543c",
    ("quick", 1.0, 1):
        "5dd1ccd47db3c11f0a8d030651e08eaa84204a75ded6501d14ab7c489492bd7b",
    ("quick", 1.0, 7):
        "1790154a4e9b8716728e93e5e469af7e4e54b0207ad3d364f0700d4462dd04c6",
}


@pytest.mark.parametrize("key", sorted(_MAKE_TRUST_GRAPH_SHA256), ids=_key_id)
def test_make_trust_graph_is_pinned(key):
    name, f, seed = key
    scale = {"smoke": SMOKE, "quick": QUICK}[name]
    graph = make_trust_graph(scale, f, seed)
    assert graph.number_of_nodes() == scale.num_nodes
    originals = make_trust_members(scale, f, seed)
    assert trust_digest(graph, originals) == _MAKE_TRUST_GRAPH_SHA256[key]


def csr_digest(csr, originals=()) -> str:
    """SHA-256 of a CSR's ``indptr`` and ``indices`` (row order kept)."""
    hasher = hashlib.sha256()
    for column in (*csr, originals):
        hasher.update(np.asarray(column, dtype=np.int64).tobytes())
    return hasher.hexdigest()


def legacy_rows(trust, source, originals):
    """The rows the networkx sampler built for ``trust``.

    It added each edge once, members ascending, from the lower end in
    source row order, so node ``x``'s row listed its lower neighbours
    ascending, then its higher ones in the order its source row does.
    """
    indptr, indices = source
    relabel = {label: node for node, label in enumerate(originals.tolist())}
    rows = []
    for node, label in enumerate(originals.tolist()):
        neighbors = trust.neighbors(node)
        higher = [
            relabel[v]
            for v in indices[indptr[label] : indptr[label + 1]].tolist()
            if relabel.get(v, -1) > node
        ]
        assert sorted(higher) == [v for v in neighbors if v > node]
        rows.append([v for v in neighbors if v < node] + higher)
    indptr = np.cumsum([0] + [len(row) for row in rows], dtype=np.int64)
    return indptr, np.array([v for row in rows for v in row], dtype=np.int64)


def trust_rows_digest(trust, source, originals) -> str:
    """SHA-256 of a trust graph's legacy rows plus source labels."""
    return csr_digest(legacy_rows(trust, source, originals), originals)


_SOURCES = {
    "fallback-rng": lambda: generate_social_graph(60, edges_per_node=4),
    "640": lambda: generate_social_graph(640, rng=np.random.default_rng(640)),
    "quick-source": lambda: generate_social_graph(
        2000, rng=RandomStreams(1).substream("social", "quick")
    ),
    "community": lambda: generate_community_social_graph(
        1000,
        num_communities=8,
        edges_per_node=8,
        intra_probability=0.95,
        rng=RandomStreams(1).substream("community-source"),
    ),
    # The two below leave components after rewiring (six, then two), so
    # the spanning pass draws: its endpoints index into each component's
    # node list in the order the component search emits them.
    "community-unwired": lambda: generate_community_social_graph(
        300,
        num_communities=6,
        edges_per_node=4,
        intra_probability=1.0,
        rng=RandomStreams(1).substream("community-source"),
    ),
    "community-bridged": lambda: generate_community_social_graph(
        300,
        num_communities=6,
        edges_per_node=4,
        intra_probability=0.99,
        rng=RandomStreams(1).substream("community-source"),
    ),
}

_SOURCE_SHA256 = {
    "fallback-rng":
        "91ee854c892c9ace1a741549eb510a5f76b221c1a84256e79f26fe1d58322ff1",
    "640":
        "3717ed6e617067bccf4a3533d713534512ea4828de929fa3214e2293e6345e2c",
    "quick-source":
        "a3e0a12ce8077f5f9e57d172b6f846b68e22ef7527cf390a2e1cfcb6d0cff609",
    "community":
        "5b11b840083947015e997fee98cc53fb50a06fd0f1b7c29bb5c7cf0cba900fa0",
    "community-unwired":
        "7ace739e39a9c963f2a943cd648181add1fc7c8736eb977c57caf9b1e30e45dc",
    "community-bridged":
        "f35fa324da7007511b9840743ac3568aab7a4e6de92c9244722ed9297efe963c",
}


@pytest.mark.parametrize("name", sorted(_SOURCE_SHA256))
def test_source_rows_are_pinned(name):
    indptr, indices = _SOURCES[name]()
    assert indptr.dtype == indices.dtype == np.int64
    assert csr_digest((indptr, indices)) == _SOURCE_SHA256[name]


def test_quick_source_leaves_the_pinned_stream_state():
    """The generator's draw count is pinned, not only its output: a
    change that draws one word more or fewer without moving an edge
    still moves the state the caller's generator is left in."""
    rng = RandomStreams(1).substream("social", "quick")
    generate_social_graph(2000, rng=rng)
    assert rng.bit_generator.state == {
        "bit_generator": "PCG64",
        "state": {
            "state": 310110577685751323249416356173762943864,
            "inc": 34340526484476949353767181644651082595,
        },
        "has_uint32": 0,
        "uinteger": 58290972,
    }


def _small_source():
    # 120 labels: every sampled id is below the hash-table size of the
    # sampled set, so the networkx implementation's set-ordered edge
    # emission was already label-ascending and its rows are comparable.
    return generate_social_graph(120, edges_per_node=4, rng=np.random.default_rng(120))


def _tree_source():
    # edges_per_node=1 grows a tree: an f=0 walk dead-ends at leaves, so
    # the sampler takes its restart path (37 times for this draw).
    return generate_social_graph(120, edges_per_node=1, rng=np.random.default_rng(121))


#: (source, target_size, f, rng seed, start) -> rows digest.
_SAMPLE_SHA256 = {
    ("small", 40, 0.0, 0, None):
        "66ba0eeefd523c848729c52eceb627da132de37da7f1f10476dd5a1d4052402d",
    ("small", 40, 0.5, 5, None):
        "17e8e1cc46f8e992c95d266f06072c9c67cffaa11204e5b3320fbce898268fbb",
    ("small", 40, 1.0, 10, None):
        "b2c7253a6c169e2676e5ad97cf80af8b66300e75ae72dca148bacb87e7a12a9c",
    ("small", 40, 0.5, 7, 7):
        "0070dfecf1a481644cc45e07a9bda70536b499ccb266d5e45805fcf81b414bce",
    ("tree", 60, 0.0, 3, None):
        "66c67d9a6056fd6b5436b8ecec01a777f5b29fe6271edb7d70f886259d711169",
}


@pytest.mark.parametrize("key", list(_SAMPLE_SHA256), ids=_key_id)
def test_sampled_trust_graph_rows_are_pinned(key):
    source_name, size, f, seed, start = key
    source = {"small": _small_source, "tree": _tree_source}[source_name]()
    trust = sample_trust_graph(
        source, size, f, rng=np.random.default_rng(seed), start=start
    )
    originals = sample_trust_members(
        source, size, f, rng=np.random.default_rng(seed), start=start
    )
    assert trust_rows_digest(trust, source, originals) == _SAMPLE_SHA256[key]
