"""The frontier kernel vs an activation-at-a-time reference.

``BatchBroadcastEngine.step`` selects channels per degree class and
suppresses duplicates columnarly.  ``ReferencePlane`` restates the same
contract the slow way — one activation at a time with
``channel_keys`` + a stable argsort, exactly the object plane's
``_send_along_links`` — and the tests require equal frontiers and
ledgers after every single step, on a hand-built snapshot that hits
every degree class and on random CSR graphs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dissemination import BatchBroadcastEngine, ChannelSnapshot, base, batch
from repro.dissemination.base import channel_keys


class ReferencePlane:
    """Mirror of an engine, advanced by looping over activations."""

    def __init__(self, engine, fanout, ttl, infect_forever, online):
        self.engine = engine
        self.fanout = fanout
        self.ttl = ttl
        self.infect_forever = infect_forever
        self.online = online
        self.delivery_rounds = []  # per broadcast: node -> round
        self.forwards = []
        self.frontier = []  # (broadcast, node, multiplicity, round)

    def start(self, origins):
        for origin in origins:
            self.frontier.append((len(self.forwards), origin, 1, 0))
            self.delivery_rounds.append({origin: 0})
            self.forwards.append(0)

    def step(self):
        snapshot = self.engine.snapshot
        arrivals = {}  # (broadcast, node) -> [round, multiplicity]
        for bid, node, mult, rnd in self.frontier:
            lo, hi = snapshot.indptr[node : node + 2]
            row = snapshot.targets[lo:hi]
            if self.fanout is not None and self.fanout < len(row):
                key = self.engine.ledger.keys[bid]
                keys = channel_keys(key, rnd, node, len(row))
                row = row[np.argsort(keys, kind="stable")[: self.fanout]]
            self.forwards[bid] += mult * len(row)
            for target in row.tolist():
                if self.online is None or self.online[target]:
                    arrivals.setdefault((bid, target), [rnd + 1, 0])[1] += mult
        self.frontier = []
        for (bid, node), (rnd, mult) in sorted(arrivals.items()):
            fresh = node not in self.delivery_rounds[bid]
            if fresh:
                self.delivery_rounds[bid][node] = rnd
            if rnd < self.ttl and (fresh or self.infect_forever):
                self.frontier.append(
                    (bid, node, mult if self.infect_forever else 1, rnd)
                )

    def assert_matches_engine(self):
        engine = self.engine
        assert self.frontier == list(
            zip(
                engine._frontier_bid.tolist(),
                engine._frontier_node.tolist(),
                engine._frontier_mult.tolist(),
                engine._frontier_round.tolist(),
            )
        )
        for bid, view in enumerate(engine.ledger.records()):
            assert view.delivery_rounds == self.delivery_rounds[bid]
            assert view.forwards == self.forwards[bid]
            assert view.deliveries() == len(self.delivery_rounds[bid])
        assert engine.total_delivered == sum(map(len, self.delivery_rounds))


def _run_lockstep(
    snapshot, origins, fanout, ttl, infect_forever, online, seed
):
    rng = None if fanout is None else np.random.default_rng(seed)
    engine = BatchBroadcastEngine(
        snapshot,
        fanout=fanout,
        ttl=ttl,
        infect_forever=infect_forever,
        rng=rng,
        online=online,
    )
    reference = ReferencePlane(engine, fanout, ttl, infect_forever, online)
    engine.start(origins)
    reference.start(origins)
    reference.assert_matches_engine()
    for _ in range(ttl + 1):
        delivered_before = engine.total_delivered
        delivered = engine.step()
        reference.step()
        reference.assert_matches_engine()
        assert delivered == engine.total_delivered - delivered_before
    assert engine.frontier_size == 0
    return engine


FANOUT = 3
HUB, ISOLATED, LEAF, EXACT, ABOVE = range(5)


def _degree_class_snapshot():
    """40 nodes whose rows hit every selection branch at fanout 3: no
    channel, one, exactly ``fanout``, ``fanout + 1`` (a duplicated
    target among them), a 500-channel hub that lists every node a dozen
    times, and a mixed-degree remainder."""
    num_nodes = 40
    rng = np.random.default_rng(11)
    rows = {
        HUB: np.arange(500) % num_nodes,
        ISOLATED: [],
        LEAF: [EXACT],
        EXACT: [HUB, ABOVE, 7],
        ABOVE: [EXACT, 9, 9, HUB],
    }
    for node in range(5, num_nodes):
        rows[node] = rng.integers(0, num_nodes, size=rng.integers(0, 9))
    degrees = [len(rows[node]) for node in range(num_nodes)]
    indptr = np.concatenate(([0], np.cumsum(degrees)))
    targets = np.concatenate(
        [np.asarray(rows[node], dtype=np.int64) for node in range(num_nodes)]
    )
    return ChannelSnapshot(indptr, targets)


class TestDegreeClasses:
    @pytest.mark.parametrize(
        "fanout, infect_forever",
        [(FANOUT, False), (FANOUT, True), (None, False)],
    )
    @pytest.mark.parametrize("with_offline", [False, True])
    def test_every_class_matches_reference(
        self, fanout, infect_forever, with_offline
    ):
        snapshot = _degree_class_snapshot()
        degrees = snapshot.degrees()[:5].tolist()
        assert degrees == [500, 0, 1, FANOUT, FANOUT + 1]
        online = None
        if with_offline:
            online = np.ones(snapshot.num_nodes, dtype=bool)
            online[[7, 9, 20]] = False
        engine = _run_lockstep(
            snapshot,
            origins=[HUB, ISOLATED, LEAF, EXACT, ABOVE],
            fanout=fanout,
            ttl=4,
            infect_forever=infect_forever,
            online=online,
            seed=3,
        )
        # The isolated origin reaches nobody; the hub's first round
        # sends `fanout` messages (or floods all 500 channels).
        assert engine.ledger.record(ISOLATED + 1).deliveries() == 1
        assert engine.ledger.record(ISOLATED + 1).forwards == 0
        assert engine.ledger.record(HUB + 1).forwards >= (fanout or 500)


@st.composite
def _dissemination_cases(draw):
    num_nodes = draw(st.integers(1, 12))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, num_nodes - 1), max_size=9),
            min_size=num_nodes,
            max_size=num_nodes,
        )
    )
    fanout = draw(st.one_of(st.none(), st.integers(1, 5)))
    infect_forever = fanout is not None and draw(st.booleans())
    online = draw(
        st.one_of(
            st.none(),
            st.lists(st.booleans(), min_size=num_nodes, max_size=num_nodes),
        )
    )
    candidates = [n for n in range(num_nodes) if online is None or online[n]]
    origins = []
    if candidates:
        origins = draw(st.lists(st.sampled_from(candidates), max_size=4))
    return dict(
        rows=rows,
        origins=origins,
        fanout=fanout,
        ttl=draw(st.integers(1, 5)),
        infect_forever=infect_forever,
        online=None if online is None else np.array(online, dtype=bool),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


class TestRandomGraphs:
    @given(case=_dissemination_cases())
    @settings(max_examples=150, deadline=None)
    def test_step_by_step_equals_reference(self, case):
        rows = case.pop("rows")
        indptr = np.concatenate(([0], np.cumsum([len(row) for row in rows])))
        targets = np.array([t for row in rows for t in row], dtype=np.int64)
        _run_lockstep(ChannelSnapshot(indptr, targets), **case)


_FRONTIER = ("_frontier_bid", "_frontier_node", "_frontier_mult", "_frontier_round")


class TestOrderIndependence:
    """Nothing in a step may depend on frontier order: every output is a
    sum or a per-cell write, which is what lets the kernel use unstable
    sorts.  Shuffling the frontier before every step must leave each
    ledger and next frontier equal to the reference's."""

    @pytest.mark.parametrize(
        "fanout, infect_forever",
        [(FANOUT, False), (FANOUT, True), (None, False)],
        ids=["infect-and-die", "infect-forever", "flooding"],
    )
    @pytest.mark.parametrize("tied", [False, True])
    def test_shuffled_frontier_steps_alike(
        self, monkeypatch, fanout, infect_forever, tied
    ):
        if tied:
            # A 2-bit hash ties keys in every row, so the boundary check
            # sends rows down the stable fallback.
            for module in (base, batch):
                monkeypatch.setattr(module, "_mix64", lambda x: x & np.uint64(3))
        snapshot = _degree_class_snapshot()
        online = np.ones(snapshot.num_nodes, dtype=bool)
        online[[7, 20]] = False
        engine = BatchBroadcastEngine(
            snapshot,
            fanout=fanout,
            ttl=4,
            infect_forever=infect_forever,
            rng=None if fanout is None else np.random.default_rng(3),
            online=online,
        )
        reference = ReferencePlane(engine, fanout, 4, infect_forever, online)
        origins = [HUB, LEAF, EXACT, ABOVE, HUB, 12]
        engine.start(origins)
        reference.start(origins)
        shuffle = np.random.default_rng(17)
        while engine.frontier_size:
            order = shuffle.permutation(engine.frontier_size)
            for name in _FRONTIER:
                setattr(engine, name, getattr(engine, name)[order])
            engine.step()
            reference.step()
            reference.assert_matches_engine()
        assert engine.total_delivered > len(origins)
