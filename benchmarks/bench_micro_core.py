"""Micro-benchmarks of the protocol's hot paths.

These use pytest-benchmark's normal statistical mode (the operations
are microseconds-scale): slot-sampler batch folding, cache merging,
snapshot construction, and the connectivity metric.
"""

import numpy as np

from repro import Overlay, SystemConfig
from repro.core import ArenaCache, ArenaSlots, NodeArena, Pseudonym
from repro.graphs import SnapshotAnalysis
from repro.privlink import Address
from repro.experiments import SMOKE, make_config, make_trust_graph

from conftest import SEED


def _slots(size):
    arena = NodeArena(node_chunk=1)
    arena.register_node(0, size, 1)
    return ArenaSlots(arena, 0, size, np.random.default_rng(SEED))


def _cache(capacity):
    arena = NodeArena(node_chunk=1)
    arena.register_node(0, 0, capacity)
    return ArenaCache(arena, 0, capacity)


def _pseudonyms(count, seed=0):
    rng = np.random.default_rng(seed)
    return [
        Pseudonym(
            value=int(value),
            address=Address(int(value) + 1),
            expires_at=float(expiry),
        )
        for value, expiry in zip(
            rng.integers(0, 1 << 62, size=count),
            rng.uniform(10.0, 1000.0, size=count),
        )
    ]


class TestSlotMicro:
    def test_bench_offer_batch_40_into_50(self, benchmark):
        slots = _slots(50)
        batch = _pseudonyms(40)
        benchmark(slots.offer_batch, batch)

    def test_bench_offer_single(self, benchmark):
        slots = _slots(50)
        pseudonym = _pseudonyms(1)[0]
        benchmark(slots.offer, pseudonym)

    def test_bench_sample(self, benchmark):
        slots = _slots(50)
        slots.offer_batch(_pseudonyms(200))
        result = benchmark(slots.sample)
        assert result


class TestCacheMicro:
    def test_bench_merge_40_into_400(self, benchmark):
        cache = _cache(400)
        cache.merge(_pseudonyms(400, seed=1), now=0.0)
        batch = _pseudonyms(40, seed=2)
        benchmark(cache.merge, batch, 1.0)

    def test_bench_select_for_shuffle(self, benchmark):
        cache = _cache(400)
        cache.merge(_pseudonyms(400, seed=1), now=0.0)
        rng = np.random.default_rng(SEED)
        result = benchmark(cache.select_for_shuffle, rng, 39, 1.0)
        assert len(result) == 39


class TestSnapshotMicro:
    def _converged_overlay(self):
        graph = make_trust_graph(SMOKE, f=0.5, seed=SEED)
        config = make_config(SMOKE, alpha=0.5, f=0.5, seed=SEED)
        overlay = Overlay.build(graph, config, with_churn=False)
        overlay.start()
        overlay.run_until(15.0)
        return overlay

    def test_bench_snapshot(self, benchmark):
        overlay = self._converged_overlay()
        snapshot = benchmark(overlay.snapshot)
        assert snapshot.number_of_nodes() == SMOKE.num_nodes

    def test_bench_fraction_disconnected(self, benchmark):
        overlay = self._converged_overlay()
        snapshot = overlay.snapshot()
        # A fresh analysis per call: the labeling is cached per instance.
        result = benchmark(lambda: SnapshotAnalysis(snapshot).fraction_disconnected())
        assert 0.0 <= result <= 1.0


class TestSimulationMicro:
    def test_bench_one_shuffle_period(self, benchmark):
        """Cost of advancing a converged smoke-scale system one period."""
        graph = make_trust_graph(SMOKE, f=0.5, seed=SEED)
        config = make_config(SMOKE, alpha=0.5, f=0.5, seed=SEED)
        overlay = Overlay.build(graph, config, with_churn=False)
        overlay.start()
        overlay.run_until(10.0)
        state = {"now": 10.0}

        def advance():
            state["now"] += 1.0
            overlay.run_until(state["now"])

        benchmark.pedantic(advance, rounds=30, iterations=1)
