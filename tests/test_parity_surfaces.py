"""Twin implementations keep one driving surface.

Each pair below is compared by a differential or golden test elsewhere
(named beside it).  Those tests drive both sides through the same
calls, so a parameter renamed or reordered on one side only would make
them stop exercising the same run; this test reads the signatures off
the real objects and fails first.  Only the named parameters are
compared, by relative order.
"""

import importlib
import inspect

import pytest

# name: (fast module, reference module, [(fast symbol, reference symbol, shared)])
PAIRS = {
    # tests/test_shard.py; the observation methods are inherited (below)
    "sharded-batch": ("repro.parallel.shard", "repro.core.batch", [
        ("ShardedOverlay.run", "BatchOverlay.run", ("rounds",)),
        ("ShardedOverlay.build", "BatchOverlay.build",
         ("config", "extra_edges_per_node", "start_all_online")),
    ]),
    # tests/test_dissemination_batch.py::TestDifferentialExactness
    "dissemination-plane": ("repro.dissemination.batch", "repro.dissemination.epidemic", [
        ("BatchBroadcastEngine.__init__", "EpidemicBroadcast.__init__",
         ("fanout", "ttl", "infect_forever")),
        ("BatchBroadcastEngine.broadcast", "EpidemicBroadcast.broadcast",
         ("origin_id", "payload")),
    ]),
    # the one record surface: the examples and perfbench's broadcast_waves
    # check read either plane's records through it
    "broadcast-ledger": ("repro.dissemination.batch", "repro.dissemination.base", [
        ("LedgerRecordView.latency_of", "BroadcastRecord.latency_of", ("node_id",)),
        ("LedgerRecordView.coverage", "BroadcastRecord.coverage", ("num_nodes",)),
        ("LedgerRecordView.latency_percentile", "BroadcastRecord.latency_percentile",
         ("q",)),
    ]),
    # tests/test_net_clock.py: protocol objects run on either clock
    "net-clock": ("repro.net.clock", "repro.sim.simulator", [
        ("WallClock.schedule", "Simulator.schedule", ("time", "callback")),
        ("WallClock.schedule_after", "Simulator.schedule_after", ("delay", "callback")),
        ("WallClock.post", "Simulator.post", ("time", "callback")),
        ("WallClock.post_after", "Simulator.post_after", ("delay", "callback")),
    ]),
}

CASES = [
    pytest.param(fast_module, fast, ref_module, ref, shared, id=f"{name}:{ref}")
    for name, (fast_module, ref_module, symbols) in PAIRS.items()
    for fast, ref, shared in symbols
]


def _shared_parameters(module_name, symbol, shared):
    """The ``shared`` names ``module.symbol`` takes, in signature order."""
    target = importlib.import_module(module_name)
    for part in symbol.split("."):
        target = getattr(target, part)
    return [name for name in inspect.signature(target).parameters if name in shared]


@pytest.mark.parametrize("fast_module, fast, ref_module, ref, shared", CASES)
def test_pair_shares_its_parameters(fast_module, fast, ref_module, ref, shared):
    assert _shared_parameters(fast_module, fast, shared) == list(shared)
    assert _shared_parameters(ref_module, ref, shared) == list(shared)


@pytest.mark.parametrize("name", [
    "state_digest", "snapshot", "stats", "counters", "channel_edges",
    "analysis", "mean_out_degree", "memory_bytes",
])
def test_sharded_overlay_inherits_observation(name):
    """``ShardedOverlay`` only moves the engines; it observes them with
    ``BatchOverlay``'s own methods, so an override needs a reason."""
    from repro.core.batch import BatchOverlay
    from repro.parallel.shard import ShardedOverlay

    assert getattr(ShardedOverlay, name) is getattr(BatchOverlay, name)


def test_a_renamed_parameter_fails(monkeypatch):
    """The check bites: rename ``rounds`` on the sharded side only."""
    from repro.parallel.shard import ShardedOverlay

    monkeypatch.setattr(ShardedOverlay, "run", lambda self, steps: None)
    with pytest.raises(AssertionError):
        test_pair_shares_its_parameters(
            "repro.parallel.shard",
            "ShardedOverlay.run",
            "repro.core.batch",
            "BatchOverlay.run",
            ("rounds",),
        )
