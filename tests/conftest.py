"""Shared fixtures for the test suite."""

from __future__ import annotations

import faulthandler
import os
import sys

import numpy as np
import pytest

from repro import SystemConfig
from repro.graphs import FlatSnapshot
from repro.rng import RandomStreams

from .csr import graph_from_edges

#: Seconds one test may run before the whole run stops with every
#: thread's traceback.  The slowest test takes about 5 s on a 2-core
#: host; a kernel that stops terminating would otherwise hold the run
#: until the CI job's own limit.
TEST_DEADLINE_S = 120.0

#: A copy of the terminal's stderr taken before any test captures it:
#: the traceback must outlive the process, the capture buffer does not.
_STDERR_FD = []


def pytest_configure(config):
    _STDERR_FD.append(os.dup(sys.stderr.fileno()))


def pytest_unconfigure(config):
    while _STDERR_FD:
        os.close(_STDERR_FD.pop())


@pytest.fixture(autouse=True)
def _deadline():
    """Fail a hung test with a traceback instead of hanging the run."""
    faulthandler.dump_traceback_later(
        TEST_DEADLINE_S, exit=True, file=_STDERR_FD[0]
    )
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def streams() -> RandomStreams:
    """A deterministic stream factory."""
    return RandomStreams(seed=12345)


@pytest.fixture
def small_trust_graph() -> FlatSnapshot:
    """A small connected trust graph with hubs and leaves (30 nodes)."""
    # A hub-and-spoke core plus a ring, so both high- and low-degree
    # nodes exist and the graph is connected but easily partitioned.
    edges = [(0, node) for node in range(1, 10)]
    edges += [(node, node + 1) for node in range(10, 29)]
    edges += [(9, 10), (29, 0)]
    edges += [(node, (node * 7) % 10) for node in range(10, 30, 4)]
    return graph_from_edges(30, edges)


@pytest.fixture
def small_config(small_trust_graph) -> SystemConfig:
    """A config matched to the small trust graph."""
    return SystemConfig(
        num_nodes=small_trust_graph.number_of_nodes(),
        availability=0.6,
        mean_offline_time=5.0,
        lifetime_ratio=3.0,
        cache_size=40,
        shuffle_length=8,
        target_degree=10,
        seed=99,
    )
