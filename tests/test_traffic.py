"""Tests for the observer traffic log.

:class:`TrafficLog` stores observations columnar; every query it
answers is also checked against a plain list of the recorded tuples.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro.privlink import TrafficLog


class TestTrafficLog:
    def test_records(self):
        log = TrafficLog()
        log.record(1.0, "node:0", "relay:1")
        log.record(2.0, "relay:1", "node:2")
        assert len(log) == 2

    def test_disabled_log_ignores(self):
        log = TrafficLog(enabled=False)
        log.record(1.0, "a", "b")
        assert len(log) == 0

    def test_channels(self):
        log = TrafficLog()
        log.record(1.0, "a", "b")
        log.record(2.0, "a", "b")
        log.record(3.0, "b", "c")
        assert log.channels()[("a", "b")] == 2

    def test_by_endpoint(self):
        log = TrafficLog()
        log.record(1.0, "a", "b")
        log.record(2.0, "b", "c")
        grouped = log.by_endpoint()
        assert len(grouped["b"]) == 2
        assert len(grouped["a"]) == 1

    def test_window(self):
        log = TrafficLog()
        for time in (0.5, 1.5, 2.5):
            log.record(time, "a", "b")
        assert len(log.window(1.0, 2.0)) == 1

    def test_unique_endpoints(self):
        log = TrafficLog()
        log.record(1.0, "a", "b")
        log.record(2.0, "b", "c")
        assert log.unique_endpoints() == ("a", "b", "c")

    def test_max_records(self):
        log = TrafficLog(max_records=1)
        log.record(1.0, "a", "b")
        log.record(2.0, "c", "d")
        assert len(log) == 1
        assert log.dropped == 1

    def test_max_records_counts_every_overflow(self):
        log = TrafficLog(max_records=2)
        for time in range(5):
            log.record(float(time), "a", "b")
        assert len(log) == 2
        assert log.dropped == 3
        assert [record.time for record in log] == [0.0, 1.0]

    def test_clear(self):
        log = TrafficLog(max_records=1)
        log.record(1.0, "a", "b")
        log.clear()
        assert len(log) == 0
        assert log.dropped == 0

    def test_clear_resets_interning_and_accepts_new_records(self):
        log = TrafficLog(max_records=1)
        log.record(1.0, "a", "b")
        log.record(2.0, "c", "d")
        assert log.dropped == 1
        log.clear()
        assert log.endpoint_names() == ()
        assert log.endpoint_id("a") is None
        log.record(3.0, "x", "y")
        assert len(log) == 1
        assert log.endpoint_names() == ("x", "y")

    def test_disabled_log_allocates_nothing(self):
        log = TrafficLog(enabled=False)
        assert not log.enabled
        for time in range(100):
            log.record(float(time), "a", "b")
        assert len(log) == 0
        assert log.endpoint_names() == ()
        times, srcs, dsts, sizes = log.columns()
        assert times.size == srcs.size == dsts.size == sizes.size == 0


class TestColumnarStorage:
    def test_endpoints_interned_in_first_sight_order(self):
        log = TrafficLog()
        log.record(1.0, "b", "a")
        log.record(2.0, "a", "c")
        log.record(3.0, "b", "c")
        assert log.endpoint_names() == ("b", "a", "c")
        assert log.endpoint_id("a") == 1
        assert log.endpoint_id("missing") is None
        _, srcs, dsts, _ = log.columns()
        assert srcs.tolist() == [0, 1, 0]
        assert dsts.tolist() == [1, 2, 2]

    def test_records_survive_chunk_boundaries(self):
        log = TrafficLog(chunk_records=4)
        for index in range(11):
            log.record(float(index), f"src:{index % 3}", "dst", size_hint=index)
        assert len(log) == 11
        times, srcs, dsts, sizes = log.columns()
        assert times.tolist() == [float(index) for index in range(11)]
        assert sizes.tolist() == list(range(11))
        assert times.dtype == np.float64
        assert srcs.dtype == dsts.dtype == sizes.dtype == np.uint32
        records = list(log)
        assert [record.time for record in records] == times.tolist()
        assert [record.src for record in records] == [
            f"src:{index % 3}" for index in range(11)
        ]

    def test_columns_are_snapshots(self):
        log = TrafficLog(chunk_records=4)
        for index in range(6):
            log.record(float(index), "a", "b")
        times, _, _, _ = log.columns()
        log.record(6.0, "a", "b")
        assert times.size == 6
        assert log.columns()[0].size == 7

    def test_invalid_chunk_records_rejected(self):
        with pytest.raises(ValueError, match="chunk_records"):
            TrafficLog(chunk_records=0)

    def test_columnar_memory_per_record_is_bounded(self):
        records = 150_000
        log = TrafficLog()
        for index in range(records):
            log.record(index * 1e-3, f"node:{index % 61}", f"relay:{index % 32}")
        # 20 bytes of columns per record plus the interning tables.
        assert log.memory_bytes() <= 24 * records


class TestLegacyEquivalence:
    """Every query against a plain list of the recorded tuples."""

    @pytest.fixture()
    def pair(self):
        rng = np.random.default_rng(42)
        columnar = TrafficLog(chunk_records=64)
        expected = []
        endpoints = [f"endpoint:{index}" for index in range(17)]
        for time, src, dst, size in zip(
            np.cumsum(rng.random(1000)),
            rng.integers(0, 17, 1000),
            rng.integers(0, 17, 1000),
            rng.integers(1, 100, 1000),
        ):
            row = (float(time), endpoints[src], endpoints[dst], int(size))
            columnar.record(*row)
            expected.append(row)
        return columnar, expected

    def test_record_views_identical(self, pair):
        columnar, expected = pair
        assert len(columnar) == len(expected)
        assert [dataclasses.astuple(record) for record in columnar] == expected

    def test_channels_identical(self, pair):
        columnar, expected = pair
        assert columnar.channels() == Counter(
            (src, dst) for _, src, dst, _ in expected
        )

    def test_by_endpoint_identical(self, pair):
        columnar, expected = pair
        grouped = {}
        for row in expected:
            grouped.setdefault(row[1], []).append(row)
            grouped.setdefault(row[2], []).append(row)
        assert {
            endpoint: [dataclasses.astuple(record) for record in records]
            for endpoint, records in columnar.by_endpoint().items()
        } == grouped

    def test_window_identical(self, pair):
        columnar, expected = pair
        assert [
            dataclasses.astuple(record) for record in columnar.window(100.0, 300.0)
        ] == [row for row in expected if 100.0 <= row[0] < 300.0]
        assert columnar.window(1e9, 2e9) == []

    def test_unique_endpoints_identical(self, pair):
        columnar, expected = pair
        assert columnar.unique_endpoints() == tuple(
            sorted({name for row in expected for name in row[1:3]})
        )
