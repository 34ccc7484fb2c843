"""Tests for broadcast coverage and latency, read off the record."""

import pytest

from repro.dissemination import BroadcastRecord


class TestBroadcastRecord:
    def test_origin_counted(self):
        record = BroadcastRecord(1, origin=0, started_at=10.0)
        assert record.deliveries() == 1
        assert record.latency_of(0) == 0.0

    def test_latency_of_unreached_is_none(self):
        record = BroadcastRecord(1, origin=0, started_at=0.0)
        assert record.latency_of(5) is None

    def test_max_latency(self):
        record = BroadcastRecord(1, origin=0, started_at=10.0)
        record.delivery_times[1] = 12.0
        record.delivery_times[2] = 15.0
        assert record.latency_percentile(100.0) == pytest.approx(5.0)


def _audience_latencies(record, audience):
    """Latencies of the audience members the broadcast reached."""
    latencies = [record.latency_of(node) for node in audience]
    return [latency for latency in latencies if latency is not None]


class TestCoverageReport:
    """Coverage of a target audience is the share of it whose
    ``latency_of`` is not None; no separate report type exists."""

    def _record(self):
        record = BroadcastRecord(7, origin=0, started_at=10.0)
        record.delivery_times[1] = 11.0
        record.delivery_times[2] = 12.0
        record.forwards = 9
        return record

    def test_full_population(self):
        record = self._record()
        assert len(_audience_latencies(record, [0, 1, 2])) == 3
        assert record.coverage(3) == 1.0
        assert record.forwards == 9

    def test_partial_population(self):
        reached = _audience_latencies(self._record(), [0, 1, 2, 3, 4])
        assert len(reached) / 5 == pytest.approx(0.6)

    def test_latency_statistics(self):
        reached = _audience_latencies(self._record(), [1, 2])
        assert sum(reached) / len(reached) == pytest.approx(1.5)
        assert max(reached) == pytest.approx(2.0)

    def test_unreached_population(self):
        assert _audience_latencies(self._record(), [8, 9]) == []
