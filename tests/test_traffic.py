"""Tests for the observer traffic log.

:class:`TrafficLog` stores observations columnar and indexes them (time
bounds per sealed chunk, one folded channel table); every query it
answers — on a log or on a :meth:`TrafficLog.window` of one — is also
checked against a plain list of the recorded tuples.
"""

import dataclasses
import gc
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from repro.privlink import TrafficLog, make_mixnet_link_layer
from repro.sim import Simulator


def _in_window(rows, start, end):
    return [row for row in rows if start <= row[0] < end]


def _assert_answers(log, rows):
    """Every read of ``log`` equals a plain scan of ``rows``."""
    assert len(log) == len(rows)
    assert [dataclasses.astuple(record) for record in log] == rows
    assert log.channels() == Counter((src, dst) for _, src, dst, _ in rows)
    assert log.unique_endpoints() == tuple(
        sorted({name for row in rows for name in row[1:3]})
    )
    times, srcs, dsts, sizes = columns = log.columns()
    names = log.endpoint_names()
    assert [
        (time, names[src], names[dst], size)
        for time, src, dst, size in zip(*(column.tolist() for column in columns))
    ] == rows
    assert times.dtype == np.float64
    assert srcs.dtype == dsts.dtype == sizes.dtype == np.uint32
    assert not any(column.flags.writeable for column in columns if column.size)


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
        assert len(columnar.window(1e9, 2e9)) == 0

    def test_unique_endpoints_identical(self, pair):
        columnar, expected = pair
        assert columnar.unique_endpoints() == tuple(
            sorted({name for row in expected for name in row[1:3]})
        )


class TestImmutableColumns:
    @pytest.mark.parametrize("records", [1, 3, 9])
    def test_columns_cannot_rewrite_the_log(self, records):
        """``columns()`` used to hand out a lone sealed chunk writable:
        ``log.columns()[0][0] = 99.0`` rewrote the record."""
        log = TrafficLog(chunk_records=4)
        for index in range(records):
            log.record(float(index), "a", "b")
        # The log, a window of whole chunks, a window with a masked chunk.
        for view in (log, log.window(0.0, 100.0), log.window(0.0, records - 0.5)):
            for column in view.columns():
                with pytest.raises(ValueError, match="read-only"):
                    column[0] = 99
            assert [record.time for record in view] == [
                float(index) for index in range(records)
            ]


class TestOrderFreedom:
    """The log is in ``record()`` order, which is not time order."""

    @pytest.fixture(scope="class")
    def mixnet_log(self):
        sim = Simulator()
        log = TrafficLog(chunk_records=64)
        layer = make_mixnet_link_layer(
            sim, np.random.default_rng(7), num_relays=10, hop_latency=0.05, traffic=log
        )
        for node_id in range(8):
            layer.register_node(node_id, lambda payload: None, lambda: True)
        addresses = [layer.create_endpoint(owner) for owner in range(4)]

        def burst(wave):
            for sender in range(8):
                layer.send_to_node(sender, (sender + 1) % 8, ("n", wave, sender))
                layer.send_to_endpoint(
                    sender, addresses[(sender + wave) % 4], ("e", wave, sender)
                )

        for wave in range(20):
            sim.post(0.02 * wave, burst, wave)
        sim.run_until(5.0)
        return log, [dataclasses.astuple(record) for record in log]

    def test_windows_of_an_unordered_log(self, mixnet_log):
        log, rows = mixnet_log
        times = [row[0] for row in rows]
        # A return circuit is recorded at now + delay, ahead of events
        # that record at an earlier now; without this the test is idle.
        assert sum(later < earlier for earlier, later in zip(times, times[1:])) > 50
        recorded = sorted(times)[len(times) // 3]
        grid = [
            (2.0, 3.0),  # past every record
            (-1.0, 0.0),  # before every record ([start, end) excludes 0.0)
            (0.1, 0.1005),  # inside one chunk
            (0.15, 0.45),  # straddling several
            (float("-inf"), float("inf")),
            (0.3, 0.3),  # start == end
            (recorded, 0.6),  # an edge equal to a recorded time
            (0.05, recorded),
            (0.6, 0.2),  # start > end
        ]
        inner = (0.2, recorded)
        for start, end in grid:
            view = log.window(start, end)
            expected = _in_window(rows, start, end)
            _assert_answers(view, expected)
            _assert_answers(view.window(*inner), _in_window(expected, *inner))
        assert len(log.window(2.0, 3.0)) == 0 and len(log.window(0.15, 0.45)) > 64
        # Trap (b): the window shares the interning table, not the endpoints.
        assert set(log.window(0.0, 0.01).unique_endpoints()) < set(log.unique_endpoints())
        assert log.window(0.0, 0.01).endpoint_names() == log.endpoint_names()
        _assert_answers(log, rows)


_ENDPOINTS = [f"endpoint:{index}" for index in range(7)]


@pytest.mark.parametrize("max_records", [None, 10])
@pytest.mark.parametrize("chunk_records", [1, 4, 64])
@pytest.mark.parametrize("seed", [0, 1])
def test_random_interleaving_against_a_plain_list(seed, chunk_records, max_records):
    """Queries interleave with appends: a query seals a partial chunk,
    ``max_records`` stops rows mid-buffer, ``clear()`` rebinds the
    tables — and a window taken earlier keeps answering as it did."""
    rng = np.random.default_rng(seed)
    log = TrafficLog(max_records=max_records, chunk_records=chunk_records)
    rows, dropped, held = [], 0, []

    def random_window():
        # Edges fall on recorded times as often as between them.
        start, width = rng.integers(-4, 36) / 4.0, rng.choice([0.0, 0.5, 3.0, 20.0])
        return float(start), float(start + width)

    for step in range(300):
        action = rng.choice(
            ["record"] * 12
            + ["channels", "window", "columns", "iterate", "endpoints", "memory"]
        )
        if step % 97 == 96:
            action = "clear"
        if action == "record":
            # Times are unordered and repeat.
            row = (
                float(rng.integers(0, 17)) / 2.0,
                _ENDPOINTS[rng.integers(0, 7)],
                _ENDPOINTS[rng.integers(0, 7)],
                int(rng.integers(1, 100)),
            )
            log.record(*row)
            if max_records is not None and len(rows) >= max_records:
                dropped += 1
            else:
                rows.append(row)
        elif action == "channels":
            assert log.channels() == Counter((src, dst) for _, src, dst, _ in rows)
        elif action == "window":
            start, end = random_window()
            view = log.window(start, end)
            held = held[-5:] + [(view, _in_window(rows, start, end))]
        elif action == "columns":
            assert log.columns()[0].tolist() == [row[0] for row in rows]
        elif action == "iterate":
            assert [dataclasses.astuple(record) for record in log] == rows
        elif action == "endpoints":
            assert log.unique_endpoints() == tuple(
                sorted({name for row in rows for name in row[1:3]})
            )
        elif action == "memory":
            assert log.memory_bytes() >= 20 * len(rows)
        else:
            log.clear()
            rows, dropped = [], 0
        assert len(log) == len(rows) and log.dropped == dropped
        for view, expected in held:
            view.record(1.0, "intruder", "intruder")  # a view accepts nothing
            _assert_answers(view, expected)
            inner = random_window()
            _assert_answers(view.window(*inner), _in_window(expected, *inner))
    _assert_answers(log, rows)
    assert "intruder" not in log.endpoint_names()


class TestQueryCost:
    """Cost follows the answer — pinned by counting, not by a clock."""

    def test_channels_folds_each_sealed_chunk_exactly_once(self, monkeypatch):
        calls = []
        unique = np.unique

        def counting_unique(*args, **kwargs):
            calls.append(len(args[0]))
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counting_unique)
        log = TrafficLog(chunk_records=8)
        rows = []

        def record(count):
            for _ in range(count):
                index = len(rows)
                rows.append((float(index), f"src:{index % 5}", f"dst:{index % 3}", 1))
                log.record(*rows[-1])

        def expected():
            return Counter((src, dst) for _, src, dst, _ in rows)

        record(20)  # two full chunks and a partial one, sealed by the query
        assert log.channels() == expected()
        assert calls == [8, 8, 4]
        del calls[:]
        assert log.channels() == expected()
        assert log.unique_endpoints() == tuple(
            sorted({name for row in rows for name in row[1:3]})
        )
        assert calls == []  # unchanged log: no array work at all
        record(24)  # k = 3 new sealed chunks
        assert log.channels() == expected()
        assert calls == [8, 8, 8]
        del calls[:]
        log.clear()
        del rows[:]
        record(3)
        assert log.channels() == expected()  # clear() reset the fold
        assert calls == [3]

    def test_channels_order_ignores_the_query_history(self):
        """The fold adds new channels to the table as queries meet them;
        the answer is in packed-id order all the same."""
        rows = [(float(index), f"src:{(index * 7) % 5}", f"dst:{index % 3}") for index in range(40)]
        quiet, queried = TrafficLog(chunk_records=4), TrafficLog(chunk_records=4)
        for row in rows:
            quiet.record(*row)
            queried.record(*row)
            queried.channels()
        assert list(queried.channels().items()) == list(quiet.channels().items())

    def test_window_allocates_what_it_returns(self):
        records = 1 << 18
        log = TrafficLog()
        for index in range(records):
            log.record(float(index), f"node:{index % 61}", f"relay:{index % 32}")
        column_bytes = 20 * records
        assert column_bytes <= log.memory_bytes() <= 20.1 * records

        def traced(query):
            tracemalloc.start()
            try:
                result = query()
                return result, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # 1/16 of the log, inside one chunk: one masked copy, no records.
        start = 70_000.0
        sixteenth, peak = traced(lambda: log.window(start, start + records / 16))
        assert peak < column_bytes / 4
        count, peak = traced(lambda: len(sixteenth))
        assert count == records // 16 and peak < 1024
        # A whole chunk is shared, not copied.
        chunk, peak = traced(lambda: log.window(65536.0, 131072.0))
        assert len(chunk) == 65536 and peak < 4096
        # Chunks whose bounds miss the interval are not even masked.
        miss, peak = traced(lambda: log.window(1e9, 2e9))
        assert len(miss) == 0 and list(miss) == [] and peak < 4096
        assert sixteenth.channels() == Counter(
            (f"node:{index % 61}", f"relay:{index % 32}")
            for index in range(70_000, 70_000 + records // 16)
        )


def _state(log):
    """Everything a caller can read off a log."""
    return (
        len(log),
        log.dropped,
        [dataclasses.astuple(record) for record in log],
        log.channels(),
        log.endpoint_names(),
        log.memory_bytes(),
    )


_BAD_ROWS = [
    pytest.param((2.0, "a", "b", -1), OverflowError, id="size-negative"),
    pytest.param((2.0, "a", "b", 1 << 32), OverflowError, id="size-too-wide"),
    pytest.param((2.0, "a", "b", "7"), TypeError, id="size-not-a-number"),
    pytest.param(("soon", "a", "b", 7), TypeError, id="time-not-a-number"),
    pytest.param((None, "new", "b", 7), TypeError, id="time-none-new-src"),
    pytest.param((2.0, ["a"], "b", 7), TypeError, id="src-unhashable"),
    pytest.param((2.0, "new", ["b"], 7), TypeError, id="dst-unhashable-new-src"),
]


class TestRejectedRow:
    """A row the columns cannot hold is refused at ``record()``.

    It used to be buffered: ``record(2.0, "a", "b", size_hint=-1)``
    succeeded and every later ``channels()`` / ``columns()`` /
    ``window()`` / ``memory_bytes()`` raised, for good, at the seal."""

    @pytest.mark.parametrize("chunk_records", [1, 2, 3, 65536])
    @pytest.mark.parametrize("row, error", _BAD_ROWS)
    def test_a_rejected_row_leaves_the_log_unchanged(self, row, error, chunk_records):
        """``twin`` is never offered the bad row.  With ``chunk_records``
        2 the first rejected row is the one that would have sealed."""
        log, twin = (TrafficLog(chunk_records=chunk_records) for _ in range(2))
        rows = []
        for good in [(1.0, "a", "b", 5), (3.0, "b", "c", 9), (4.0, "c", "c", 11), (5.0, "d", "a", 13)]:
            rows.append(good)
            twin.record(*good)
            log.record(*good)
            for _ in range(2):
                with pytest.raises(error):
                    log.record(*row)
            # Reads that leave the buffer as it is: ragged columns would
            # pair the next good row with the rejected row's fields.
            assert (len(log), log.dropped) == (len(rows), 0)
            assert log.endpoint_names() == twin.endpoint_names()
            assert list(log) == list(twin)
            if len(rows) % 2 == 0:  # reads that seal it
                _assert_answers(log, rows)
                _assert_answers(twin, rows)
                _assert_answers(log.window(2.5, 4.5), rows[1:3])
        assert _state(log) == _state(twin)

    @pytest.mark.skipif(
        sys.version_info < (3, 10), reason="array('I') truncated floats, with a warning"
    )
    def test_fractional_size_hint_is_rejected(self):
        """It used to iterate as 1.5 before the seal and 1 after it."""
        log = TrafficLog()
        with pytest.raises(TypeError):
            log.record(1.0, "a", "b", size_hint=1.5)
        assert _state(log) == _state(TrafficLog())

    def test_a_rejected_row_is_not_counted_against_max_records(self):
        log = TrafficLog(max_records=2)
        log.record(1.0, "a", "b")
        with pytest.raises(OverflowError):
            log.record(2.0, "a", "b", size_hint=-1)
        log.record(3.0, "a", "b")
        log.record(4.0, "a", "b")
        assert (len(log), log.dropped) == (2, 1)
        assert [record.time for record in log] == [1.0, 3.0]


_TIME_TYPES = [int, float, np.float64]
_SIZE_TYPES = [int, bool, np.uint32]


@pytest.mark.parametrize("max_records", [None, 10])
@pytest.mark.parametrize("chunk_records", [1, 4, 64])
def test_the_unsealed_tail_is_the_same_log(chunk_records, max_records):
    """A row reads the same — values and Python types — from the append
    buffer and, after a seal, from the chunk, whatever it was recorded as."""
    rng = np.random.default_rng(chunk_records)
    log = TrafficLog(max_records=max_records, chunk_records=chunk_records)

    def record(count, rows):
        for _ in range(count):
            time = _TIME_TYPES[rng.integers(0, 3)](rng.integers(0, 17))
            size = _SIZE_TYPES[rng.integers(0, 3)](rng.integers(0, 2))
            src, dst = _ENDPOINTS[rng.integers(0, 7)], _ENDPOINTS[rng.integers(0, 7)]
            log.record(time, src, dst, size)
            if max_records is None or len(rows) < max_records:
                rows.append((float(time), src, dst, int(size)))

    def typed(rows):
        return [[(type(field), field) for field in row] for row in rows]

    def read(source):
        return typed(dataclasses.astuple(record) for record in source)

    for _ in range(2):
        rows = []
        record(7, rows)  # max_records 10 stops the second batch mid-buffer
        buffered = read(log)
        assert buffered == typed(rows)
        # The window seals first, so it sees rows that were still buffered ...
        view = log.window(-1.0, 100.0)
        _assert_answers(view, rows)
        assert read(log) == read(view) == buffered
        # ... and never the ones appended after it was taken.
        held = list(rows)
        record(7, rows)
        assert len(rows) == (14 if max_records is None else 10)
        assert log.dropped == 14 - len(rows)
        _assert_answers(view, held)
        tail = read(log)
        assert tail[:7] == buffered
        log.columns()  # seals whatever is still buffered
        assert read(log) == tail
        _assert_answers(log, rows)
        log.clear()
        _assert_answers(log, [])
        _assert_answers(view, held)


class TestCollectorNeverSeesARow:
    """The write path allocates nothing that outlives the call — pinned
    by counting collections and bytes, not by a clock."""

    def test_recording_triggers_no_collection(self):
        """A buffer of per-row containers (tuples: 506 / 45 / 4
        collections here) is walked by the cyclic collector row by row."""
        names = [sys.intern(f"endpoint:{index}") for index in range(80)]
        collections = [0, 0, 0]

        def count(phase, info):
            if phase == "start":
                collections[info["generation"]] += 1

        log = TrafficLog()
        record = log.record
        gc.collect()
        before = gc.get_count()[0]
        gc.callbacks.append(count)
        try:
            for index in range(200_000):
                record(float(index), names[index % 80], names[(index * 7 + 3) % 80])
            tracked = gc.get_count()[0] - before
        finally:
            gc.callbacks.remove(count)
        assert collections == [0, 0, 0]
        assert tracked < 200  # a few tracked objects per seal, none per row
        assert len(log) == 200_000 and len(log.channels()) == 80

    def test_a_seal_allocates_the_chunk_and_nothing_else(self):
        """Transposing 65,536 tuples took 4.8 x the chunk: ``zip(*rows)``
        alone is 2 MiB of pointers beside 1.25 MiB of columns."""
        log = TrafficLog()
        for index in range(65535):
            log.record(float(index), "a", "b", index)
        tracemalloc.start()
        try:
            log.record(65535.0, "b", "a", 65535)  # seals
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        column_bytes = 20 * 65536
        assert peak < 1.25 * column_bytes
        assert column_bytes <= log.memory_bytes() < column_bytes + 2048
        assert log.columns()[3].tolist() == list(range(65536))
