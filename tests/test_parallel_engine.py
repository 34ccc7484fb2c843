"""Tests for the ordered fork map, ``repro.parallel.parallel_map``."""

import multiprocessing
import os

import pytest

import repro.parallel.engine as engine
from repro.errors import ParallelError
from repro.parallel import fork_available, parallel_map

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


def _square(payload):
    return payload * payload


def _always_raises(payload):
    raise ValueError(f"bad payload {payload}")


class TestSerialPath:
    def test_ordered_results(self):
        assert parallel_map(_square, [3, 1, 4, 1, 5], workers=1) == [9, 1, 16, 1, 25]

    def test_empty_specs(self):
        assert parallel_map(_square, [], workers=1) == []
        assert parallel_map(_square, [], workers=4) == []

    def test_bad_workers(self):
        for workers in (0, -1):
            with pytest.raises(ParallelError, match="at least 1"):
                parallel_map(_square, [1, 2], workers=workers)

    def test_no_fork_falls_back_in_process(self, monkeypatch):
        monkeypatch.setattr(engine, "fork_available", lambda: False)
        parent = os.getpid()
        assert parallel_map(lambda _: os.getpid(), [1, 2, 3], workers=3) == [
            parent
        ] * 3


@needs_fork
class TestParallelPool:
    def test_ordered_results_across_workers(self):
        assert parallel_map(_square, list(range(10)), workers=3) == [
            n * n for n in range(10)
        ]

    def test_matches_serial_records(self):
        payloads = [5, 3, 8, 1]
        assert parallel_map(_square, payloads, workers=4) == parallel_map(
            _square, payloads, workers=1
        )

    def test_runs_in_forked_workers_with_closures(self):
        offset = 100  # a closure: inherited at fork, never pickled
        pids = parallel_map(lambda n: (os.getpid(), n + offset), [1, 2, 3], 2)
        assert [n for _, n in pids] == [101, 102, 103]
        assert os.getpid() not in {pid for pid, _ in pids}

    def test_worker_exception_raises_parallel_error(self):
        def fails_on_two(payload):
            if payload == 2:
                raise ValueError(f"bad payload {payload}")
            return payload

        with pytest.raises(ParallelError) as excinfo:
            parallel_map(fails_on_two, [0, 1, 2, 3], workers=2)
        message = str(excinfo.value)
        assert message.startswith("item 2: ValueError: bad payload 2")
        assert "Traceback" in message  # the worker's traceback text
        assert multiprocessing.active_children() == []

    def test_worker_death_raises_and_reaps(self):
        def crash_on_boom(payload):
            if payload == "boom":
                os._exit(13)
            return payload

        with pytest.raises(ParallelError, match=r"item 1: .*exit code 13"):
            parallel_map(crash_on_boom, ["a", "boom", "b"], workers=2)
        assert multiprocessing.active_children() == []

    def test_unpicklable_outcome_reported_not_fatal(self):
        def returns_lambda(payload):
            return lambda: payload

        with pytest.raises(ParallelError, match=r"item \d: outcome is not picklable"):
            parallel_map(returns_lambda, [1, 2], workers=2)
        assert multiprocessing.active_children() == []


class TestParallelMap:
    def test_serial_map(self):
        assert parallel_map(_square, [1, 2, 3], workers=1) == [1, 4, 9]

    @needs_fork
    def test_parallel_map_ordered(self):
        assert parallel_map(_square, [4, 3, 2, 1], workers=3) == [16, 9, 4, 1]

    def test_failure_raises_with_details(self):
        with pytest.raises(ParallelError, match="item 0"):
            parallel_map(_always_raises, [1], workers=1)
