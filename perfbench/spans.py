"""In-memory span recorder for the traced benchmark run.

The benchmark measures every layer from outside: it wraps each call
into a public function of ``repro`` in a span (name, start, end, the
span that caused it, the op it belongs to).  Spans stay in memory and
are written out once, when the run ends.  A layer's *self time* is its
span's duration minus the part of it its child spans cover.

Calls that happen hundreds of thousands of times per op (one per
datagram in the mesh) are *coalesced*: one record per (parent, name)
carrying a call count and the summed busy time, so tracing them costs
two clock reads and a dict update instead of a list entry each.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Dict, List, Optional, Tuple

__all__ = ["Tracer"]

_clock = time.perf_counter


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("_tracer", "_index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        stack = tracer._stack
        parent = stack[-1] if stack else None
        records = tracer.records
        self._index = len(records)
        op = records[stack[0]]["name"] if stack else name
        records.append(
            {"name": name, "op": op, "parent": parent, "count": 1,
             "start": 0.0, "busy": 0.0}
        )

    def __enter__(self) -> None:
        self._tracer._stack.append(self._index)
        self._tracer.records[self._index]["start"] = _clock()

    def __exit__(self, exc_type, exc, tb) -> None:
        end = _clock()
        record = self._tracer.records[self._index]
        record["busy"] = end - record["start"]
        self._tracer._stack.pop()


class Tracer:
    """Records spans when ``enabled``; costs one branch when not.

    A span opened while no other is open is a *root*; its name (``op:3``,
    ``setup:0``, ``finish`` …) labels every span beneath it, which is
    how per-op figures are grouped.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: List[dict] = []
        self._stack: List[int] = []
        self._coalesced: Dict[Tuple[Optional[int], str], int] = {}
        self._epoch = _clock()

    def span(self, name: str):
        """Context manager timing one call into a layer."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name)

    def coalesce(
        self, name: str, seconds: float, under: Optional[str] = None
    ) -> None:
        """Add one timed call to the coalesced record ``name``.

        The record hangs off the innermost open span, or — when
        ``under`` names another coalesced record of that span — off
        that record, so nested hot calls still subtract from their
        parent's self time.
        """
        if not self.enabled:
            return
        anchor = self._stack[-1] if self._stack else None
        parent = anchor
        if under is not None:
            # A nested call finishes before the call around it does, so
            # the enclosing record may not exist yet.
            parent = self._coalesced_index(anchor, under, anchor)
        record = self.records[self._coalesced_index(anchor, name, parent)]
        record["count"] += 1
        record["busy"] += seconds

    def _coalesced_index(
        self, anchor: Optional[int], name: str, parent: Optional[int]
    ) -> int:
        key = (anchor, name)
        index = self._coalesced.get(key)
        if index is None:
            index = len(self.records)
            self._coalesced[key] = index
            stack = self._stack
            self.records.append(
                {"name": name,
                 "op": self.records[stack[0]]["name"] if stack else name,
                 "parent": parent, "count": 0, "start": None, "busy": 0.0}
            )
        return index

    # ------------------------------------------------------------------
    # read-out
    # ------------------------------------------------------------------

    def self_times(self) -> List[float]:
        """Self time per record: busy minus what its children cover."""
        own = [record["busy"] for record in self.records]
        for record in self.records:
            if record["parent"] is not None:
                own[record["parent"]] -= record["busy"]
        return own

    def per_op(self, name: str, root: str = "op") -> List[float]:
        """Busy time of ``name`` summed within each ``root:*`` span."""
        totals: Dict[str, float] = {}
        for record in self.records:
            if record["name"] == name and record["op"].startswith(root):
                totals[record["op"]] = totals.get(record["op"], 0.0) + record["busy"]
        return list(totals.values())

    def median(self, name: str, root: str = "op") -> float:
        """Median over ops of the time ``name`` was busy in one op."""
        values = self.per_op(name, root)
        return statistics.median(values) if values else 0.0

    def total(self, name: str, root: str = "") -> float:
        """Busy time of ``name`` summed over the run."""
        return sum(self.per_op(name, root))

    def calls(self, name: str) -> int:
        """How many calls the records named ``name`` stand for."""
        return sum(r["count"] for r in self.records if r["name"] == name)

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, busy seconds, self seconds."""
        table: Dict[str, Dict[str, float]] = {}
        for record, own in zip(self.records, self.self_times()):
            row = table.setdefault(
                record["name"].split(":")[0],
                {"calls": 0, "busy_s": 0.0, "self_s": 0.0},
            )
            row["calls"] += record["count"]
            row["busy_s"] += record["busy"]
            row["self_s"] += own
        return table

    def attributed_ratio(self) -> float:
        """Share of the timed ops' wall covered by layer self times."""
        ops = 0.0
        layers = 0.0
        for record, own in zip(self.records, self.self_times()):
            if not record["op"].startswith("op:"):
                continue
            if record["parent"] is None:
                ops += record["busy"]
            else:
                layers += own
        return layers / ops if ops else 0.0

    def dump(self, path: str, header: dict) -> None:
        """Write every span (times relative to tracer creation)."""
        spans = []
        for index, record in enumerate(self.records):
            span = {"id": index, "name": record["name"], "op": record["op"],
                    "parent": record["parent"], "count": record["count"],
                    "busy_s": record["busy"]}
            if record["start"] is not None:
                span["start_s"] = record["start"] - self._epoch
                span["end_s"] = span["start_s"] + record["busy"]
            spans.append(span)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "spans": spans}, handle)
