"""Observer-visible traffic records (columnar fast path).

External observers in the paper's threat model (Section II-D) are
passive entities — e.g. an ISP — that can watch communication channels
and apply traffic analysis, but cannot read encrypted content.  The
privacy analyses in :mod:`repro.attacks` therefore need a faithful log
of what such an observer sees: *which channel* (pair of transport
endpoints) carried a message *when*, and nothing about the content.

Every concrete link-layer implementation writes to a
:class:`TrafficLog`; the ideal layer writes single-hop records, the
mixnet writes one record per relay hop.  Mixnet-backed runs produce
one record per hop per message, so the log is the top allocator of
intensive dissemination experiments; :class:`TrafficLog` therefore
stores observations *columnar*:

* ``time`` — ``float64``, sealed into exact-size numpy chunks;
* ``src`` / ``dst`` — ``uint32`` ids into an endpoint-interning table
  (each distinct endpoint string is stored exactly once);
* ``size_hint`` — ``uint32``.

Appends land in four typed ``array.array`` buffers, one per column.  A
typed array holds machine values, not object references, so a recorded
row allocates nothing the cyclic collector tracks (a buffer of per-row
tuples cost 3,174 / 288 / 26 collections over 1.24 M rows, a third of
the mixnet benchmark; the columns cost 6 / 0 / 0, and 0.28 us a row
where the tuples took 1.15).  A full buffer is sealed into exact-size
numpy arrays with one ``memcpy`` per column.

That is 20 bytes per observation (a list of record objects costs
~150+).  Sealed chunks are immutable and append-only, which is what the
queries index: each chunk keeps its ``(earliest, latest)`` time, so
:meth:`TrafficLog.window` touches only the chunks whose bounds meet the
interval and returns a read-only :class:`TrafficLog` view over them
(whole chunks are shared, not copied); :meth:`TrafficLog.channels`
folds each chunk into one packed-key → count table exactly once, so a
query costs the rows appended since the last one.  Record objects exist
only while somebody iterates.
"""

from __future__ import annotations

import array
import dataclasses
import sys
from collections import Counter
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["TrafficRecord", "TrafficLog"]

#: Rows per sealed column chunk (~1.25 MiB per full chunk).
_CHUNK_RECORDS = 65536

if array.array("I").itemsize != 4:  # "I" is C unsigned int, not a fixed width
    raise ImportError("TrafficLog needs a 4-byte array.array('I')")


def _empty_buffers() -> Tuple[array.array, ...]:
    """Fresh (time, src, dst, size) append buffers; numpy reads the sealed
    dtypes (float64, 3 x uint32) off the typecodes."""
    return tuple(map(array.array, "dIII"))


@dataclasses.dataclass(frozen=True)
class TrafficRecord:
    """One channel observation.

    ``src`` and ``dst`` are transport endpoints as an observer sees
    them (stringified node or relay identities), not protocol-level
    identities.
    """

    time: float
    src: str
    dst: str
    size_hint: int = 1


class TrafficLog:
    """Append-only columnar log of channel observations.

    The log can be disabled (``enabled=False``) for large experiments
    where no attack analysis runs; recording then costs one branch and
    allocates nothing.  Endpoint strings are interned to ``uint32`` ids
    on first sight; sealed chunks are exact-size numpy arrays, so a
    million observations cost ~20 MB.

    ``max_records`` caps stored rows; further :meth:`record` calls only
    increment :attr:`dropped`.  :meth:`clear` resets rows, the
    interning table, and the drop counter.

    Record order is the order of :meth:`record` calls, **not** time
    order: a mixnet with ``hop_latency > 0`` records a return circuit at
    ``now + delay`` ahead of events that record at an earlier ``now``.
    No query assumes sorted times.
    """

    __slots__ = (
        "_enabled",
        "_max_records",
        "_chunk_records",
        "_dropped",
        "_intern",
        "_names",
        "_full",
        "_bounds",
        "_buf",
        "_length",
        "_table",
        "_folded",
    )

    def __init__(
        self,
        enabled: bool = True,
        max_records: Optional[int] = None,
        chunk_records: int = _CHUNK_RECORDS,
    ) -> None:
        if chunk_records < 1:
            raise ValueError("chunk_records must be at least 1")
        self._enabled = enabled
        self._max_records = max_records
        self._chunk_records = chunk_records
        self._dropped = 0
        # Endpoint interning: name -> uint32 id; _names[id] -> name.
        self._intern: Dict[str, int] = {}
        self._names: List[str] = []
        # Sealed (time, src, dst, size) column chunks, oldest first.
        # Sealed columns are read-only: windows and ``columns()`` share them.
        self._full: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        # (earliest, latest) time of each sealed chunk, parallel to _full.
        self._bounds: List[Tuple[float, float]] = []
        # Active chunk: (time, src_id, dst_id, size) typed append buffers,
        # always of equal length.  Never a container per row: the cyclic
        # collector would walk every one of them.
        self._buf = _empty_buffers()
        self._length = 0
        # Channel index: packed (src_id << 32 | dst_id) -> count over
        # the first _folded sealed chunks (chunks never change, so the
        # fold never goes stale).
        self._table: Dict[int, int] = {}
        self._folded = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether :meth:`record` stores anything."""
        return self._enabled

    @property
    def dropped(self) -> int:
        """Records discarded due to the size cap."""
        return self._dropped

    def record(self, time: float, src: str, dst: str, size_hint: int = 1) -> None:
        """Store one observation (no-op when disabled).

        ``time`` is any real number (``float``, ``int``, numpy scalar),
        ``size_hint`` an integer in ``[0, 2**32)``; anything else raises
        ``TypeError`` / ``OverflowError`` and leaves the log unchanged.
        """
        if not self._enabled:
            return
        if self._max_records is not None and self._length >= self._max_records:
            self._dropped += 1
            return
        intern = self._intern
        src_id = intern.get(src)
        dst_id = intern.get(dst)
        times, srcs, dsts, sizes = self._buf
        # Everything that can reject the row comes before anything is
        # interned, and a half-appended row is undone: ragged columns
        # would misalign every later record.
        sizes.append(size_hint)
        try:
            times.append(time)
        except BaseException:
            sizes.pop()
            raise
        names = self._names
        if src_id is None:
            src_id = intern[src] = len(names)
            names.append(src)
            if dst == src:
                dst_id = src_id
        if dst_id is None:
            dst_id = intern[dst] = len(names)
            names.append(dst)
        srcs.append(src_id)
        dsts.append(dst_id)
        self._length += 1
        if len(sizes) >= self._chunk_records:
            self._seal_buffer()

    def _seal_buffer(self) -> None:
        """Seal the append buffers into one exact-size numpy chunk."""
        if not self._buf[0]:
            return
        self._append_chunk(tuple(map(np.array, self._buf)))  # one memcpy a column
        self._buf = _empty_buffers()

    def _append_chunk(self, chunk, bounds: Optional[Tuple[float, float]] = None) -> None:
        """Add one sealed chunk, frozen, with its time bounds."""
        for column in chunk:
            column.setflags(write=False)
        if bounds is None:
            bounds = (float(chunk[0].min()), float(chunk[0].max()))
        self._full.append(chunk)
        self._bounds.append(bounds)

    # ------------------------------------------------------------------
    # columnar access
    # ------------------------------------------------------------------

    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(times, src_ids, dst_ids, size_hints)`` over all records.

        One whole-log concatenation in record order; ids index
        :meth:`endpoint_names`.  The arrays are snapshots — later
        :meth:`record` calls do not mutate them — and read-only: they
        may be the log's own (immutable) storage, shared with windows.
        """
        self._seal_buffer()
        parts = self._full
        if not parts:
            return (
                np.empty(0, dtype=np.float64),
                np.empty(0, dtype=np.uint32),
                np.empty(0, dtype=np.uint32),
                np.empty(0, dtype=np.uint32),
            )
        if len(parts) == 1:
            return parts[0]
        columns = tuple(np.concatenate(column) for column in zip(*parts))
        for column in columns:
            column.setflags(write=False)
        return columns

    def endpoint_names(self) -> Tuple[str, ...]:
        """Interned endpoint strings, indexed by the ids in :meth:`columns`."""
        return tuple(self._names)

    def endpoint_id(self, name: str) -> Optional[int]:
        """The interned id of ``name`` (None if never recorded)."""
        return self._intern.get(name)

    def memory_bytes(self) -> int:
        """Bytes held by column storage, its index, and the interning tables.

        Seals any pending append buffer first, so the answer is pure
        array ``nbytes`` plus the Python-side chunk bounds, channel
        table, interning dict, name list, and name strings.
        """
        self._seal_buffer()
        total = 0
        for part in self._full:
            total += sum(column.nbytes for column in part)
        total += sys.getsizeof(self._bounds) + sys.getsizeof(self._table)
        total += sum(sys.getsizeof(item) for pair in self._bounds for item in (pair, *pair))
        total += sum(sys.getsizeof(item) for pair in self._table.items() for item in pair)
        total += sys.getsizeof(self._intern) + sys.getsizeof(self._names)
        total += sum(sys.getsizeof(name) for name in self._names)
        return total

    # ------------------------------------------------------------------
    # record views and queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[TrafficRecord]:
        """Lazily materialize :class:`TrafficRecord` views, in order."""
        names = self._names
        for columns in [*self._full, self._buf]:
            for time, src_id, dst_id, size_hint in zip(*(column.tolist() for column in columns)):
                yield TrafficRecord(time, names[src_id], names[dst_id], size_hint)

    def _channel_table(self) -> Dict[int, int]:
        """The packed-key -> count table, brought up to date.

        Costs one ``np.unique`` per chunk sealed since the last call.
        """
        self._seal_buffer()
        table = self._table
        for _, src_ids, dst_ids, _ in self._full[self._folded:]:
            keys = src_ids.astype(np.uint64) << np.uint64(32)
            keys |= dst_ids
            unique, counts = np.unique(keys, return_counts=True)
            for key, count in zip(unique.tolist(), counts.tolist()):
                table[key] = table.get(key, 0) + count
        self._folded = len(self._full)
        return table

    def channels(self) -> Counter:
        """Message count per observed (src, dst) channel.

        Costs the rows appended since the last call plus one pass over
        the channel table (in packed-id order, whatever the query history).
        """
        table = self._channel_table()
        names = self._names
        return Counter(
            {(names[key >> 32], names[key & 0xFFFFFFFF]): table[key] for key in sorted(table)}
        )

    def by_endpoint(self) -> Dict[str, List[TrafficRecord]]:
        """Records grouped by every endpoint they touch."""
        grouped: Dict[str, List[TrafficRecord]] = {}
        for record in self:
            grouped.setdefault(record.src, []).append(record)
            grouped.setdefault(record.dst, []).append(record)
        return grouped

    def window(self, start: float, end: float) -> "TrafficLog":
        """The records with ``start <= time < end``, as a read-only log.

        The view shares this log's interning table and every chunk that
        lies wholly inside the interval; chunks whose bounds miss it are
        never touched and only chunks straddling an edge are masked (the
        log is not time-ordered, so nothing is bisected).  It accepts no
        records, answers every query, and is unaffected by later
        :meth:`record` / :meth:`clear` calls on this log.
        """
        self._seal_buffer()
        view = TrafficLog(enabled=False, chunk_records=self._chunk_records)
        view._intern, view._names = self._intern, self._names
        for bounds, chunk in zip(self._bounds, self._full):
            earliest, latest = bounds
            if latest < start or earliest >= end:
                continue
            if start <= earliest and latest < end:
                view._append_chunk(chunk, bounds)
            else:
                times = chunk[0]
                mask = (times >= start) & (times < end)
                if mask.any():
                    view._append_chunk(tuple(column[mask] for column in chunk))
        view._length = sum(len(chunk[0]) for chunk in view._full)
        return view

    def unique_endpoints(self) -> Tuple[str, ...]:
        """All endpoint identifiers appearing in the log, sorted.

        Read off the channel table, so a :meth:`window` lists only the
        endpoints it saw although it shares the interning table.
        """
        ids = set()
        for key in self._channel_table():
            ids.add(key >> 32)
            ids.add(key & 0xFFFFFFFF)
        names = self._names
        return tuple(sorted(names[endpoint_id] for endpoint_id in ids))

    def clear(self) -> None:
        """Drop all records, the interning table, and the drop counter."""
        self._dropped = 0
        self._intern = {}
        self._names = []
        self._full = []
        self._bounds = []
        self._buf = _empty_buffers()
        self._length = 0
        self._table = {}
        self._folded = 0
