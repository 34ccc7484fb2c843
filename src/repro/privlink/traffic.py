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

Appends land in plain-list buffers (list appends are several times
cheaper than element-wise numpy stores); once a buffer reaches the
chunk size it is sealed into numpy arrays in one C-speed pass.

That is 20 bytes per observation (a list of record objects costs
~150+), and it lets every aggregate query (:meth:`channels`,
:meth:`window`, …) run as a vectorized pass instead of a Python loop.
Consumers that want the record view still get it: iteration lazily
materializes :class:`TrafficRecord` objects.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import Counter
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["TrafficRecord", "TrafficLog"]

#: Rows per sealed column chunk (~1.25 MiB per full chunk).
_CHUNK_RECORDS = 65536


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
    """

    __slots__ = (
        "_enabled",
        "_max_records",
        "_chunk_records",
        "_dropped",
        "_intern",
        "_names",
        "_full",
        "_buf",
        "_length",
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
        self._full: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        # Active chunk: one (time, src_id, dst_id, size) tuple per row
        # in a plain list — a single append is the cheapest hot path.
        self._buf: List[Tuple[float, int, int, int]] = []
        self._length = 0

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
        """Store one observation (no-op when disabled)."""
        if not self._enabled:
            return
        if self._max_records is not None and self._length >= self._max_records:
            self._dropped += 1
            return
        intern = self._intern
        src_id = intern.get(src)
        if src_id is None:
            src_id = len(self._names)
            intern[src] = src_id
            self._names.append(src)
        dst_id = intern.get(dst)
        if dst_id is None:
            dst_id = len(self._names)
            intern[dst] = dst_id
            self._names.append(dst)
        buf = self._buf
        buf.append((time, src_id, dst_id, size_hint))
        self._length += 1
        if len(buf) >= self._chunk_records:
            self._seal_buffer()

    def _seal_buffer(self) -> None:
        """Seal the append buffer into one exact-size numpy chunk."""
        if not self._buf:
            return
        times, srcs, dsts, sizes = zip(*self._buf)
        self._full.append(
            (
                np.asarray(times, dtype=np.float64),
                np.asarray(srcs, dtype=np.uint32),
                np.asarray(dsts, dtype=np.uint32),
                np.asarray(sizes, dtype=np.uint32),
            )
        )
        self._buf = []

    # ------------------------------------------------------------------
    # columnar access
    # ------------------------------------------------------------------

    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(times, src_ids, dst_ids, size_hints)`` over all records.

        Returns freshly concatenated arrays in record order; ids index
        :meth:`endpoint_names`.  The arrays are snapshots — later
        :meth:`record` calls do not mutate them.
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
        return (
            np.concatenate([part[0] for part in parts]),
            np.concatenate([part[1] for part in parts]),
            np.concatenate([part[2] for part in parts]),
            np.concatenate([part[3] for part in parts]),
        )

    def endpoint_names(self) -> Tuple[str, ...]:
        """Interned endpoint strings, indexed by the ids in :meth:`columns`."""
        return tuple(self._names)

    def endpoint_id(self, name: str) -> Optional[int]:
        """The interned id of ``name`` (None if never recorded)."""
        return self._intern.get(name)

    def memory_bytes(self) -> int:
        """Bytes held by column storage plus the interning tables.

        Seals any pending append buffer first, so the answer is pure
        array ``nbytes`` plus the Python-side interning dict, name
        list, and name strings.
        """
        self._seal_buffer()
        total = 0
        for part in self._full:
            total += sum(column.nbytes for column in part)
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
        for times, srcs, dsts, sizes in list(self._full):
            time_list = times.tolist()
            src_list = srcs.tolist()
            dst_list = dsts.tolist()
            size_list = sizes.tolist()
            for index in range(len(time_list)):
                yield TrafficRecord(
                    time_list[index],
                    names[src_list[index]],
                    names[dst_list[index]],
                    size_list[index],
                )
        for time, src_id, dst_id, size_hint in list(self._buf):
            yield TrafficRecord(time, names[src_id], names[dst_id], size_hint)

    def channels(self) -> Counter:
        """Message count per observed (src, dst) channel."""
        _, src_ids, dst_ids, _ = self.columns()
        if not src_ids.size:
            return Counter()
        keys = src_ids.astype(np.uint64) << np.uint64(32)
        keys |= dst_ids.astype(np.uint64)
        unique, counts = np.unique(keys, return_counts=True)
        names = self._names
        out: Counter = Counter()
        for key, count in zip(unique.tolist(), counts.tolist()):
            out[(names[key >> 32], names[key & 0xFFFFFFFF])] = count
        return out

    def by_endpoint(self) -> Dict[str, List[TrafficRecord]]:
        """Records grouped by every endpoint they touch."""
        grouped: Dict[str, List[TrafficRecord]] = {}
        for record in self:
            grouped.setdefault(record.src, []).append(record)
            grouped.setdefault(record.dst, []).append(record)
        return grouped

    def window(self, start: float, end: float) -> List[TrafficRecord]:
        """Records with ``start <= time < end``."""
        times, src_ids, dst_ids, sizes = self.columns()
        if not times.size:
            return []
        mask = (times >= start) & (times < end)
        indices = np.nonzero(mask)[0]
        names = self._names
        return [
            TrafficRecord(
                float(times[index]),
                names[int(src_ids[index])],
                names[int(dst_ids[index])],
                int(sizes[index]),
            )
            for index in indices.tolist()
        ]

    def unique_endpoints(self) -> Tuple[str, ...]:
        """All endpoint identifiers appearing in the log."""
        return tuple(sorted(self._names))

    def clear(self) -> None:
        """Drop all records, the interning table, and the drop counter."""
        self._dropped = 0
        self._intern = {}
        self._names = []
        self._full = []
        self._buf = []
        self._length = 0
