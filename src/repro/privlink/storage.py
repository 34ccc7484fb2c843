"""A storage-backed pseudonym service (anonymous mailboxes).

Section III-B's alternative realization: "use the anonymity service
together with a third-party distributed storage service (e.g., email or
a DHT).  In this case, pseudonyms would be storage-service addresses
[...] a sender node m can send a message to a receiver node n by
storing data at the appropriate pseudonym address, and the receiver n
can obtain new messages by regularly polling the storage service."

:class:`MailboxStore` is the third-party storage; it holds bounded
per-address queues with a retention limit.  :class:`MailboxPseudonymService`
adapts it to the :class:`~repro.privlink.link.PseudonymServiceBase`
interface: sends become stores, and the owner's polling loop is modeled
by retrying delivery every ``poll_interval`` until the owner is online
or the message ages out.  Unlike the interactive backends, a mailbox
endpoint therefore delivers messages sent *while the owner was
offline* — an extension the paper's ideal model does not assume, used
by ablation experiments.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import deque
from typing import Any, Deque, Dict, Optional

from ..errors import LinkLayerError
from ..sim import Simulator
from .link import Address, NodeDirectory, PseudonymServiceBase
from .traffic import TrafficLog

__all__ = ["StoredMessage", "MailboxStore", "MailboxPseudonymService"]


@dataclasses.dataclass
class StoredMessage:
    """A message parked at a mailbox address."""

    stored_at: float
    payload: Any


class MailboxStore:
    """Third-party storage service: bounded per-address FIFO queues."""

    __slots__ = (
        "_boxes",
        "_capacity",
        "_retention",
        "stored_count",
        "evicted_count",
        "expired_count",
    )

    def __init__(self, capacity_per_box: int = 256, retention: float = 100.0) -> None:
        if capacity_per_box < 1:
            raise LinkLayerError("capacity_per_box must be at least 1")
        if retention <= 0:
            raise LinkLayerError("retention must be positive")
        self._boxes: Dict[Address, Deque[StoredMessage]] = {}
        self._capacity = capacity_per_box
        self._retention = retention
        self.stored_count = 0
        self.evicted_count = 0
        self.expired_count = 0

    @property
    def retention(self) -> float:
        """Maximum message age before garbage collection."""
        return self._retention

    def open_box(self, address: Address) -> None:
        """Create an empty mailbox (idempotent)."""
        self._boxes.setdefault(address, deque())

    def close_box(self, address: Address) -> None:
        """Destroy a mailbox and all parked messages."""
        self._boxes.pop(address, None)

    def has_box(self, address: Address) -> bool:
        """Whether the mailbox exists."""
        return address in self._boxes

    def store(self, address: Address, payload: Any, now: float) -> bool:
        """Park a message.  Returns False if the mailbox is closed."""
        box = self._boxes.get(address)
        if box is None:
            return False
        if len(box) >= self._capacity:
            box.popleft()
            self.evicted_count += 1
        box.append(StoredMessage(stored_at=now, payload=payload))
        self.stored_count += 1
        return True

    def poll(self, address: Address, now: float) -> list:
        """Drain all unexpired messages from a mailbox."""
        box = self._boxes.get(address)
        if box is None:
            return []
        fresh = []
        while box:
            message = box.popleft()
            if now - message.stored_at > self._retention:
                self.expired_count += 1
                continue
            fresh.append(message.payload)
        return fresh

    def pending(self, address: Address) -> int:
        """Number of parked messages (including not-yet-expired ones)."""
        box = self._boxes.get(address)
        return len(box) if box is not None else 0


class MailboxPseudonymService(PseudonymServiceBase):
    """Pseudonym endpoints realized as anonymous mailboxes.

    Owners are modeled as polling every ``poll_interval``: the service
    schedules periodic delivery attempts per mailbox; each attempt
    drains the box to the owner iff the owner is online.
    """

    __slots__ = (
        "_sim",
        "_directory",
        "_store",
        "_poll_interval",
        "_traffic",
        "_owners",
        "_tokens",
        "sent_count",
        "delivered_count",
    )

    def __init__(
        self,
        sim: Simulator,
        directory: NodeDirectory,
        store: Optional[MailboxStore] = None,
        poll_interval: float = 0.5,
        traffic: Optional[TrafficLog] = None,
    ) -> None:
        if poll_interval <= 0:
            raise LinkLayerError("poll_interval must be positive")
        self._sim = sim
        self._directory = directory
        self._store = store if store is not None else MailboxStore()
        self._poll_interval = poll_interval
        self._traffic = traffic if traffic is not None else TrafficLog(enabled=False)
        self._owners: Dict[Address, int] = {}
        self._tokens = itertools.count(1)
        self.sent_count = 0
        self.delivered_count = 0

    @property
    def store(self) -> MailboxStore:
        """The underlying third-party storage."""
        return self._store

    def create_endpoint(self, owner_id: int) -> Address:
        address = Address(token=next(self._tokens), kind="mailbox")
        self._owners[address] = owner_id
        self._store.open_box(address)
        self._sim.post_after(self._poll_interval, self._poll, address)
        return address

    def close_endpoint(self, address: Address) -> None:
        self._owners.pop(address, None)
        self._store.close_box(address)

    def is_active(self, address: Address) -> bool:
        return address in self._owners

    def send(self, sender_id: int, address: Address, payload: Any) -> None:
        self.sent_count += 1
        if self._traffic.enabled:
            self._traffic.record(self._sim.now, f"node:{sender_id}", str(address))
        self._store.store(address, payload, self._sim.now)

    def _poll(self, address: Address) -> None:
        owner = self._owners.get(address)
        if owner is None:
            return  # endpoint closed; stop polling
        self._sim.post_after(self._poll_interval, self._poll, address)
        if not self._directory.is_online(owner):
            return
        for payload in self._store.poll(address, self._sim.now):
            if self._traffic.enabled:
                self._traffic.record(self._sim.now, str(address), f"node:{owner}")
            if self._directory.deliver(owner, payload):
                self.delivered_count += 1
