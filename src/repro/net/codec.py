"""Length-prefixed, versioned wire codec for the live overlay.

Every datagram is one *frame*::

    magic  b"RN"   (2 bytes)
    version u8     (currently 1)
    type    u8     (message discriminator, see the WIRE_* constants)
    length  u32 BE (body length in bytes)
    body    ...    (exactly `length` bytes, message-specific)

Integers are big-endian.  Strings are ``u16`` length + UTF-8 bytes.
The codec is strict in both directions:

* :func:`encode_frame` refuses messages that exceed the UDP-safe
  :data:`MAX_FRAME` or overflow a field (raises
  :class:`~repro.errors.NetError` — an encode failure is a local
  programming error);
* :func:`decode_frame` **never raises**: any malformed input — short
  header, bad magic, unknown version or type, a length prefix that
  disagrees with the payload or exceeds :data:`MAX_FRAME`, truncated
  or trailing body bytes, garbage — returns a typed
  :class:`CodecError` value instead, so a hostile datagram cannot
  unwind a receive loop.

Pseudonym expiry crosses the wire as a **relative TTL** (``expires_at -
sender_now``), because two machines share no time axis; the receiver
re-anchors it at its own clock (``receiver_now + ttl``).  Each entry
also carries an optional transport route hint (host/port of the
pseudonym-service endpoint) so receivers learn ``token -> address``
routes passively; an absent hint is ``("", 0)``.

Privacy note: shuffle offers and replies carry pseudonym material only.
Node identities appear solely in frames that are legitimate over
*trusted* links (hello, heartbeat, goodbye) or to the directory
(register) — mirroring the paper's trusted-link/pseudonym-link split.
"""

from __future__ import annotations

import dataclasses
import math
import struct
from typing import Optional, Tuple, Union

from ..errors import NetError

__all__ = [
    "MAX_FRAME",
    "WIRE_VERSION",
    "CodecError",
    "PeerInfo",
    "WireEntry",
    "Hello",
    "HelloAck",
    "Heartbeat",
    "ShuffleOffer",
    "ShuffleReply",
    "Register",
    "Lookup",
    "LookupReply",
    "AppPayload",
    "Goodbye",
    "encode_frame",
    "decode_frame",
]

MAGIC = b"RN"
WIRE_VERSION = 1
HEADER = struct.Struct(">2sBBI")
#: Largest frame we emit or accept: the classic safe UDP payload bound.
MAX_FRAME = 65507
_MAX_STR = 512
_MAX_ENTRIES = 255
_MAX_PEERS = 1024

WIRE_HELLO = 1
WIRE_HELLO_ACK = 2
WIRE_HEARTBEAT = 3
WIRE_SHUFFLE_OFFER = 4
WIRE_SHUFFLE_REPLY = 5
WIRE_REGISTER = 6
WIRE_LOOKUP = 7
WIRE_LOOKUP_REPLY = 8
WIRE_APP_PAYLOAD = 9
WIRE_GOODBYE = 10


@dataclasses.dataclass(frozen=True)
class CodecError:
    """A typed decode failure (returned, never raised).

    ``code`` is a short stable slug (``"truncated"``, ``"bad-magic"``,
    ``"unknown-version"``, ``"unknown-type"``, ``"oversize"``,
    ``"length-mismatch"``, ``"malformed"``); ``reason`` is a human
    sentence for logs.
    """

    code: str
    reason: str


@dataclasses.dataclass(frozen=True)
class PeerInfo:
    """A peer's identity and transport address (trusted-link material)."""

    node_id: int
    host: str
    port: int


@dataclasses.dataclass(frozen=True)
class WireEntry:
    """One pseudonym as it crosses the wire.

    ``ttl`` is relative to the *sender's* clock at encode time; ``host``
    / ``port`` are an optional route hint for the endpoint behind
    ``token`` (``("", 0)`` when the sender has no route either).
    """

    value: int
    token: int
    ttl: float
    host: str = ""
    port: int = 0


@dataclasses.dataclass(frozen=True)
class Hello:
    """Bootstrap greeting: who I am and where to reach me."""

    node_id: int
    host: str
    port: int


@dataclasses.dataclass(frozen=True)
class HelloAck:
    """Bootstrap answer; a seed's carries the addresses it knows."""

    node_id: int
    peers: Tuple[PeerInfo, ...] = ()


@dataclasses.dataclass(frozen=True)
class Heartbeat:
    """Periodic liveness beacon; ``reply_wanted`` makes it a probe."""

    node_id: int
    seq: int
    reply_wanted: bool = False


@dataclasses.dataclass(frozen=True)
class ShuffleOffer:
    """A shuffle request's pseudonym set plus its reply channel.

    Exactly one of ``reply_node`` (trusted link) or ``reply_token``
    (pseudonym link, with an optional route hint) is set — the wire
    image of :class:`repro.core.shuffle.ShuffleRequest`.
    """

    entries: Tuple[WireEntry, ...]
    reply_node: Optional[int] = None
    reply_token: Optional[int] = None
    reply_host: str = ""
    reply_port: int = 0


@dataclasses.dataclass(frozen=True)
class ShuffleReply:
    """The responder's pseudonym set (wire image of ShuffleResponse)."""

    entries: Tuple[WireEntry, ...]


@dataclasses.dataclass(frozen=True)
class Register:
    """Pseudonym-service registration: bind/unbind ``token`` to an address."""

    node_id: int
    token: int
    host: str
    port: int
    active: bool = True


@dataclasses.dataclass(frozen=True)
class Lookup:
    """Pseudonym-service query: where does ``token`` live?"""

    token: int


@dataclasses.dataclass(frozen=True)
class LookupReply:
    """Pseudonym-service answer; ``found`` gates the address fields."""

    token: int
    found: bool
    host: str = ""
    port: int = 0


@dataclasses.dataclass(frozen=True)
class AppPayload:
    """An opaque dissemination payload (application frames)."""

    kind: str
    body: bytes


@dataclasses.dataclass(frozen=True)
class Goodbye:
    """Clean-shutdown notice so peers prune us immediately."""

    node_id: int


Message = Union[
    Hello,
    HelloAck,
    Heartbeat,
    ShuffleOffer,
    ShuffleReply,
    Register,
    Lookup,
    LookupReply,
    AppPayload,
    Goodbye,
]


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------


def _enc_str(out: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    if len(raw) > _MAX_STR:
        raise NetError(f"string field exceeds {_MAX_STR} bytes")
    out += struct.pack(">H", len(raw))
    out += raw


def _enc_u8(out: bytearray, value: int) -> None:
    if not 0 <= value <= 0xFF:
        raise NetError(f"u8 field out of range: {value}")
    out.append(value)


def _enc_u16(out: bytearray, value: int) -> None:
    if not 0 <= value <= 0xFFFF:
        raise NetError(f"u16 field out of range: {value}")
    out += struct.pack(">H", value)


def _enc_u32(out: bytearray, value: int) -> None:
    if not 0 <= value <= 0xFFFFFFFF:
        raise NetError(f"u32 field out of range: {value}")
    out += struct.pack(">I", value)


def _enc_u64(out: bytearray, value: int) -> None:
    if not 0 <= value <= 0xFFFFFFFFFFFFFFFF:
        raise NetError(f"u64 field out of range: {value}")
    out += struct.pack(">Q", value)


def _enc_f64(out: bytearray, value: float) -> None:
    out += struct.pack(">d", value)


def _enc_entry(out: bytearray, entry: WireEntry) -> None:
    _enc_u64(out, entry.value)
    _enc_u64(out, entry.token)
    _enc_f64(out, entry.ttl)
    _enc_str(out, entry.host)
    _enc_u16(out, entry.port)


def _enc_entries(out: bytearray, entries: Tuple[WireEntry, ...]) -> None:
    if not entries:
        raise NetError("a shuffle frame must carry at least one entry")
    if len(entries) > _MAX_ENTRIES:
        raise NetError(f"too many entries: {len(entries)} > {_MAX_ENTRIES}")
    _enc_u8(out, len(entries))
    for entry in entries:
        _enc_entry(out, entry)


def _encode_body(message: Message) -> Tuple[int, bytearray]:
    out = bytearray()
    if isinstance(message, Hello):
        _enc_u32(out, message.node_id)
        _enc_str(out, message.host)
        _enc_u16(out, message.port)
        return WIRE_HELLO, out
    if isinstance(message, HelloAck):
        _enc_u32(out, message.node_id)
        if len(message.peers) > _MAX_PEERS:
            raise NetError(f"too many peers: {len(message.peers)} > {_MAX_PEERS}")
        _enc_u16(out, len(message.peers))
        for peer in message.peers:
            _enc_u32(out, peer.node_id)
            _enc_str(out, peer.host)
            _enc_u16(out, peer.port)
        return WIRE_HELLO_ACK, out
    if isinstance(message, Heartbeat):
        _enc_u32(out, message.node_id)
        _enc_u32(out, message.seq)
        _enc_u8(out, 1 if message.reply_wanted else 0)
        return WIRE_HEARTBEAT, out
    if isinstance(message, ShuffleOffer):
        if (message.reply_node is None) == (message.reply_token is None):
            raise NetError("ShuffleOffer needs exactly one reply channel")
        if message.reply_node is not None:
            _enc_u8(out, 1)
            _enc_u32(out, message.reply_node)
        else:
            _enc_u8(out, 0)
            _enc_u64(out, message.reply_token)
            _enc_str(out, message.reply_host)
            _enc_u16(out, message.reply_port)
        _enc_entries(out, message.entries)
        return WIRE_SHUFFLE_OFFER, out
    if isinstance(message, ShuffleReply):
        _enc_entries(out, message.entries)
        return WIRE_SHUFFLE_REPLY, out
    if isinstance(message, Register):
        _enc_u32(out, message.node_id)
        _enc_u64(out, message.token)
        _enc_str(out, message.host)
        _enc_u16(out, message.port)
        _enc_u8(out, 1 if message.active else 0)
        return WIRE_REGISTER, out
    if isinstance(message, Lookup):
        _enc_u64(out, message.token)
        return WIRE_LOOKUP, out
    if isinstance(message, LookupReply):
        _enc_u64(out, message.token)
        _enc_u8(out, 1 if message.found else 0)
        _enc_str(out, message.host)
        _enc_u16(out, message.port)
        return WIRE_LOOKUP_REPLY, out
    if isinstance(message, AppPayload):
        _enc_str(out, message.kind)
        _enc_u32(out, len(message.body))
        out += message.body
        return WIRE_APP_PAYLOAD, out
    if isinstance(message, Goodbye):
        _enc_u32(out, message.node_id)
        return WIRE_GOODBYE, out
    raise NetError(f"cannot encode {type(message).__name__}")


def encode_frame(message: Message) -> bytes:
    """Serialize one message into a framed datagram.

    Raises :class:`~repro.errors.NetError` on anything unencodable —
    encode failures are local bugs, unlike decode failures which are
    adversarial input and therefore returned as values.
    """
    wire_type, body = _encode_body(message)
    frame = HEADER.pack(MAGIC, WIRE_VERSION, wire_type, len(body)) + bytes(body)
    if len(frame) > MAX_FRAME:
        raise NetError(
            f"frame of {len(frame)} bytes exceeds MAX_FRAME={MAX_FRAME}"
        )
    return frame


# ----------------------------------------------------------------------
# decoding
# ----------------------------------------------------------------------


class _Truncated(ValueError):
    """Internal: a body read ran off the end of the buffer."""


class _Reader:
    """Strict cursor over a frame body."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def _take(self, count: int) -> bytes:
        end = self._pos + count
        if end > len(self._data):
            raise _Truncated(f"needed {count} bytes at offset {self._pos}")
        chunk = self._data[self._pos:end]
        self._pos = end
        return chunk

    def u8(self) -> int:
        return self._take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self._take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self._take(8))[0]

    def f64(self) -> float:
        return struct.unpack(">d", self._take(8))[0]

    def str_(self) -> str:
        length = self.u16()
        if length > _MAX_STR:
            raise _Truncated(f"string length {length} exceeds {_MAX_STR}")
        return self._take(length).decode("utf-8")

    def raw(self, count: int) -> bytes:
        return self._take(count)

    def done(self) -> bool:
        return self._pos == len(self._data)


def _dec_entry(reader: _Reader) -> WireEntry:
    value = reader.u64()
    token = reader.u64()
    ttl = reader.f64()
    if math.isnan(ttl):
        raise _Truncated("entry ttl is NaN")
    host = reader.str_()
    port = reader.u16()
    return WireEntry(value=value, token=token, ttl=ttl, host=host, port=port)


def _dec_entries(reader: _Reader) -> Tuple[WireEntry, ...]:
    count = reader.u8()
    if count == 0:
        raise _Truncated("shuffle frame with zero entries")
    return tuple(_dec_entry(reader) for _ in range(count))


def _decode_body(wire_type: int, reader: _Reader) -> Message:
    if wire_type == WIRE_HELLO:
        return Hello(
            node_id=reader.u32(), host=reader.str_(), port=reader.u16()
        )
    if wire_type == WIRE_HELLO_ACK:
        node_id = reader.u32()
        count = reader.u16()
        if count > _MAX_PEERS:
            raise _Truncated(f"peer count {count} exceeds {_MAX_PEERS}")
        peers = tuple(
            PeerInfo(
                node_id=reader.u32(), host=reader.str_(), port=reader.u16()
            )
            for _ in range(count)
        )
        return HelloAck(node_id=node_id, peers=peers)
    if wire_type == WIRE_HEARTBEAT:
        return Heartbeat(
            node_id=reader.u32(),
            seq=reader.u32(),
            reply_wanted=reader.u8() != 0,
        )
    if wire_type == WIRE_SHUFFLE_OFFER:
        trusted = reader.u8()
        if trusted not in (0, 1):
            raise _Truncated(f"bad reply-channel flag {trusted}")
        if trusted:
            reply_node: Optional[int] = reader.u32()
            reply_token: Optional[int] = None
            reply_host, reply_port = "", 0
        else:
            reply_node = None
            reply_token = reader.u64()
            reply_host = reader.str_()
            reply_port = reader.u16()
        return ShuffleOffer(
            entries=_dec_entries(reader),
            reply_node=reply_node,
            reply_token=reply_token,
            reply_host=reply_host,
            reply_port=reply_port,
        )
    if wire_type == WIRE_SHUFFLE_REPLY:
        return ShuffleReply(entries=_dec_entries(reader))
    if wire_type == WIRE_REGISTER:
        return Register(
            node_id=reader.u32(),
            token=reader.u64(),
            host=reader.str_(),
            port=reader.u16(),
            active=reader.u8() != 0,
        )
    if wire_type == WIRE_LOOKUP:
        return Lookup(token=reader.u64())
    if wire_type == WIRE_LOOKUP_REPLY:
        return LookupReply(
            token=reader.u64(),
            found=reader.u8() != 0,
            host=reader.str_(),
            port=reader.u16(),
        )
    if wire_type == WIRE_APP_PAYLOAD:
        kind = reader.str_()
        length = reader.u32()
        if length > MAX_FRAME:
            raise _Truncated(f"payload length {length} exceeds {MAX_FRAME}")
        return AppPayload(kind=kind, body=reader.raw(length))
    # WIRE_GOODBYE — _decode_body is only called with known types.
    return Goodbye(node_id=reader.u32())


_KNOWN_TYPES = frozenset(
    {
        WIRE_HELLO,
        WIRE_HELLO_ACK,
        WIRE_HEARTBEAT,
        WIRE_SHUFFLE_OFFER,
        WIRE_SHUFFLE_REPLY,
        WIRE_REGISTER,
        WIRE_LOOKUP,
        WIRE_LOOKUP_REPLY,
        WIRE_APP_PAYLOAD,
        WIRE_GOODBYE,
    }
)

#: Exceptions a hostile body parse may legitimately surface.  Anything
#: outside this tuple is a codec bug and *should* propagate in tests.
_DECODE_FAILURES = (
    _Truncated,
    struct.error,
    UnicodeDecodeError,
    OverflowError,
)


def decode_frame(data: bytes) -> Union[Message, CodecError]:
    """Parse one datagram; returns a message or a :class:`CodecError`.

    Never raises on any input byte string: all validation failures come
    back as values (see the class docstring for the code catalog).
    """
    if len(data) < HEADER.size:
        return CodecError(
            "truncated", f"frame of {len(data)} bytes is shorter than a header"
        )
    magic, version, wire_type, length = HEADER.unpack_from(data)
    if magic != MAGIC:
        return CodecError("bad-magic", f"bad magic {magic!r}")
    if version != WIRE_VERSION:
        return CodecError(
            "unknown-version", f"version {version} (speak {WIRE_VERSION})"
        )
    if length > MAX_FRAME:
        return CodecError(
            "oversize", f"declared body of {length} bytes exceeds {MAX_FRAME}"
        )
    body = data[HEADER.size:]
    if len(body) != length:
        return CodecError(
            "length-mismatch",
            f"declared {length} body bytes but received {len(body)}",
        )
    if wire_type not in _KNOWN_TYPES:
        return CodecError("unknown-type", f"unknown message type {wire_type}")
    reader = _Reader(bytes(body))
    try:
        message = _decode_body(wire_type, reader)
    except _DECODE_FAILURES as error:
        return CodecError("malformed", f"type {wire_type}: {error}")
    if not reader.done():
        return CodecError(
            "malformed", f"type {wire_type}: trailing bytes after body"
        )
    return message
