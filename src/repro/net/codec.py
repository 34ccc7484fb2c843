"""Length-prefixed, versioned wire codec for the live overlay.

Every datagram is one *frame*::

    magic  b"RN"   (2 bytes)
    version u8     (currently 1)
    type    u8     (message discriminator, see the WIRE_* constants)
    length  u32 BE (body length in bytes)
    body    ...    (exactly `length` bytes, message-specific)

Integers are big-endian.  Strings are ``u16`` length + UTF-8 bytes.
Flags are one byte, 0 or 1.  Each body is a few *runs*: a fixed-width
run (ending in the length of the string that follows it, if any), then
that string together with the fixed fields after it.  Every run is one
precompiled :class:`struct.Struct`, so encoding packs a run in one call
and decoding unpacks it in one call straight from the datagram.
``docs/networking.md`` lists each body's layout.

The codec is strict in both directions:

* :func:`encode_frame` refuses messages that exceed the UDP-safe
  :data:`MAX_FRAME`, overflow a field or carry a NaN TTL (raises
  :class:`~repro.errors.NetError` — an encode failure is a local
  programming error);
* :func:`decode_frame` **never raises**: any malformed input — short
  header, bad magic, unknown version or type, a length prefix that
  disagrees with the payload or exceeds :data:`MAX_FRAME`, truncated
  or trailing body bytes, a flag byte other than 0 or 1, garbage —
  returns a typed :class:`CodecError` value instead, so a hostile
  datagram cannot unwind a receive loop;
* decoding is canonical: every frame it accepts is exactly
  ``encode_frame`` of the message it returns.

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
import struct
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple, Union

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


class WireEntry(NamedTuple):
    """One pseudonym as it crosses the wire.

    ``ttl`` is relative to the *sender's* clock at encode time; ``host``
    / ``port`` are an optional route hint for the endpoint behind
    ``token`` (``("", 0)`` when the sender has no route either).  A
    tuple, because the receive path builds one per entry per frame.
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
# runs
# ----------------------------------------------------------------------


class _Tails(dict):
    """``n -> Struct(">{n}s" + rest)``: an n-byte string and the fixed
    fields after it, compiled on first use (``n`` is at most
    ``_MAX_STR``, so each table stays small)."""

    __slots__ = ("_rest",)

    def __init__(self, rest: str) -> None:
        super().__init__()
        self._rest = rest

    def __missing__(self, length: int) -> struct.Struct:
        tail = self[length] = struct.Struct(f">{length}s{self._rest}")
        return tail


_HEADER_SIZE = HEADER.size
_U32 = struct.Struct(">I")  # Goodbye: node_id
_U64 = struct.Struct(">Q")  # Lookup: token
_U16 = struct.Struct(">H")  # AppPayload: len(kind)
#: Hello and PeerInfo: node_id, len(host); HelloAck: node_id, peer count.
_U32_U16 = struct.Struct(">IH")
_HEARTBEAT = struct.Struct(">IIB")  # node_id, seq, reply_wanted
_OFFER_TRUSTED = struct.Struct(">BIB")  # 1, reply_node, entry count
_OFFER_PSEUDONYM = struct.Struct(">BQH")  # 0, reply_token, len(reply_host)
_ENTRY_HEAD = struct.Struct(">QQdH")  # value, token, ttl, len(host)
_REGISTER_HEAD = struct.Struct(">IQH")  # node_id, token, len(host)
_LOOKUP_REPLY_HEAD = struct.Struct(">QBH")  # token, found, len(host)
_STR_U16 = _Tails("H")  # host, port
_STR_U16_U8 = _Tails("HB")  # host, port, then a flag or an entry count
_STR_U32 = _Tails("I")  # AppPayload: kind, len(body)

_U32_U16_SIZE = _U32_U16.size
_ENTRY_HEAD_SIZE = _ENTRY_HEAD.size


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------


def _utf8(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > _MAX_STR:
        raise NetError(f"string field exceeds {_MAX_STR} bytes")
    return raw


def _entry_count(entries: Tuple[WireEntry, ...]) -> int:
    if not entries:
        raise NetError("a shuffle frame must carry at least one entry")
    if len(entries) > _MAX_ENTRIES:
        raise NetError(f"too many entries: {len(entries)} > {_MAX_ENTRIES}")
    return len(entries)


def _enc_entries(parts: List[bytes], entries: Tuple[WireEntry, ...]) -> None:
    head = _ENTRY_HEAD.pack
    append = parts.append
    for value, token, ttl, host, port in entries:
        if ttl != ttl:
            raise NetError(f"entry for token {token} has a NaN ttl")
        raw = _utf8(host) if host else b""
        append(head(value, token, ttl, len(raw)))
        append(_STR_U16[len(raw)].pack(raw, port))


def _enc_hello(message: Hello) -> bytes:
    host = _utf8(message.host)
    return _U32_U16.pack(message.node_id, len(host)) + _STR_U16[len(host)].pack(
        host, message.port
    )


def _enc_hello_ack(message: HelloAck) -> bytes:
    peers = message.peers
    if len(peers) > _MAX_PEERS:
        raise NetError(f"too many peers: {len(peers)} > {_MAX_PEERS}")
    parts = [_U32_U16.pack(message.node_id, len(peers))]
    for peer in peers:
        host = _utf8(peer.host)
        parts.append(_U32_U16.pack(peer.node_id, len(host)))
        parts.append(_STR_U16[len(host)].pack(host, peer.port))
    return b"".join(parts)


def _enc_heartbeat(message: Heartbeat) -> bytes:
    return _HEARTBEAT.pack(
        message.node_id, message.seq, 1 if message.reply_wanted else 0
    )


def _enc_offer(message: ShuffleOffer) -> bytes:
    if (message.reply_node is None) == (message.reply_token is None):
        raise NetError("ShuffleOffer needs exactly one reply channel")
    count = _entry_count(message.entries)
    if message.reply_node is not None:
        parts = [_OFFER_TRUSTED.pack(1, message.reply_node, count)]
    else:
        host = _utf8(message.reply_host)
        parts = [
            _OFFER_PSEUDONYM.pack(0, message.reply_token, len(host)),
            _STR_U16_U8[len(host)].pack(host, message.reply_port, count),
        ]
    _enc_entries(parts, message.entries)
    return b"".join(parts)


def _enc_reply(message: ShuffleReply) -> bytes:
    parts = [bytes((_entry_count(message.entries),))]
    _enc_entries(parts, message.entries)
    return b"".join(parts)


def _enc_register(message: Register) -> bytes:
    host = _utf8(message.host)
    return _REGISTER_HEAD.pack(
        message.node_id, message.token, len(host)
    ) + _STR_U16_U8[len(host)].pack(host, message.port, 1 if message.active else 0)


def _enc_lookup(message: Lookup) -> bytes:
    return _U64.pack(message.token)


def _enc_lookup_reply(message: LookupReply) -> bytes:
    host = _utf8(message.host)
    return _LOOKUP_REPLY_HEAD.pack(
        message.token, 1 if message.found else 0, len(host)
    ) + _STR_U16[len(host)].pack(host, message.port)


def _enc_app_payload(message: AppPayload) -> bytes:
    kind = _utf8(message.kind)
    return b"".join(
        (
            _U16.pack(len(kind)),
            _STR_U32[len(kind)].pack(kind, len(message.body)),
            message.body,
        )
    )


def _enc_goodbye(message: Goodbye) -> bytes:
    return _U32.pack(message.node_id)


# ----------------------------------------------------------------------
# decoding
# ----------------------------------------------------------------------


class _Malformed(ValueError):
    """Internal: a body that breaks its message type's layout."""


def _tail(tails: _Tails, length: int) -> struct.Struct:
    if length > _MAX_STR:
        raise _Malformed(f"string length {length} exceeds {_MAX_STR}")
    return tails[length]


def _flag(byte: int) -> bool:
    if byte > 1:
        raise _Malformed(f"flag byte {byte} is neither 0 nor 1")
    return byte == 1


Decoded = Tuple[Any, int]


def _dec_entries(
    data: bytes, pos: int, count: int
) -> Tuple[Tuple[WireEntry, ...], int]:
    if count == 0:
        raise _Malformed("shuffle frame with zero entries")
    head = _ENTRY_HEAD.unpack_from
    entries = []
    for _ in range(count):
        value, token, ttl, length = head(data, pos)
        if ttl != ttl:
            raise _Malformed("entry ttl is NaN")
        pos += _ENTRY_HEAD_SIZE
        tail = _tail(_STR_U16, length)
        host, port = tail.unpack_from(data, pos)
        pos += tail.size
        entries.append(WireEntry(value, token, ttl, str(host, "utf-8"), port))
    return tuple(entries), pos


def _dec_hello(data: bytes, pos: int) -> Decoded:
    node_id, length = _U32_U16.unpack_from(data, pos)
    tail = _tail(_STR_U16, length)
    host, port = tail.unpack_from(data, pos + _U32_U16_SIZE)
    return Hello(node_id, str(host, "utf-8"), port), pos + _U32_U16_SIZE + tail.size


def _dec_hello_ack(data: bytes, pos: int) -> Decoded:
    node_id, count = _U32_U16.unpack_from(data, pos)
    if count > _MAX_PEERS:
        raise _Malformed(f"peer count {count} exceeds {_MAX_PEERS}")
    pos += _U32_U16_SIZE
    peers = []
    for _ in range(count):
        peer_id, length = _U32_U16.unpack_from(data, pos)
        pos += _U32_U16_SIZE
        tail = _tail(_STR_U16, length)
        host, port = tail.unpack_from(data, pos)
        pos += tail.size
        peers.append(PeerInfo(peer_id, str(host, "utf-8"), port))
    return HelloAck(node_id, tuple(peers)), pos


def _dec_heartbeat(data: bytes, pos: int) -> Decoded:
    node_id, seq, reply_wanted = _HEARTBEAT.unpack_from(data, pos)
    return Heartbeat(node_id, seq, _flag(reply_wanted)), pos + _HEARTBEAT.size


def _dec_offer(data: bytes, pos: int) -> Decoded:
    channel = data[pos]
    if channel == 1:
        _, reply_node, count = _OFFER_TRUSTED.unpack_from(data, pos)
        entries, pos = _dec_entries(data, pos + _OFFER_TRUSTED.size, count)
        return ShuffleOffer(entries, reply_node), pos
    if channel != 0:
        raise _Malformed(f"bad reply-channel flag {channel}")
    _, reply_token, length = _OFFER_PSEUDONYM.unpack_from(data, pos)
    pos += _OFFER_PSEUDONYM.size
    tail = _tail(_STR_U16_U8, length)
    host, port, count = tail.unpack_from(data, pos)
    entries, pos = _dec_entries(data, pos + tail.size, count)
    return ShuffleOffer(entries, None, reply_token, str(host, "utf-8"), port), pos


def _dec_reply(data: bytes, pos: int) -> Decoded:
    entries, pos = _dec_entries(data, pos + 1, data[pos])
    return ShuffleReply(entries), pos


def _dec_register(data: bytes, pos: int) -> Decoded:
    node_id, token, length = _REGISTER_HEAD.unpack_from(data, pos)
    pos += _REGISTER_HEAD.size
    tail = _tail(_STR_U16_U8, length)
    host, port, active = tail.unpack_from(data, pos)
    message = Register(node_id, token, str(host, "utf-8"), port, _flag(active))
    return message, pos + tail.size


def _dec_lookup(data: bytes, pos: int) -> Decoded:
    return Lookup(_U64.unpack_from(data, pos)[0]), pos + _U64.size


def _dec_lookup_reply(data: bytes, pos: int) -> Decoded:
    token, found, length = _LOOKUP_REPLY_HEAD.unpack_from(data, pos)
    pos += _LOOKUP_REPLY_HEAD.size
    tail = _tail(_STR_U16, length)
    host, port = tail.unpack_from(data, pos)
    message = LookupReply(token, _flag(found), str(host, "utf-8"), port)
    return message, pos + tail.size


def _dec_app_payload(data: bytes, pos: int) -> Decoded:
    length = _U16.unpack_from(data, pos)[0]
    pos += _U16.size
    tail = _tail(_STR_U32, length)
    kind, size = tail.unpack_from(data, pos)
    pos += tail.size
    body = bytes(data[pos:pos + size])
    if len(body) != size:
        raise _Malformed(f"payload of {size} bytes, {len(body)} received")
    return AppPayload(str(kind, "utf-8"), body), pos + size


def _dec_goodbye(data: bytes, pos: int) -> Decoded:
    return Goodbye(_U32.unpack_from(data, pos)[0]), pos + _U32.size


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------

Encoder = Callable[[Any], bytes]
Decoder = Callable[[bytes, int], Decoded]

_CODECS: Tuple[Tuple[type, int, Encoder, Decoder], ...] = (
    (Hello, WIRE_HELLO, _enc_hello, _dec_hello),
    (HelloAck, WIRE_HELLO_ACK, _enc_hello_ack, _dec_hello_ack),
    (Heartbeat, WIRE_HEARTBEAT, _enc_heartbeat, _dec_heartbeat),
    (ShuffleOffer, WIRE_SHUFFLE_OFFER, _enc_offer, _dec_offer),
    (ShuffleReply, WIRE_SHUFFLE_REPLY, _enc_reply, _dec_reply),
    (Register, WIRE_REGISTER, _enc_register, _dec_register),
    (Lookup, WIRE_LOOKUP, _enc_lookup, _dec_lookup),
    (LookupReply, WIRE_LOOKUP_REPLY, _enc_lookup_reply, _dec_lookup_reply),
    (AppPayload, WIRE_APP_PAYLOAD, _enc_app_payload, _dec_app_payload),
    (Goodbye, WIRE_GOODBYE, _enc_goodbye, _dec_goodbye),
)
_ENCODERS: Dict[type, Tuple[int, Encoder]] = {
    cls: (wire_type, encode) for cls, wire_type, encode, _ in _CODECS
}
_DECODERS: Dict[int, Decoder] = {
    wire_type: decode for _, wire_type, _, decode in _CODECS
}

#: Exceptions a hostile body parse may legitimately surface.  Anything
#: outside this tuple is a codec bug and *should* propagate in tests.
_DECODE_FAILURES = (_Malformed, struct.error, IndexError, UnicodeDecodeError)


def encode_frame(message: Message) -> bytes:
    """Serialize one message into a framed datagram.

    Raises :class:`~repro.errors.NetError` on anything unencodable —
    encode failures are local bugs, unlike decode failures which are
    adversarial input and therefore returned as values.
    """
    codec = _ENCODERS.get(type(message))
    if codec is None:
        raise NetError(f"cannot encode {type(message).__name__}")
    wire_type, encode = codec
    try:
        body = encode(message)
    except struct.error as error:
        raise NetError(
            f"{type(message).__name__} field out of range: {error}"
        ) from error
    frame = HEADER.pack(MAGIC, WIRE_VERSION, wire_type, len(body)) + body
    if len(frame) > MAX_FRAME:
        raise NetError(
            f"frame of {len(frame)} bytes exceeds MAX_FRAME={MAX_FRAME}"
        )
    return frame


def decode_frame(data: bytes) -> Union[Message, CodecError]:
    """Parse one datagram; returns a message or a :class:`CodecError`.

    Never raises on any input byte string: all validation failures come
    back as values (see the class docstring for the code catalog).
    """
    size = len(data)
    if size < _HEADER_SIZE:
        return CodecError(
            "truncated", f"frame of {size} bytes is shorter than a header"
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
    if size - _HEADER_SIZE != length:
        return CodecError(
            "length-mismatch",
            f"declared {length} body bytes but received {size - _HEADER_SIZE}",
        )
    decode = _DECODERS.get(wire_type)
    if decode is None:
        return CodecError("unknown-type", f"unknown message type {wire_type}")
    try:
        message, end = decode(data, _HEADER_SIZE)
    except _DECODE_FAILURES as error:
        return CodecError("malformed", f"type {wire_type}: {error}")
    if end != size:
        return CodecError(
            "malformed", f"type {wire_type}: trailing bytes after body"
        )
    return message
