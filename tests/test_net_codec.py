"""Wire codec: seeded round-trip properties and hostile-input rejection.

The decode contract under test: ``decode_frame`` NEVER raises — every
malformed datagram (truncated frame, oversize length prefix, unknown
version, flipped bytes, random garbage) comes back as a typed
:class:`CodecError` value.
"""

import struct

import numpy as np
import pytest

from repro.errors import NetError
from repro.net.codec import (
    HEADER,
    MAGIC,
    MAX_FRAME,
    WIRE_VERSION,
    AppPayload,
    CodecError,
    Goodbye,
    Heartbeat,
    Hello,
    HelloAck,
    Lookup,
    LookupReply,
    PeerInfo,
    Register,
    ShuffleOffer,
    ShuffleReply,
    WireEntry,
    decode_frame,
    encode_frame,
)

def _rng():
    return np.random.default_rng(20260808)


def _random_entry(rng) -> WireEntry:
    return WireEntry(
        value=int(rng.integers(0, 2**63)),
        token=int(rng.integers(1, 2**63)),
        ttl=float(rng.uniform(-5.0, 100.0)),
        host="127.0.0.1" if rng.random() < 0.5 else "",
        port=int(rng.integers(0, 65536)),
    )


def _random_message(rng):
    kind = int(rng.integers(0, 10))
    if kind == 0:
        return Hello(
            node_id=int(rng.integers(0, 2**32, dtype=np.uint32)),
            host="10.0.0.%d" % rng.integers(1, 255),
            port=int(rng.integers(1, 65536)),
        )
    if kind == 1:
        return HelloAck(
            node_id=int(rng.integers(0, 2**32, dtype=np.uint32)),
            peers=tuple(
                PeerInfo(
                    node_id=int(rng.integers(0, 2**32, dtype=np.uint32)),
                    host="h%d.example" % i,
                    port=int(rng.integers(1, 65536)),
                )
                for i in range(int(rng.integers(0, 6)))
            ),
        )
    if kind == 2:
        return Heartbeat(
            node_id=int(rng.integers(0, 2**32, dtype=np.uint32)),
            seq=int(rng.integers(0, 2**32, dtype=np.uint32)),
            reply_wanted=bool(rng.random() < 0.5),
        )
    if kind == 3:
        entries = tuple(
            _random_entry(rng) for _ in range(int(rng.integers(1, 9)))
        )
        if rng.random() < 0.5:
            return ShuffleOffer(
                entries=entries, reply_node=int(rng.integers(0, 2**32, dtype=np.uint32))
            )
        return ShuffleOffer(
            entries=entries,
            reply_token=int(rng.integers(1, 2**63)),
            reply_host="127.0.0.1",
            reply_port=int(rng.integers(1, 65536)),
        )
    if kind == 4:
        return ShuffleReply(
            entries=tuple(
                _random_entry(rng) for _ in range(int(rng.integers(1, 9)))
            )
        )
    if kind == 5:
        return Register(
            node_id=int(rng.integers(0, 2**32, dtype=np.uint32)),
            token=int(rng.integers(1, 2**63)),
            host="127.0.0.1",
            port=int(rng.integers(1, 65536)),
            active=bool(rng.random() < 0.5),
        )
    if kind == 6:
        return Lookup(token=int(rng.integers(1, 2**63)))
    if kind == 7:
        return LookupReply(
            token=int(rng.integers(1, 2**63)),
            found=bool(rng.random() < 0.5),
            host="127.0.0.1",
            port=int(rng.integers(0, 65536)),
        )
    if kind == 8:
        return AppPayload(
            kind="json",
            body=bytes(rng.integers(0, 256, size=int(rng.integers(0, 64)),
                                    dtype=np.uint8)),
        )
    return Goodbye(node_id=int(rng.integers(0, 2**32, dtype=np.uint32)))


class TestRoundTrip:
    def test_seeded_property_round_trip(self):
        # 300 random messages across all ten wire types survive
        # encode -> decode bit-exactly.
        rng = _rng()
        seen_types = set()
        for _ in range(300):
            message = _random_message(rng)
            seen_types.add(type(message).__name__)
            frame = encode_frame(message)
            decoded = decode_frame(frame)
            assert decoded == message, (message, decoded)
        assert len(seen_types) == 10  # every wire type exercised

    def test_infinite_ttl_survives(self):
        offer = ShuffleReply(
            entries=(WireEntry(value=1, token=2, ttl=float("inf")),)
        )
        decoded = decode_frame(encode_frame(offer))
        assert decoded.entries[0].ttl == float("inf")

    def test_empty_app_payload(self):
        message = AppPayload(kind="json", body=b"")
        assert decode_frame(encode_frame(message)) == message


class TestGoldenFrames:
    """One frame of every message type, as bytes computed on commit
    d0eb936 (before the table-driven codec).  Round trips pass for any
    change made symmetrically on both sides; these do not."""

    FRAMES = [
        (
            Hello(node_id=7, host="10.0.0.1", port=4000),
            "524e01010000001000000007000831302e302e302e310fa0",
        ),
        (HelloAck(node_id=0), "524e010200000006000000000000"),
        (
            HelloAck(
                node_id=0,
                peers=(
                    PeerInfo(node_id=1, host="127.0.0.1", port=5001),
                    PeerInfo(node_id=70000, host="h.example", port=65535),
                ),
            ),
            "524e0102000000280000000000020000000100093132372e302e302e311389"
            "000111700009682e6578616d706c65ffff",
        ),
        (
            Heartbeat(node_id=3, seq=258),
            "524e010300000009000000030000010200",
        ),
        (
            Heartbeat(node_id=3, seq=258, reply_wanted=True),
            "524e010300000009000000030000010201",
        ),
        (
            # Trusted reply channel.
            ShuffleOffer(
                entries=(
                    WireEntry(
                        value=2**63 - 1, token=1, ttl=14.5,
                        host="127.0.0.1", port=7001,
                    ),
                ),
                reply_node=5,
            ),
            "524e01040000002b0100000005017fffffffffffffff0000000000000001"
            "402d00000000000000093132372e302e302e311b59",
        ),
        (
            # Pseudonym reply channel; an infinite TTL, a negative one.
            ShuffleOffer(
                entries=(
                    WireEntry(value=9, token=10, ttl=float("inf")),
                    WireEntry(value=11, token=12, ttl=-0.25, host="h", port=1),
                ),
                reply_token=2**62 + 3,
                reply_host="127.0.0.1",
                reply_port=7002,
            ),
            "524e01040000005000400000000000000300093132372e302e302e311b5a02"
            "0000000000000009000000000000000a7ff000000000000000000000000000"
            "000000000b000000000000000cbfd00000000000000001680001",
        ),
        (
            # Pseudonym reply channel without a hint; empty route hint.
            ShuffleOffer(
                entries=(WireEntry(value=1, token=2, ttl=3.0),),
                reply_token=99,
            ),
            "524e01040000002a0000000000000000630000000001000000000000000100"
            "00000000000002400800000000000000000000",
        ),
        (
            ShuffleReply(entries=(WireEntry(value=5, token=6, ttl=1.5),)),
            "524e01050000001d01000000000000000500000000000000063ff800000000"
            "000000000000",
        ),
        (
            Register(node_id=4, token=123456789, host="127.0.0.1", port=7004),
            "524e01060000001a0000000400000000075bcd1500093132372e302e302e31"
            "1b5c01",
        ),
        (
            Register(
                node_id=4, token=123456789, host="127.0.0.1", port=7004,
                active=False,
            ),
            "524e01060000001a0000000400000000075bcd1500093132372e302e302e31"
            "1b5c00",
        ),
        (Lookup(token=2**63 + 5), "524e0107000000088000000000000005"),
        (
            LookupReply(token=77, found=True, host="127.0.0.1", port=7005),
            "524e010800000016000000000000004d0100093132372e302e302e311b5d",
        ),
        (
            LookupReply(token=77, found=False),
            "524e01080000000d000000000000004d0000000000",
        ),
        (
            AppPayload(kind="json", body=b'{"a": 1}'),
            "524e01090000001200046a736f6e000000087b2261223a20317d",
        ),
        (AppPayload(kind="json", body=b""), "524e01090000000a00046a736f6e00000000"),
        (Goodbye(node_id=65536), "524e010a0000000400010000"),
    ]

    def test_every_type_is_pinned(self):
        assert len({type(message) for message, _ in self.FRAMES}) == 10

    @pytest.mark.parametrize("index", range(len(FRAMES)))
    def test_encode_matches_golden_bytes(self, index):
        message, golden = self.FRAMES[index]
        assert encode_frame(message).hex() == golden

    @pytest.mark.parametrize("index", range(len(FRAMES)))
    def test_golden_bytes_decode_to_message(self, index):
        message, golden = self.FRAMES[index]
        assert decode_frame(bytes.fromhex(golden)) == message


class TestEncodeRejection:
    def test_oversize_frame_refused(self):
        big = AppPayload(kind="blob", body=b"x" * (MAX_FRAME + 1))
        with pytest.raises(NetError):
            encode_frame(big)

    def test_string_too_long_refused(self):
        with pytest.raises(NetError):
            encode_frame(Hello(node_id=1, host="h" * 600, port=1))

    def test_field_out_of_range_refused(self):
        with pytest.raises(NetError):
            encode_frame(Hello(node_id=2**32, host="h", port=1))
        with pytest.raises(NetError):
            encode_frame(Hello(node_id=1, host="h", port=70000))

    def test_shuffle_offer_needs_exactly_one_reply_channel(self):
        entries = (WireEntry(value=1, token=2, ttl=3.0),)
        with pytest.raises(NetError):
            encode_frame(ShuffleOffer(entries=entries))
        with pytest.raises(NetError):
            encode_frame(
                ShuffleOffer(entries=entries, reply_node=1, reply_token=2)
            )

    def test_nan_ttl_refused(self):
        # Every receiver would reject the whole frame as malformed.
        entries = (
            WireEntry(value=1, token=2, ttl=3.0),
            WireEntry(value=3, token=4, ttl=float("nan")),
        )
        with pytest.raises(NetError):
            encode_frame(ShuffleReply(entries=entries))
        with pytest.raises(NetError):
            encode_frame(ShuffleOffer(entries=entries, reply_node=1))

    def test_empty_shuffle_refused(self):
        with pytest.raises(NetError):
            encode_frame(ShuffleReply(entries=()))

    def test_unknown_message_type_refused(self):
        with pytest.raises(NetError):
            encode_frame("not a message")


class TestDecodeRejection:
    """No input may raise; every failure is a typed CodecError."""

    def test_short_header(self):
        for size in range(HEADER.size):
            result = decode_frame(b"\x00" * size)
            assert isinstance(result, CodecError)
            assert result.code == "truncated"

    def test_bad_magic(self):
        frame = bytearray(encode_frame(Goodbye(node_id=7)))
        frame[0:2] = b"XX"
        result = decode_frame(bytes(frame))
        assert isinstance(result, CodecError)
        assert result.code == "bad-magic"

    def test_unknown_version(self):
        frame = bytearray(encode_frame(Goodbye(node_id=7)))
        frame[2] = WIRE_VERSION + 1
        result = decode_frame(bytes(frame))
        assert isinstance(result, CodecError)
        assert result.code == "unknown-version"

    def test_unknown_type(self):
        body = b""
        frame = HEADER.pack(MAGIC, WIRE_VERSION, 200, len(body)) + body
        result = decode_frame(frame)
        assert isinstance(result, CodecError)
        assert result.code == "unknown-type"

    def test_oversize_length_prefix(self):
        # Declared length beyond MAX_FRAME is rejected before any body
        # allocation logic runs.
        frame = HEADER.pack(MAGIC, WIRE_VERSION, 10, MAX_FRAME + 1)
        result = decode_frame(frame)
        assert isinstance(result, CodecError)
        assert result.code == "oversize"

    def test_length_prefix_disagrees_with_payload(self):
        good = encode_frame(Goodbye(node_id=7))
        truncated = good[:-1]
        result = decode_frame(truncated)
        assert isinstance(result, CodecError)
        assert result.code == "length-mismatch"
        padded = good + b"\x00"
        result = decode_frame(padded)
        assert isinstance(result, CodecError)
        assert result.code == "length-mismatch"

    def test_truncated_body_every_prefix(self):
        # Cut a real multi-field frame at every possible byte boundary:
        # none may raise, all must reject.
        rng = _rng()
        frame = encode_frame(
            ShuffleOffer(
                entries=tuple(_random_entry(rng) for _ in range(3)),
                reply_token=12345,
                reply_host="127.0.0.1",
                reply_port=4000,
            )
        )
        for cut in range(HEADER.size, len(frame)):
            body = frame[HEADER.size:cut]
            refraned = (
                HEADER.pack(MAGIC, WIRE_VERSION, 4, len(body)) + body
            )
            result = decode_frame(refraned)
            assert isinstance(result, CodecError), cut

    def test_zero_entry_shuffle_rejected(self):
        body = bytearray()
        body.append(1)                      # trusted reply channel
        body += struct.pack(">I", 9)        # reply_node
        body.append(0)                      # zero entries
        frame = HEADER.pack(MAGIC, WIRE_VERSION, 4, len(body)) + bytes(body)
        result = decode_frame(frame)
        assert isinstance(result, CodecError)
        assert result.code == "malformed"

    def test_bad_reply_channel_flag(self):
        body = bytearray()
        body.append(7)                      # neither 0 nor 1
        frame = HEADER.pack(MAGIC, WIRE_VERSION, 4, len(body)) + bytes(body)
        result = decode_frame(frame)
        assert isinstance(result, CodecError)

    @pytest.mark.parametrize(
        "message",
        [
            Heartbeat(node_id=3, seq=4, reply_wanted=True),
            Register(node_id=4, token=5, host="h", port=6),
            LookupReply(token=7, found=True, host="h", port=8),
        ],
    )
    def test_flag_byte_other_than_0_or_1_rejected(self, message):
        # Accepting 0x07 as True would re-encode as 0x01: decode would
        # not be the inverse of encode.
        frame = bytearray(encode_frame(message))
        offset = {Heartbeat: -1, Register: -1, LookupReply: HEADER.size + 8}
        position = offset[type(message)]
        assert frame[position] == 1
        frame[position] = 0x07
        result = decode_frame(bytes(frame))
        assert isinstance(result, CodecError)
        assert result.code == "malformed"

    def test_nan_ttl_rejected(self):
        frame = bytearray(
            encode_frame(
                ShuffleReply(
                    entries=(WireEntry(value=1, token=2, ttl=1.0),)
                )
            )
        )
        # body layout: count u8 | value u64 | token u64 | ttl f64 ...
        ttl_offset = HEADER.size + 1 + 8 + 8
        frame[ttl_offset:ttl_offset + 8] = struct.pack(">d", float("nan"))
        result = decode_frame(bytes(frame))
        assert isinstance(result, CodecError)
        assert result.code == "malformed"

    def test_invalid_utf8_string(self):
        body = bytearray()
        body += struct.pack(">I", 1)        # node_id
        body += struct.pack(">H", 2)        # host length
        body += b"\xff\xfe"                 # invalid UTF-8
        body += struct.pack(">H", 80)       # port
        frame = HEADER.pack(MAGIC, WIRE_VERSION, 1, len(body)) + bytes(body)
        result = decode_frame(frame)
        assert isinstance(result, CodecError)
        assert result.code == "malformed"

    def test_trailing_bytes_rejected(self):
        good = encode_frame(Goodbye(node_id=7))
        body = good[HEADER.size:] + b"\x00\x00"
        frame = HEADER.pack(MAGIC, WIRE_VERSION, 10, len(body)) + body
        result = decode_frame(frame)
        assert isinstance(result, CodecError)
        assert result.code == "malformed"

    def test_random_garbage_never_raises(self):
        # 2000 random buffers, some wearing a valid header; the decoder
        # must return a value for every one of them.
        rng = _rng()
        for _ in range(2000):
            size = int(rng.integers(0, 128))
            data = bytes(rng.integers(0, 256, size=size, dtype=np.uint8))
            if rng.random() < 0.5 and size >= HEADER.size:
                # Graft a plausible header onto the garbage.
                data = (
                    HEADER.pack(
                        MAGIC,
                        WIRE_VERSION,
                        int(rng.integers(0, 16)),
                        size - HEADER.size,
                    )
                    + data[HEADER.size:]
                )
            result = decode_frame(data)
            assert result is not None

    def test_mutated_valid_frames_never_raise(self):
        # Flip every byte of valid frames one at a time; decode must
        # return (message or error), never raise.  Decode is canonical:
        # a mutant it accepts is exactly the encoding of what it
        # returned, so a mutated flag, count or length is either
        # rejected or a different message, never a second spelling.
        rng = _rng()
        for _ in range(20):
            frame = bytearray(encode_frame(_random_message(rng)))
            for position in range(len(frame)):
                for flip in (0xFF, 0x06):
                    mutated = bytearray(frame)
                    mutated[position] ^= flip
                    result = decode_frame(bytes(mutated))
                    assert result is not None
                    if not isinstance(result, CodecError):
                        assert encode_frame(result) == bytes(mutated)
