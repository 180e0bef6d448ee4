"""Property-style tests for the cluster wire codec.

The codec must round-trip every envelope the protocols can put on the
wire — including the §3.3 wildcard-phase messages — and must reject
malformed byte streams (truncation, bad magic, version skew, hostile
length prefixes) with :class:`CodecError` rather than garbled frames.
"""

import json
import random
import struct

import pytest

import repro.cluster.codec as codec_module
from repro.cluster.codec import (
    ENTRY_HEADER_SIZE,
    HEADER_SIZE,
    KIND_ACK,
    KIND_DATA,
    KIND_HELLO,
    MAGIC,
    MAX_BODY,
    WIRE_VERSION,
    AckFrame,
    ByeFrame,
    CodecError,
    DataFrame,
    FrameReader,
    HelloFrame,
    decode_frame_bytes,
    encode_frame,
    encode_payload_bytes,
    frame_kind,
)
from repro.core.messages import (
    STAR,
    EchoMessage,
    FailStopMessage,
    InitialMessage,
    SimpleMessage,
)
from repro.net.message import Envelope

pytestmark = pytest.mark.cluster


def random_payload(rng: random.Random):
    """One random protocol message, covering every wire payload shape."""
    kind = rng.randrange(5)
    value = rng.randrange(2)
    if kind == 0:
        return FailStopMessage(
            phaseno=rng.randrange(50),
            value=value,
            cardinality=rng.randrange(20),
        )
    phase = STAR if rng.random() < 0.25 else rng.randrange(50)
    if kind == 1:
        return InitialMessage(origin=rng.randrange(10), value=value, phaseno=phase)
    if kind == 2:
        return EchoMessage(origin=rng.randrange(10), value=value, phaseno=phase)
    if kind == 3:
        return SimpleMessage(phaseno=rng.randrange(50), value=value)
    return None  # φ-style empty payload


def random_envelope(rng: random.Random) -> Envelope:
    return Envelope(
        sender=rng.randrange(10),
        recipient=rng.randrange(10),
        payload=random_payload(rng),
        seq=rng.randrange(1_000_000),
    )


def random_data_frame(rng: random.Random, link_seq: int) -> DataFrame:
    return DataFrame(
        link_seq=link_seq,
        envelope=random_envelope(rng),
        instance=rng.randrange(100),
    )


def random_trace(rng: random.Random):
    """A trace extension on about one entry in four."""
    if rng.random() < 0.75:
        return None
    return (f"r-i{rng.randrange(9)}", f"0:{rng.randrange(99)}", 1_700_000, 2)


def random_multi_frame(
    rng: random.Random, link_seq: int, count: int
) -> DataFrame:
    """One write's data frame: ``count`` entries on one link."""
    return DataFrame.of(
        link_seq,
        rng.randrange(10),
        rng.randrange(10),
        tuple(
            (rng.randrange(100), random_payload(rng), random_trace(rng))
            for _ in range(count)
        ),
    )


class TestFrameRoundTrip:
    def frames(self, rng: random.Random, count: int):
        out = []
        for index in range(count):
            choice = rng.randrange(5)
            if choice == 0:
                out.append(HelloFrame(pid=rng.randrange(10), n=10))
            elif choice == 1:
                out.append(random_data_frame(rng, index))
            elif choice == 2:
                out.append(AckFrame(acked=rng.randrange(1000)))
            elif choice == 3:
                out.append(
                    random_multi_frame(rng, index, rng.randrange(1, 6))
                )
            else:
                out.append(ByeFrame())
        return out

    def test_frame_stream_round_trips_under_arbitrary_chunking(self):
        rng = random.Random(2)
        for _ in range(30):
            frames = self.frames(rng, rng.randrange(1, 12))
            blob = b"".join(encode_frame(frame) for frame in frames)
            reader = FrameReader()
            decoded = []
            position = 0
            while position < len(blob):
                step = rng.randrange(1, 40)
                reader.feed(blob[position : position + step])
                decoded.extend(reader.frames())
                position += step
            reader.finish()
            assert decoded == frames

    def test_one_shot_decode_matches(self):
        rng = random.Random(3)
        frames = self.frames(rng, 8)
        blob = b"".join(encode_frame(frame) for frame in frames)
        assert decode_frame_bytes(blob) == frames

    def test_raw_mode_yields_kind_and_exact_bytes(self):
        rng = random.Random(4)
        frames = [
            HelloFrame(pid=1, n=4),
            DataFrame(link_seq=0, envelope=random_envelope(rng)),
            AckFrame(acked=0),
        ]
        blob = b"".join(encode_frame(frame) for frame in frames)
        reader = FrameReader(raw=True)
        reader.feed(blob)
        raw = list(reader.frames())
        assert [kind for kind, _ in raw] == [KIND_HELLO, KIND_DATA, KIND_ACK]
        assert b"".join(frame_bytes for _, frame_bytes in raw) == blob
        for kind, frame_bytes in raw:
            assert frame_kind(frame_bytes) == kind


class TestInstanceTagging:
    def test_instances_round_trip(self):
        rng = random.Random(11)
        for _ in range(100):
            frame = random_data_frame(rng, rng.randrange(1000))
            (decoded,) = decode_frame_bytes(encode_frame(frame))
            assert decoded == frame
            assert decoded.instance == frame.instance

    def test_default_instance_is_zero(self):
        rng = random.Random(12)
        frame = DataFrame(link_seq=0, envelope=random_envelope(rng))
        assert frame.instance == 0
        (decoded,) = decode_frame_bytes(encode_frame(frame))
        assert decoded.instance == 0


def header(kind: int, length: int, version: int = WIRE_VERSION) -> bytes:
    """A hand-packed frame header."""
    return struct.pack(">2sBBI", MAGIC, version, kind, length)


#: One instance of every payload kind the protocols can put on the wire.
PAYLOAD_KINDS = [
    FailStopMessage(phaseno=3, value=1, cardinality=5),
    InitialMessage(origin=2, value=0, phaseno=7),
    InitialMessage(origin=2, value=1, phaseno=STAR),
    EchoMessage(origin=4, value=1, phaseno=0),
    EchoMessage(origin=4, value=0, phaseno=STAR),
    SimpleMessage(phaseno=9, value=1),
    None,
    True,
    17,
    2.5,
    "φ",
]


class TestPayloadKinds:
    @pytest.mark.parametrize(
        "trace", [None, ("r-i4", "0:12", 1_700_000_000_000_000, 3)]
    )
    @pytest.mark.parametrize("payload", PAYLOAD_KINDS, ids=repr)
    def test_every_payload_kind_round_trips(self, payload, trace):
        frame = DataFrame(
            link_seq=8,
            envelope=Envelope(sender=1, recipient=2, payload=payload, seq=44),
            instance=4,
            trace=trace,
        )
        # Alone, and as the middle entry of a write.
        batch = DataFrame.of(
            8, 1, 2, ((0, 1, None), *frame.entries, (9, None, None))
        )
        for sent in (frame, batch):
            (decoded,) = decode_frame_bytes(encode_frame(sent))
            assert decoded == sent
            (entry,) = [e for e in decoded.entries if e[0] == 4]
            assert entry[2] == trace
            assert type(entry[1]) is type(payload)
            if getattr(payload, "phaseno", None) is STAR:
                assert entry[1].phaseno is STAR

    def test_payload_bytes_are_the_trace_payload_codec(self):
        """The wire payload is exactly json(encode_payload(...)), and a
        caller may hand it to encode_frame instead of the frame encoding
        it again."""
        import json

        from repro.obs.sinks import encode_payload

        for payload in PAYLOAD_KINDS:
            encoded = encode_payload_bytes(payload)
            assert json.loads(encoded) == encode_payload(payload)
            frame = DataFrame(
                link_seq=0, envelope=Envelope(0, 1, payload, seq=1)
            )
            assert encode_frame(frame, [encoded]) == encode_frame(frame)
            assert encode_frame(frame).endswith(encoded)


def data_prefix(link_seq: int = 0, sender: int = 0, recipient: int = 1):
    """A hand-packed data frame prefix."""
    return struct.pack(">QHH", link_seq, sender, recipient)


def entry_bytes(payload: bytes, instance: int = 0, ext: bytes = b"") -> bytes:
    """One hand-packed data frame entry."""
    head = struct.pack(">QHI", instance, len(ext), len(payload))
    return head + ext + payload


class TestBatchFrames:
    """Multi-entry data frames: everything one flush writes to a link,
    under one ``link_seq``."""

    def batch(self, rng: random.Random, count: int) -> DataFrame:
        return random_multi_frame(rng, rng.randrange(1000), count)

    def test_batch_round_trips_under_arbitrary_chunking(self):
        rng = random.Random(13)
        for _ in range(20):
            batch = self.batch(rng, rng.randrange(1, 10))
            blob = encode_frame(batch)
            reader = FrameReader()
            decoded = []
            position = 0
            while position < len(blob):
                step = rng.randrange(1, 30)
                reader.feed(blob[position : position + step])
                decoded.extend(reader.frames())
                position += step
            reader.finish()
            assert decoded == [batch]

    def test_batch_body_is_the_prefix_then_the_entries(self):
        batch = self.batch(random.Random(19), 4)
        payloads = [encode_payload_bytes(entry[1]) for entry in batch.entries]
        blob = encode_frame(batch)
        assert blob[HEADER_SIZE:] == data_prefix(
            batch.link_seq, batch.sender, batch.recipient
        ) + b"".join(
            entry_bytes(
                payload,
                instance,
                b"" if trace is None else json.dumps(
                    list(trace), separators=(",", ":")
                ).encode(),
            )
            for (instance, _, trace), payload in zip(batch.entries, payloads)
        )
        # Handing the payloads over yields the same bytes without
        # encoding any payload again.
        assert encode_frame(batch, payloads) == blob
        with pytest.raises(CodecError, match="payloads"):
            encode_frame(batch, payloads[:-1])

    def test_raw_reader_yields_a_batch_as_one_unit(self):
        """The chaos proxy drops or delays one write whole: a raw reader
        yields a multi-entry frame as one unit."""
        batch = self.batch(random.Random(20), 5)
        blob = encode_frame(batch)
        reader = FrameReader(raw=True)
        reader.feed(blob + encode_frame(AckFrame(acked=4)))
        assert list(reader.frames()) == [
            (KIND_DATA, blob),
            (KIND_ACK, encode_frame(AckFrame(acked=4))),
        ]

    def test_every_batch_truncation_is_detected(self):
        blob = encode_frame(self.batch(random.Random(14), 3))
        for cut in range(1, len(blob)):
            with pytest.raises(CodecError):
                decode_frame_bytes(blob[:cut])

    def test_batch_body_cut_short_inside_its_declared_length_rejected(self):
        """A frame whose own header is consistent but whose body ends
        inside its prefix or an entry (at every offset) is rejected, not
        mis-split; ending between entries is a frame of fewer entries."""
        batch = self.batch(random.Random(21), 3)
        body = encode_frame(batch)[HEADER_SIZE:]
        boundaries = {}  # body offset where entry #count ends
        offset = len(data_prefix())
        for count, entry in enumerate(batch.entries, start=1):
            alone = encode_frame(DataFrame.of(0, 0, 1, (entry,)))
            offset += len(alone) - HEADER_SIZE - len(data_prefix())
            boundaries[offset] = count
        assert offset == len(body)
        for cut in range(1, len(body) + 1):
            blob = header(KIND_DATA, cut) + body[:cut]
            if cut in boundaries:
                (decoded,) = decode_frame_bytes(blob)
                assert decoded.entries == batch.entries[: boundaries[cut]]
            else:
                with pytest.raises(CodecError):
                    decode_frame_bytes(blob)

    def test_empty_batch_rejected_on_encode(self):
        with pytest.raises(CodecError, match="empty"):
            encode_frame(DataFrame.of(0, 0, 1, ()))

    def test_empty_batch_rejected_on_decode(self):
        with pytest.raises(CodecError, match="empty"):
            decode_frame_bytes(header(KIND_DATA, 12) + data_prefix())

    def test_inner_length_overrunning_the_batch_rejected(self):
        """An entry whose header, extension or payload runs past the
        frame body is rejected."""
        good = entry_bytes(encode_payload_bytes(None))
        payload = encode_payload_bytes(7)
        for last, reason in (
            (struct.pack(">QHI", 0, 0, len(payload) + 1) + payload, "overruns"),
            (entry_bytes(payload)[:-1], "overruns"),
            (struct.pack(">QHI", 0, 4, len(payload)) + payload, "overruns"),
            (good[:ENTRY_HEADER_SIZE - 1], "entry header"),
        ):
            body = data_prefix() + good + last
            with pytest.raises(CodecError, match=reason):
                decode_frame_bytes(header(KIND_DATA, len(body)) + body)

    def test_assembled_batch_over_max_body_rejected(self):
        """MAX_BODY holds for the assembled frame, not just its entries."""
        payload = encode_payload_bytes("x" * (MAX_BODY // 2))
        frame = DataFrame.of(0, 0, 1, ((0, None, None), (1, None, None)))
        with pytest.raises(CodecError, match="MAX_BODY"):
            encode_frame(frame, [payload, payload])


class TestLegacyWireVersion:
    """There is one wire revision: older ones, v3 included, are refused
    outright."""

    def test_v1_frames_rejected_by_default(self):
        blob = encode_frame(
            DataFrame(link_seq=5, envelope=random_envelope(random.Random(15)))
        )
        for version in range(WIRE_VERSION):
            old = bytearray(blob)
            old[2] = version
            with pytest.raises(CodecError, match="version mismatch"):
                decode_frame_bytes(bytes(old))


class TestInterning:
    """A decoding reader parses byte-identical payloads once."""

    def echo_frames(self, count: int, recipient: int = 1):
        message = EchoMessage(origin=2, value=1, phaseno=4)
        return [
            DataFrame(
                link_seq=seq,
                envelope=Envelope(0, recipient, message, seq=100 + seq),
                instance=seq,
            )
            for seq in range(count)
        ]

    def test_identical_payload_bytes_share_one_decoded_message(self, monkeypatch):
        decodes = []
        real = codec_module.decode_payload
        monkeypatch.setattr(
            codec_module,
            "decode_payload",
            lambda record: decodes.append(record) or real(record),
        )
        frames = self.echo_frames(6)
        batch = DataFrame.of(
            1, 0, 1, tuple(frame.entries[0] for frame in frames[1:])
        )
        reader = FrameReader()
        reader.feed(encode_frame(frames[0]))
        reader.feed(encode_frame(batch))
        decoded = list(reader.frames())
        assert decoded == [frames[0], batch]
        assert len(decodes) == 1
        payloads = [entry[1] for frame in decoded for entry in frame.entries]
        assert len(payloads) == 6
        assert all(payload is payloads[0] for payload in payloads)

    def test_tables_are_per_reader(self):
        blob = encode_frame(self.echo_frames(1)[0])
        one, other = FrameReader(), FrameReader()
        one.feed(blob)
        list(one.frames())
        assert len(one._interned) == 1
        assert other._interned == {}

    def test_table_is_cleared_wholesale_at_its_bound(self, monkeypatch):
        monkeypatch.setattr(codec_module, "INTERN_TABLE_SIZE", 8)
        reader = FrameReader()
        for tag in range(100):
            reader.feed(
                encode_frame(
                    DataFrame(link_seq=tag, envelope=Envelope(0, 1, tag, seq=tag))
                )
            )
            (decoded,) = reader.frames()
            assert decoded.entries[0][1] == tag
            assert len(reader._interned) <= 8

    def test_oversized_payloads_are_not_interned(self):
        big = "x" * (codec_module.INTERN_MAX_PAYLOAD + 1)
        reader = FrameReader()
        reader.feed(
            encode_frame(DataFrame(link_seq=0, envelope=Envelope(0, 1, big)))
        )
        (decoded,) = reader.frames()
        assert decoded.entries[0][1] == big
        assert reader._interned == {}

    def test_rejected_payloads_are_not_interned(self):
        frame = DataFrame(link_seq=0, envelope=Envelope(0, 1, None, seq=0))
        reader = FrameReader()
        for _ in range(2):
            reader.feed(encode_frame(frame, [b'{"kind":"NoSuchMessage"}']))
            with pytest.raises(CodecError, match="payload"):
                list(reader.frames())
        assert reader._interned == {}


class TestRejection:
    def encoded(self) -> bytes:
        return encode_frame(
            DataFrame(
                link_seq=3,
                envelope=Envelope(
                    sender=0,
                    recipient=1,
                    payload=EchoMessage(origin=2, value=1, phaseno=STAR),
                ),
            )
        )

    def test_every_truncation_is_detected(self):
        blob = self.encoded()
        for cut in range(1, len(blob)):
            with pytest.raises(CodecError):
                decode_frame_bytes(blob[:cut])

    def test_version_mismatch_rejected_at_header(self):
        blob = bytearray(self.encoded())
        blob[2] = WIRE_VERSION + 1
        with pytest.raises(CodecError, match="version mismatch"):
            decode_frame_bytes(bytes(blob))

    def test_bad_magic_rejected(self):
        blob = bytearray(self.encoded())
        blob[0:2] = b"ZZ"
        with pytest.raises(CodecError, match="magic"):
            decode_frame_bytes(bytes(blob))

    def test_unknown_kind_rejected(self):
        blob = bytearray(self.encoded())
        blob[3] = 99
        with pytest.raises(CodecError, match="kind"):
            decode_frame_bytes(bytes(blob))

    def test_hostile_length_prefix_rejected_before_buffering(self):
        reader = FrameReader()
        reader.feed(header(KIND_DATA, MAX_BODY + 1))
        with pytest.raises(CodecError, match="MAX_BODY"):
            list(reader.frames())

    def test_undecodable_body_rejected_with_reason(self):
        # Regression: the old blanket `except Exception` produced a bare
        # "undecodable" message; the narrowed handler names the cause.
        # Every JSON part of the wire goes through it: a hello body, a
        # data frame's payload, and its trace extension.
        junk = b"\xff\xfe\xfd"
        for kind, body in (
            (KIND_HELLO, junk),
            (KIND_DATA, data_prefix() + entry_bytes(junk)),
            (
                KIND_DATA,
                data_prefix()
                + entry_bytes(encode_payload_bytes(None), ext=junk),
            ),
        ):
            with pytest.raises(CodecError, match="UnicodeDecodeError"):
                decode_frame_bytes(header(kind, len(body)) + body)
        body = data_prefix() + entry_bytes(b"{")
        with pytest.raises(CodecError, match="JSONDecodeError"):
            decode_frame_bytes(header(KIND_DATA, len(body)) + body)

    def test_malformed_fixed_width_bodies_rejected(self):
        payload = encode_payload_bytes(None)
        # The extension claims more bytes than the body has left.
        overrun = struct.pack(">QHI", 0, 0x40, len(payload)) + payload
        for kind, body, reason in (
            (KIND_ACK, b"\x00" * 7, "ack body"),
            (KIND_ACK, b"\x00" * 9, "ack body"),
            (KIND_DATA, data_prefix()[:-1], "prefix"),
            (KIND_DATA, data_prefix() + overrun, "overruns"),
        ):
            with pytest.raises(CodecError, match=reason):
                decode_frame_bytes(header(kind, len(body)) + body)

    def test_malformed_trace_extension_rejected(self):
        payload = encode_payload_bytes(None)
        for ext in (b'["r",1,2]', b'{"a":1}', b"7"):
            body = data_prefix() + entry_bytes(payload, ext=ext)
            with pytest.raises(CodecError, match="trace extension"):
                decode_frame_bytes(header(KIND_DATA, len(body)) + body)

    def test_out_of_range_prefix_fields_raise_codec_error(self):
        """The prefix and entry headers are fixed-width: a field that
        does not fit is a CodecError from encode_frame, never a bare
        struct.error — in a frame's only entry or a later one."""
        def frame(link_seq=0, instance=0, sender=0, recipient=1, trace=None):
            return DataFrame(
                link_seq=link_seq,
                envelope=Envelope(sender, recipient, None),
                instance=instance,
                trace=trace,
            )

        for bad in (
            frame(link_seq=-1),
            frame(link_seq=1 << 64),
            frame(instance=-1),
            frame(instance=1 << 64),
            frame(sender=1 << 16),
            frame(recipient=-1),
            frame(recipient=1 << 16),
            frame(sender="0"),
            frame(trace=("x" * (1 << 16), "0:1", 1, 0)),
        ):
            with pytest.raises(CodecError, match="out of range"):
                encode_frame(bad)
            second = DataFrame.of(
                bad.link_seq,
                bad.sender,
                bad.recipient,
                frame().entries + bad.entries,
            )
            with pytest.raises(CodecError, match="out of range"):
                encode_frame(second)
        with pytest.raises(CodecError, match="out of range"):
            encode_frame(AckFrame(acked=1 << 63))
        # The extremes that do fit round-trip.
        edge = frame(
            link_seq=(1 << 64) - 1,
            instance=(1 << 64) - 1,
            sender=(1 << 16) - 1,
            recipient=(1 << 16) - 1,
        )
        assert decode_frame_bytes(encode_frame(edge)) == [edge]
        for acked in (-1, (1 << 63) - 1):
            ack = AckFrame(acked=acked)
            assert decode_frame_bytes(encode_frame(ack)) == [ack]

    def test_non_decode_errors_propagate_as_themselves(self, monkeypatch):
        # Regression for the blanket `except Exception` the body decoder
        # once had: a programming bug inside deserialisation must
        # surface as itself, never be laundered into a CodecError.
        def buggy_loads(data):
            raise AttributeError("harness bug, not a wire problem")

        blobs = (
            self.encoded(),
            encode_frame(
                DataFrame.of(
                    3, 0, 1, decode_frame_bytes(self.encoded())[0].entries * 2
                )
            ),
            encode_frame(HelloFrame(pid=0, n=4)),
        )
        monkeypatch.setattr(codec_module, "_loads", buggy_loads)
        for blob in blobs:
            with pytest.raises(AttributeError, match="harness bug"):
                decode_frame_bytes(blob)

    def test_header_size_is_stable(self):
        # The chaos proxy and transports index into raw frames; the
        # layout is part of the wire contract.
        assert HEADER_SIZE == 8
