"""Wire codec: versioned length-prefixed frames for the cluster runtime.

Frame layout (big-endian)::

    +-------+---------+------+----------+------------------+
    | magic | version | kind | body len | body (len bytes) |
    |  2 B  |   1 B   | 1 B  |   4 B    |                  |
    +-------+---------+------+----------+------------------+

The magic/version pair is checked on every frame, so a peer speaking a
different wire revision is rejected at the first frame rather than
producing garbled protocol state.  The *kind* byte names the frame type
without decoding the body — which is what lets the chaos proxy apply
drop/delay policies to data frames while passing handshakes and acks
through untouched.

Bodies, one layout per kind (wire v4)::

    data   link_seq  sender  recipient
             8 B      2 B      2 B
           then one or more entries, back to back to the end of the body:
             instance  ext len  payload len
               8 B       2 B       4 B
             + trace extension (ext len bytes of JSON, usually none)
             + payload (payload len bytes)
    ack    the cumulative link_seq as one signed 8-byte integer
    hello  JSON object {"pid", "n", "enc"}
    bye    JSON object {}

A data frame is one transport write: each envelope is an entry, and
the go-back-n layer numbers, acks and resends whole frames.

Everything a link sends thousands of times per second is fixed-width;
what stays JSON is either sent once per connection (hello, bye), rare
(the trace extension rides on one envelope in
:data:`~repro.cluster.transport.DEFAULT_TRACE_SAMPLE`), or the payload.
Payload bytes are exactly ``json(encode_payload(payload))`` — the one
payload codec of :mod:`repro.core.messages`, shared with the JSONL
traces, which type-checks every field at decode — so the wire format
and the trace format can never drift apart.  Keeping the payload an
opaque byte string is also what makes it cheap: a sender encodes one
broadcast's payload once and splices the same bytes into every
recipient's frame (:func:`encode_payload_bytes`), and a receiver maps
byte-identical payloads — every echo of one initial message — to one
decoded message without parsing them again (the reader's intern table).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Any, Iterator, Optional, Sequence, Union

from repro.errors import ReproError
from repro.net.message import Envelope
from repro.obs.sinks import decode_payload, encode_payload

_JSON_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


def _dumps(obj: Any) -> bytes:
    return _JSON_ENCODER.encode(obj).encode("utf-8")


def _loads(data: bytes) -> Any:
    return json.loads(data.decode("utf-8"))


#: JSON deserialisation failures the codec translates into
#: :class:`CodecError` (json.JSONDecodeError is a ValueError;
#: UnicodeDecodeError covers non-UTF-8 bytes).  Anything else is a
#: programming error and propagates (see :func:`_loads_wire`).
_JSON_DECODE_ERRORS = (ValueError, UnicodeDecodeError)

#: Name of the serialisation of everything that is not fixed-width on
#: the wire; the handshake carries it so mismatched peers fail loudly.
WIRE_ENCODING = "json"

#: Wire protocol magic bytes ("Resilient Consensus").
MAGIC = b"RC"
#: Wire protocol revision; bumped on any incompatible frame/body change.
#: v2 added the per-instance tag and the batch frame; v3 made the
#: data/batch/ack bodies fixed-width; v4 replaced a batch of one-envelope
#: data frames with one data frame of entries.  A reader accepts exactly
#: this revision.
WIRE_VERSION = 4
#: Upper bound on one frame's body — far above any protocol message, so
#: hitting it means a corrupt or hostile length prefix, not a big payload.
MAX_BODY = 1 << 20

_HEADER = struct.Struct(">2sBBI")
HEADER_SIZE = _HEADER.size

#: Data frame body prefix: link_seq, sender, recipient.
_DATA_PREFIX = struct.Struct(">QHH")
#: Data frame entry header: instance, trace-extension length, payload
#: length.
_ENTRY_HEAD = struct.Struct(">QHI")
#: Bytes an entry adds to its frame besides its extension and payload.
ENTRY_HEADER_SIZE = _ENTRY_HEAD.size
#: Ack body; signed because "nothing received yet" acks -1.
_ACK_BODY = struct.Struct(">q")

#: Frame kind bytes.
KIND_HELLO = 1
KIND_DATA = 2
KIND_ACK = 3
KIND_BYE = 4

_KINDS = frozenset({KIND_HELLO, KIND_DATA, KIND_ACK, KIND_BYE})

#: Most payloads one decoding reader interns before the table is cleared
#: wholesale.  The protocols' payload space is origin × value × phase ×
#: kind — hundreds of entries, independent of how many instances run —
#: so honest traffic never reaches the bound; a hostile peer streaming
#: distinct payloads can grow only its own connection's table, and only
#: to this many entries of at most :data:`INTERN_MAX_PAYLOAD` bytes.
INTERN_TABLE_SIZE = 4096
#: Payloads longer than this are decoded every time instead of interned
#: (protocol messages encode to ~55 bytes).
INTERN_MAX_PAYLOAD = 256

_MISSING = object()


class CodecError(ReproError):
    """A frame failed to parse: bad magic, version mismatch, truncation,
    an oversized length prefix, or a malformed or ill-typed body."""


@dataclass(frozen=True, slots=True)
class HelloFrame:
    """Handshake: the dialing peer introduces itself.

    ``pid`` is the transport-level identity every later data frame on
    this connection is attributed to (Section 3.1's sender
    authentication); ``n`` and ``encoding`` let the acceptor reject
    peers from a differently-shaped or differently-serialised cluster.
    """

    pid: int
    n: int
    encoding: str = WIRE_ENCODING


@dataclass(frozen=True, slots=True, init=False)
class DataFrame:
    """The protocol envelopes one write carries on one directed link.

    ``link_seq`` numbers the frames of one directed peer link 0, 1, 2…
    and drives the receiver's cumulative-ack/dedup reliability layer:
    one number per write, however many envelopes it carries.
    ``sender`` and ``recipient`` are the link's ends as the sender
    claims them (a receiver attributes the frame to the handshaken
    peer instead).  ``entries`` holds one ``(instance, payload,
    trace)`` per envelope, in send order.  ``instance`` names the
    consensus instance the envelope belongs to; the receiving node's
    demultiplexer routes it to that instance's protocol core.

    ``trace`` is the optional causal-trace extension: ``(trace_id,
    span_id, hlc_physical_us, hlc_logical)`` stamped by a traced sender
    (see :mod:`repro.obs.spans`).  An untraced entry carries a
    zero-length extension and decodes with ``trace is None``, so
    untraced peers never pay for it and interoperate with traced ones.

    ``DataFrame(link_seq, envelope, instance, trace)`` is a one-entry
    frame; :meth:`of` builds a frame from its entries.  The envelope's
    global ``seq`` is not on the wire: nothing past the wire reads it.
    """

    link_seq: int
    sender: int
    recipient: int
    entries: tuple

    def __init__(
        self,
        link_seq: int,
        envelope: Envelope,
        instance: int = 0,
        trace: Optional[tuple] = None,
    ) -> None:
        _fill_data(
            self,
            link_seq,
            envelope.sender,
            envelope.recipient,
            ((instance, envelope.payload, trace),),
        )

    @classmethod
    def of(
        cls, link_seq: int, sender: int, recipient: int, entries: tuple
    ) -> "DataFrame":
        """The frame carrying ``entries``, each ``(instance, payload,
        trace)``."""
        frame = object.__new__(cls)
        _fill_data(frame, link_seq, sender, recipient, entries)
        return frame

    @property
    def instance(self) -> int:
        """The first entry's instance: a one-entry frame's only one."""
        return self.entries[0][0]


def _fill_data(frame, link_seq, sender, recipient, entries) -> None:
    setattr_ = object.__setattr__  # the frame is frozen
    setattr_(frame, "link_seq", link_seq)
    setattr_(frame, "sender", sender)
    setattr_(frame, "recipient", recipient)
    setattr_(frame, "entries", entries)


@dataclass(frozen=True, slots=True)
class AckFrame:
    """Cumulative acknowledgement: every link_seq ≤ ``acked`` arrived."""

    acked: int


@dataclass(frozen=True, slots=True)
class ByeFrame:
    """Graceful close: the peer is done sending."""


Frame = Union[HelloFrame, DataFrame, AckFrame, ByeFrame]


# ---------------------------------------------------------------------- #
# Frame codec
# ---------------------------------------------------------------------- #


def encode_payload_bytes(payload: Any) -> bytes:
    """The wire form of one payload: ``json(encode_payload(payload))``.

    Exposed so a sender can encode one broadcast's payload once and
    hand the same bytes to :func:`encode_frame` for every recipient.
    """
    return _dumps(encode_payload(payload))


def _loads_wire(data: bytes, what: str) -> Any:
    try:
        return _loads(data)
    except _JSON_DECODE_ERRORS as exc:
        # Narrow on purpose: only genuine deserialisation failures are
        # codec errors.  Anything else (AttributeError, RecursionError…)
        # is a programming bug and must surface as itself.
        raise CodecError(
            f"undecodable {what}: {data[:64]!r} "
            f"({type(exc).__name__}: {exc})"
        ) from exc


def _decode_payload_bytes(data: bytes) -> Any:
    record = _loads_wire(data, "payload")
    try:
        return decode_payload(record)
    except ReproError as exc:
        raise CodecError(f"malformed payload record: {record!r}") from exc


def _encode_data(
    frame: DataFrame, payloads: Optional[Sequence[bytes]] = None
) -> bytes:
    entries = frame.entries
    if not entries:
        raise CodecError("refusing to encode an empty data frame")
    if payloads is None:
        payloads = [encode_payload_bytes(entry[1]) for entry in entries]
    elif len(payloads) != len(entries):
        raise CodecError(
            f"data frame of {len(entries)} entries given "
            f"{len(payloads)} encoded payloads"
        )
    try:
        parts = [
            _DATA_PREFIX.pack(frame.link_seq, frame.sender, frame.recipient)
        ]
        for (instance, _payload, trace), payload in zip(entries, payloads):
            ext = b"" if trace is None else _dumps(list(trace))
            parts += (
                _ENTRY_HEAD.pack(instance, len(ext), len(payload)), ext, payload
            )
    except struct.error as exc:
        raise CodecError(
            f"data frame field out of range for the wire layout: {exc}"
        ) from exc
    return _framed(KIND_DATA, b"".join(parts))


def _framed(kind: int, body: bytes) -> bytes:
    if len(body) > MAX_BODY:
        raise CodecError(f"frame body of {len(body)} bytes exceeds MAX_BODY")
    return _HEADER.pack(MAGIC, WIRE_VERSION, kind, len(body)) + body


def encode_frame(
    frame: Frame, payloads: Optional[Sequence[bytes]] = None
) -> bytes:
    """Serialise one frame, header included.

    A caller that already holds a data frame's payloads encoded, as
    :func:`encode_payload_bytes` produced them, passes them as
    ``payloads`` — one per entry, in entry order — instead of having
    them encoded again.
    """
    if isinstance(frame, DataFrame):
        return _encode_data(frame, payloads)
    if isinstance(frame, AckFrame):
        try:
            return _framed(KIND_ACK, _ACK_BODY.pack(frame.acked))
        except struct.error as exc:
            raise CodecError(f"ack out of range: {exc}") from exc
    if isinstance(frame, HelloFrame):
        return _framed(
            KIND_HELLO,
            _dumps({"pid": frame.pid, "n": frame.n, "enc": frame.encoding}),
        )
    if isinstance(frame, ByeFrame):
        return _framed(KIND_BYE, b"{}")
    raise CodecError(f"cannot encode frame of type {type(frame).__name__}")


def frame_kind(data: bytes) -> int:
    """The kind byte of an already-validated header (chaos proxy helper)."""
    return data[3]


class FrameReader:
    """Incremental frame parser over a byte stream.

    Feed arbitrary chunks with :meth:`feed`; completed frames come out of
    :meth:`frames`.  Header validation (magic, version, body size) happens
    as soon as a header is complete, so a bad peer is rejected before its
    body is even buffered.  :meth:`finish` flags truncation: end-of-stream
    in the middle of a frame raises :class:`CodecError`.

    A decoding reader interns payloads: byte-identical payload bytes
    decode once and later frames share the decoded message (protocol
    messages are frozen dataclasses, so sharing is unobservable).  The
    table belongs to the reader — one per connection — and is bounded by
    :data:`INTERN_TABLE_SIZE`.
    """

    def __init__(self, raw: bool = False) -> None:
        self._buffer = bytearray()
        #: raw mode yields (kind, frame_bytes) without decoding bodies —
        #: the chaos proxy forwards frames it never needs to understand.
        self._raw = raw
        self._interned: dict[bytes, Any] = {}

    def feed(self, data: bytes) -> None:
        """Append received bytes."""
        self._buffer.extend(data)

    def _check_header(self) -> int:
        """Validate the buffered header; return the full frame length."""
        magic, version, kind, length = _HEADER.unpack_from(self._buffer)
        if magic != MAGIC:
            raise CodecError(f"bad frame magic {bytes(magic)!r}")
        if version != WIRE_VERSION:
            raise CodecError(
                f"wire version mismatch: peer speaks v{version}, "
                f"this node speaks v{WIRE_VERSION}"
            )
        if length > MAX_BODY:
            raise CodecError(
                f"frame body length {length} exceeds MAX_BODY ({MAX_BODY})"
            )
        if kind not in _KINDS:
            raise CodecError(f"unknown frame kind {kind} for wire v{version}")
        return HEADER_SIZE + length

    def frames(self) -> Iterator:
        """Yield every complete frame currently buffered."""
        while len(self._buffer) >= HEADER_SIZE:
            total = self._check_header()
            if len(self._buffer) < total:
                return
            raw = bytes(self._buffer[:total])
            del self._buffer[:total]
            if self._raw:
                yield frame_kind(raw), raw
            else:
                yield self._decode(raw)

    def finish(self) -> None:
        """Assert end-of-stream cleanliness; raises on a partial frame."""
        if self._buffer:
            raise CodecError(
                f"truncated frame: stream ended with {len(self._buffer)} "
                "buffered bytes"
            )

    # ------------------------------------------------------------------ #
    # Body decoding (``raw`` is one whole frame, header already checked)
    # ------------------------------------------------------------------ #

    def _decode(self, raw: bytes) -> Frame:
        kind = raw[3]
        if kind == KIND_DATA:
            return self._decode_data(raw)
        if kind == KIND_ACK:
            if len(raw) != HEADER_SIZE + _ACK_BODY.size:
                raise CodecError(
                    f"ack body of {len(raw) - HEADER_SIZE} bytes, "
                    f"expected {_ACK_BODY.size}"
                )
            return AckFrame(acked=_ACK_BODY.unpack_from(raw, HEADER_SIZE)[0])
        record = _loads_wire(raw[HEADER_SIZE:], "frame body")
        if not isinstance(record, dict):
            raise CodecError(f"frame body is not a mapping: {record!r}")
        if kind == KIND_BYE:
            return ByeFrame()
        try:
            return HelloFrame(
                pid=record["pid"], n=record["n"], encoding=record["enc"]
            )
        except KeyError as exc:
            raise CodecError(f"frame body missing field {exc}") from exc

    def _decode_data(self, raw: bytes) -> DataFrame:
        """Decode a data frame: its prefix, then entries to the end."""
        end = len(raw)
        offset = HEADER_SIZE + _DATA_PREFIX.size
        if offset >= end:
            raise CodecError(
                f"empty data frame: a {end - HEADER_SIZE}-byte body holds "
                f"no entry after its {_DATA_PREFIX.size}-byte prefix"
            )
        link_seq, sender, recipient = _DATA_PREFIX.unpack_from(
            raw, HEADER_SIZE
        )
        interned = self._interned
        entries = []
        while offset < end:
            start = offset + ENTRY_HEADER_SIZE
            if start > end:
                raise CodecError(
                    f"data frame ends with {end - offset} bytes of an "
                    "entry header"
                )
            instance, ext_len, length = _ENTRY_HEAD.unpack_from(raw, offset)
            offset = start + ext_len + length
            if offset > end:
                raise CodecError(
                    f"entry of {ext_len} + {length} bytes overruns the data "
                    f"frame body ({end - start} bytes left)"
                )
            trace = None
            if ext_len:
                trace = _loads_wire(
                    raw[start : start + ext_len], "trace extension"
                )
                if not isinstance(trace, list) or len(trace) != 4:
                    raise CodecError(f"malformed trace extension: {trace!r}")
                trace = tuple(trace)
                start += ext_len
            payload_bytes = raw[start:offset]
            payload = interned.get(payload_bytes, _MISSING)
            if payload is _MISSING:
                payload = _decode_payload_bytes(payload_bytes)
                if len(payload_bytes) <= INTERN_MAX_PAYLOAD:
                    if len(interned) >= INTERN_TABLE_SIZE:
                        interned.clear()
                    interned[payload_bytes] = payload
            entries.append((instance, payload, trace))
        return DataFrame.of(link_seq, sender, recipient, tuple(entries))


def decode_frame_bytes(data: bytes) -> list[Frame]:
    """Strict one-shot decode: parse ``data`` as whole frames.

    Raises :class:`CodecError` on any malformation, including trailing
    partial frames — the property tests use this to assert truncation is
    always detected.
    """
    reader = FrameReader()
    reader.feed(data)
    frames = list(reader.frames())
    reader.finish()
    return frames


# ---------------------------------------------------------------------- #
# Canonical state encoding (SMR snapshots and replica digests)
# ---------------------------------------------------------------------- #


def encode_canonical(obj: Any) -> bytes:
    """Canonical bytes for replicated state: snapshots and digests.

    Canonical encoding must yield byte-identical output for semantically
    equal values no matter how they were constructed: replicas compare
    state machines byte-for-byte, and a snapshot restored on another
    node must compare equal to the machine that wrote it.  JSON with
    sorted keys, compact separators, and ASCII escapes is
    order-independent and available everywhere.
    """
    return json.dumps(
        obj, separators=(",", ":"), sort_keys=True, ensure_ascii=True
    ).encode("ascii")


def decode_canonical(blob: bytes) -> Any:
    """Inverse of :func:`encode_canonical`.

    Raises :class:`CodecError` on malformed input — a torn snapshot
    must fail restore loudly, never restore partially.
    """
    try:
        return json.loads(blob.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CodecError(f"malformed canonical state blob: {exc}") from exc
