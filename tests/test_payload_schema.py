"""The payload schema: every registered message family round-trips, and
decode rejects every ill-typed field before a core can see it."""

import dataclasses
import json
import typing
from typing import Any, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.benor import BenOrProposal, BenOrReport
from repro.baselines.initially_dead import RowMessage, StageOneMessage, TickMessage
from repro.broadcast.rbc import RbcEcho, RbcReady, RbcSend
from repro.cluster.codec import (
    CodecError,
    DataFrame,
    decode_frame_bytes,
    encode_frame,
)
from repro.cluster.smr import SMR_OPS, Command
from repro.core.messages import (
    PAYLOAD_TYPES,
    STAR,
    EchoMessage,
    FailStopMessage,
    InitialMessage,
    Phase,
    SimpleMessage,
    decode_payload,
    encode_payload,
    payload,
)
from repro.errors import ConfigurationError
from repro.net.message import Envelope

#: One well-typed instance of every registered class.
EXAMPLES = [
    FailStopMessage(phaseno=3, value=1, cardinality=4),
    InitialMessage(origin=2, value=0, phaseno=STAR),
    EchoMessage(origin=1, value=1, phaseno=5),
    SimpleMessage(phaseno=2, value=0),
    BenOrReport(round=1, value=0),
    BenOrProposal(round=2, value=None),
    StageOneMessage(origin=0, value=1),
    RowMessage(origin=1, heard_from=frozenset({0, 2}), value=1),
    TickMessage(origin=3),
    RbcSend((1, False, frozenset({0, 3})), (0, 1, 2)),
    RbcEcho("v"),
    RbcReady(1, None),
    Command("client-1", 7, "set", key="a", value=42),
]

_ANY = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda inner: st.lists(inner, max_size=3).map(tuple)
    | st.frozensets(st.integers(), max_size=4),
    max_leaves=8,
)

#: Field annotation → a strategy for its well-typed values.
STRATEGIES = {
    int: st.integers(),
    str: st.text(),
    Optional[int]: st.none() | st.integers(),
    Phase: st.integers() | st.just(STAR),
    frozenset[int]: st.frozensets(st.integers()),
    Any: _ANY,
}
#: Fields whose constructor admits less than their annotation does.
OVERRIDES = {
    (Command, "op"): st.sampled_from(SMR_OPS),
    (Command, "request_id"): st.integers(min_value=0),
}


def _schema(cls):
    hints = typing.get_type_hints(cls)
    return [(field.name, hints[field.name]) for field in dataclasses.fields(cls)]


def _instances(cls):
    return st.builds(
        cls,
        **{
            name: OVERRIDES.get((cls, name), STRATEGIES[hint])
            for name, hint in _schema(cls)
        },
    )


def _wire(message) -> bytes:
    """The JSON form the wire and the traces carry."""
    return json.dumps(encode_payload(message), sort_keys=True).encode()


def test_every_message_family_is_registered():
    assert set(PAYLOAD_TYPES) == {type(example).__name__ for example in EXAMPLES}
    assert all(PAYLOAD_TYPES[type(e).__name__] is type(e) for e in EXAMPLES)


@pytest.mark.parametrize(
    "cls", [type(e) for e in EXAMPLES], ids=lambda cls: cls.__name__
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_round_trip(cls, data):
    """decode(json(encode(m))) is m, with every field's type kept
    (compared on the JSON form, where True and 1 differ)."""
    message = data.draw(_instances(cls))
    decoded = decode_payload(json.loads(_wire(message)))
    assert type(decoded) is cls
    assert decoded == message
    assert _wire(decoded) == _wire(message)


def _admits(cls, name, hint, value) -> bool:
    """Whether ``value`` is a well-typed JSON form of field ``name``."""
    if (cls, name) == (Command, "op"):
        return value in SMR_OPS
    if hint is int:
        return type(value) is int
    if hint is str:
        return type(value) is str
    if hint == Optional[int]:
        return value is None or type(value) is int
    if hint == Phase:
        return type(value) is int or value == "*"
    if hint == frozenset[int]:
        return type(value) is list and all(type(v) is int for v in value)
    assert hint is Any
    return type(value) is not dict


WRONG_VALUES = [None, "x", [1], {"a": 1}, 1.5, True]

ILL_TYPED = [
    pytest.param(
        example, name, wrong, id=f"{type(example).__name__}.{name}={wrong!r}"
    )
    for example in EXAMPLES
    for name, hint in _schema(type(example))
    for wrong in WRONG_VALUES
    if not _admits(type(example), name, hint, wrong)
]


def _frame_bytes(example, record) -> bytes:
    frame = DataFrame(link_seq=0, envelope=Envelope(0, 1, example, seq=1))
    payload_bytes = json.dumps(record, sort_keys=True).encode()
    return encode_frame(frame, [payload_bytes])


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda e: type(e).__name__)
def test_well_typed_record_decodes_off_the_wire(example):
    (frame,) = decode_frame_bytes(_frame_bytes(example, encode_payload(example)))
    assert frame.entries[0][1] == example


@pytest.mark.parametrize("example, name, wrong", ILL_TYPED)
def test_ill_typed_field_is_a_codec_error(example, name, wrong):
    record = encode_payload(example)
    record[name] = wrong
    with pytest.raises(CodecError, match="malformed payload record"):
        decode_frame_bytes(_frame_bytes(example, record))


@pytest.mark.parametrize(
    "record",
    [
        {"kind": "EchoMessage", "origin": 1, "value": 1},
        {"kind": "EchoMessage", "origin": 1, "value": 1, "phaseno": 0, "x": 0},
        {"kind": "Mystery", "value": 1},
        {"kind": ["EchoMessage"]},
        {"kind": "scalar", "value": [1]},
        {"kind": "scalar"},
        {"value": 1},
        [1, 2],
        {"kind": "RbcEcho", "value": {"frozenset": "ab"}, "tag": None},
    ],
    ids=repr,
)
def test_malformed_records_are_rejected(record):
    with pytest.raises(ConfigurationError):
        decode_payload(record)


def test_a_second_class_of_one_name_is_refused():
    with pytest.raises(ConfigurationError, match="already registered"):

        @payload
        @dataclasses.dataclass(frozen=True)
        class EchoMessage:  # noqa: F811  (the clash is the point)
            origin: int

    assert PAYLOAD_TYPES["EchoMessage"].__module__ == "repro.core.messages"


def test_an_unsupported_annotation_is_refused():
    with pytest.raises(ConfigurationError, match="no payload codec"):

        @payload
        @dataclasses.dataclass(frozen=True)
        class Ratio:
            value: float

    assert "Ratio" not in PAYLOAD_TYPES


def test_unencodable_any_field_raises_at_encode():
    with pytest.raises(ConfigurationError, match="expected a scalar, tuple or frozenset"):
        encode_payload(RbcEcho(["x"]))
