"""Protocol message types for the paper's three protocols.

All payloads are small frozen dataclasses; they are *content*, distinct
from the transport :class:`~repro.net.message.Envelope` that carries them
(whose ``sender`` field is authenticated by the message system).

The special phase value :data:`STAR` implements the exit device of
Section 3.3: a decided process broadcasts messages whose phase field is
``*``; receivers treat such a message as matching *every* phase and
re-send it to themselves after consuming it, so it keeps counting in all
future phases.

Every payload class is registered with :func:`payload`; its wire and
trace record, encoded and type-checked by :func:`encode_payload` /
:func:`decode_payload`, derives from its own dataclass fields.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Callable, Optional, Union, get_type_hints

from repro.errors import ConfigurationError


class _PhaseStar:
    """Singleton sentinel for the wildcard phase ``*`` of Section 3.3."""

    _instance: "_PhaseStar | None" = None

    def __new__(cls) -> "_PhaseStar":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "*"

    def __reduce__(self):
        # Preserve singleton identity across copy/deepcopy/pickle, which the
        # bounded model checker relies on when cloning configurations.
        return (_PhaseStar, ())


STAR = _PhaseStar()

#: A phase field: a concrete phase number or the wildcard ``*``.
Phase = Union[int, _PhaseStar]

#: Registered payload classes by wire name (the class name).
PAYLOAD_TYPES: dict[str, type] = {}
#: Per registered class: its record's keys, and one ``(field, encode,
#: decode)`` per field in dataclass order.
_SCHEMAS: dict[type, tuple[frozenset, tuple[tuple[str, Callable, Callable], ...]]] = {}
_SCALARS = (type(None), bool, int, float, str)


def _expect(admitted: bool, value: Any, expected: str) -> Any:
    if not admitted:
        raise ConfigurationError(f"expected {expected}, got {value!r}")
    return value


def _same(value: Any) -> Any:
    return value


def _decode_int(value: Any) -> int:
    return _expect(type(value) is int, value, "an int")  # JSON true is not


def _decode_phase(value: Any) -> Phase:
    return STAR if value == "*" else _expect(type(value) is int, value, "a phase")


def _decode_pids(value: Any) -> frozenset[int]:
    ints = type(value) is list and all(type(item) is int for item in value)
    return frozenset(_expect(ints, value, "a list of ints"))


def _encode_any(value: Any) -> Any:
    if type(value) is tuple:
        return [_encode_any(item) for item in value]
    if type(value) is frozenset:
        return {"frozenset": [_encode_any(item) for item in sorted(value)]}
    return _expect(type(value) in _SCALARS, value, "a scalar, tuple or frozenset")


def _decode_any(value: Any) -> Any:
    if type(value) is list:
        return tuple(map(_decode_any, value))
    if type(value) is dict and value.keys() == {"frozenset"}:
        items = value["frozenset"]
        return frozenset(map(_decode_any, _expect(type(items) is list, items, "list")))
    return _expect(type(value) in _SCALARS, value, "a JSON scalar or list")


#: Field annotation → its (encode, decode) pair.
_FIELD_CODECS: dict[Any, tuple[Callable, Callable]] = {
    int: (_same, _decode_int),
    str: (_same, lambda value: _expect(type(value) is str, value, "a str")),
    Optional[int]: (_same, lambda value: None if value is None else _decode_int(value)),
    Phase: (lambda phase: "*" if phase is STAR else phase, _decode_phase),
    frozenset[int]: (sorted, _decode_pids),
    Any: (_encode_any, _decode_any),
}


def payload(cls: type) -> type:
    """Class decorator registering a dataclass as a wire/trace payload;
    a second class of one name, or a field annotation with no codec in
    :data:`_FIELD_CODECS`, raises :class:`ConfigurationError`."""
    name, hints = cls.__name__, get_type_hints(cls)
    if name in PAYLOAD_TYPES:
        raise ConfigurationError(f"payload kind {name!r} is already registered")
    unknown = [f.name for f in fields(cls) if hints[f.name] not in _FIELD_CODECS]
    if unknown:
        raise ConfigurationError(f"{name}: no payload codec for fields {unknown}")
    codecs = tuple((f.name, *_FIELD_CODECS[hints[f.name]]) for f in fields(cls))
    _SCHEMAS[cls] = (frozenset({"kind", *(f.name for f in fields(cls))}), codecs)
    PAYLOAD_TYPES[name] = cls
    return cls


def encode_payload(message: Any) -> dict:
    """A payload as a JSON-safe record: ``{"kind": "scalar", "value": ...}``
    for a JSON scalar, else ``{"kind": <class name>, <field>: ...}`` in
    field order.  An unregistered type raises :class:`ConfigurationError`."""
    if type(message) in _SCALARS:
        return {"kind": "scalar", "value": message}
    schema = _SCHEMAS.get(type(message))
    if schema is None:
        raise ConfigurationError(f"unregistered payload type {type(message).__name__}")
    record = {"kind": type(message).__name__}
    for name, encode, _decode in schema[1]:
        record[name] = encode(getattr(message, name))
    return record


def decode_payload(record: Any) -> Any:
    """Invert :func:`encode_payload`.  An unknown kind, a missing or extra
    field, or a field its annotation does not admit raises
    :class:`ConfigurationError`."""
    kind = record.get("kind") if type(record) is dict else None
    if kind == "scalar" and record.keys() == {"kind", "value"}:
        return _expect(type(record["value"]) in _SCALARS, record["value"], "a scalar")
    cls = PAYLOAD_TYPES.get(kind) if type(kind) is str else None
    keys, schema = _SCHEMAS.get(cls, (None, ()))
    if cls is None or record.keys() != keys:
        raise ConfigurationError(f"malformed payload record: {record!r}")
    return cls(**{name: decode(record[name]) for name, _encode, decode in schema})


@payload
@dataclass(frozen=True, slots=True)
class FailStopMessage:
    """The ``(phaseno, value, cardinality)`` message of Figure 1.

    ``cardinality`` is the size of the sender's message set for ``value``
    at the end of its previous phase; a message whose cardinality exceeds
    n/2 is a *witness* for its value.
    """

    phaseno: int
    value: int
    cardinality: int


@payload
@dataclass(frozen=True, slots=True)
class InitialMessage:
    """The ``(initial, p, value, phaseno)`` message of Figure 2.

    ``origin`` is the process claiming to speak.  Correct receivers only
    honour an initial message whose transport sender equals ``origin``
    (Section 3.1's sender authentication); otherwise one malicious process
    could impersonate the whole system.
    """

    origin: int
    value: int
    phaseno: Phase


@payload
@dataclass(frozen=True, slots=True)
class EchoMessage:
    """The ``(echo, q, value, phaseno)`` message of Figure 2.

    An echo claims "process ``origin`` said ``value`` in phase
    ``phaseno``".  Unlike initial messages the origin is *not* required to
    match the transport sender — relaying other processes' claims is the
    whole point — which is why acceptance requires more than (n+k)/2
    matching echoes from distinct senders.
    """

    origin: int
    value: int
    phaseno: Phase


@payload
@dataclass(frozen=True, slots=True)
class SimpleMessage:
    """The ``(phaseno, value)`` message of the Section 4.1 variant."""

    phaseno: int
    value: int
