"""Streaming structured-event sinks for simulation traces.

The original kernel recorded traces by appending every event to one
in-memory list, which is prohibitive for echo-heavy runs and useless at
parallel fan-out scale.  A *sink* decouples recording from storage:

* :class:`InMemorySink` — ``Simulation(sink=InMemorySink())`` collects
  the events in a list, read back as ``sim.sink.events``.
* :class:`JsonlTraceSink` — streams events as JSON Lines to a file, one
  object per event, so traces of arbitrarily long runs use O(1) memory
  and can be post-processed by anything that reads JSONL.

Recording is off when the kernel's sink is ``None`` (the default): its
single ``if record:`` guard then skips event construction entirely.

The JSONL codec round-trips the protocol message payloads of
:mod:`repro.core.messages` exactly, so a written trace can be read back
with :func:`read_jsonl` and re-validated with
:func:`repro.sim.trace_tools.validate_trace`.  Unknown payload types
degrade to :class:`OpaquePayload` (type name + ``repr``), which still
satisfies the validator's send/delivery matching because equal payloads
encode to equal opaque forms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Any, Iterator, Optional, Union

from repro.core.messages import (
    STAR,
    EchoMessage,
    FailStopMessage,
    InitialMessage,
    SimpleMessage,
)
from repro.errors import ConfigurationError
from repro.sim.events import (
    CrashEvent,
    DecideEvent,
    DeliverEvent,
    ExitEvent,
    PhiEvent,
    SendEvent,
    StartEvent,
    TraceEvent,
)


class TraceSink:
    """Base class for event sinks (``Simulation(sink=None)`` records
    nothing, so no sink object exists on the disabled path)."""

    def emit(self, event: TraceEvent) -> None:
        """Record one event."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release any resources (idempotent)."""

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class InMemorySink(TraceSink):
    """Collects events in a list (``sink.events``)."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)


class JsonlTraceSink(TraceSink):
    """Streams events to a JSON Lines file (one JSON object per event).

    Accepts a path (opened/closed by the sink) or an already-open text
    handle (flushed but not closed).  Extra constant fields — e.g.
    ``{"seed": 7}`` — can be stamped onto every line to make multi-run
    files self-describing.
    """

    def __init__(
        self,
        target: Union[str, IO[str]],
        extra: Optional[dict] = None,
    ) -> None:
        if isinstance(target, str):
            self._handle: IO[str] = open(target, "w", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = target
            self._owns_handle = False
        self._extra = dict(extra) if extra else None
        self._closed = False

    def emit(self, event: TraceEvent) -> None:
        record = event_to_dict(event)
        if self._extra:
            record.update(self._extra)
        self._handle.write(json.dumps(record, separators=(",", ":")) + "\n")

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()


# ---------------------------------------------------------------------- #
# The JSONL codec
# ---------------------------------------------------------------------- #


@dataclass(frozen=True, slots=True)
class OpaquePayload:
    """Decoded stand-in for a payload type the codec does not know.

    Equality is by (type name, repr), so send/delivery matching in
    ``validate_trace`` still works on round-tripped traces; statistics
    keyed by payload type see ``type_name`` via ``payload_type_name``.
    """

    type_name: str
    text: str


def payload_type_name(payload: Any) -> str:
    """The payload's protocol-level type name (opaque-aware)."""
    if isinstance(payload, OpaquePayload):
        return payload.type_name
    return type(payload).__name__


_EVENT_TYPES: dict[str, type[TraceEvent]] = {
    "start": StartEvent,
    "deliver": DeliverEvent,
    "phi": PhiEvent,
    "send": SendEvent,
    "crash": CrashEvent,
    "decide": DecideEvent,
    "exit": ExitEvent,
}
_EVENT_NAMES = {cls: name for name, cls in _EVENT_TYPES.items()}

_MESSAGE_TYPES = {
    "FailStopMessage": FailStopMessage,
    "InitialMessage": InitialMessage,
    "EchoMessage": EchoMessage,
    "SimpleMessage": SimpleMessage,
}


def _encode_phase(phase: Any) -> Any:
    return "*" if phase is STAR else phase


def _decode_phase(phase: Any) -> Any:
    return STAR if phase == "*" else phase


def encode_payload(payload: Any) -> Any:
    """Encode a protocol payload as a JSON-safe value."""
    if payload is None or isinstance(payload, (bool, int, float, str)):
        return {"kind": "scalar", "value": payload}
    kind = type(payload).__name__
    if isinstance(payload, FailStopMessage):
        return {
            "kind": kind,
            "phaseno": payload.phaseno,
            "value": payload.value,
            "cardinality": payload.cardinality,
        }
    if isinstance(payload, (InitialMessage, EchoMessage)):
        return {
            "kind": kind,
            "origin": payload.origin,
            "value": payload.value,
            "phaseno": _encode_phase(payload.phaseno),
        }
    if isinstance(payload, SimpleMessage):
        return {"kind": kind, "phaseno": payload.phaseno, "value": payload.value}
    if isinstance(payload, OpaquePayload):
        return {
            "kind": "opaque",
            "type": payload.type_name,
            "repr": payload.text,
        }
    return {"kind": "opaque", "type": kind, "repr": repr(payload)}


def decode_payload(encoded: Any) -> Any:
    """Invert :func:`encode_payload`."""
    if not isinstance(encoded, dict) or "kind" not in encoded:
        raise ConfigurationError(f"malformed payload record: {encoded!r}")
    kind = encoded["kind"]
    if kind == "scalar":
        return encoded["value"]
    if kind == "opaque":
        return OpaquePayload(type_name=encoded["type"], text=encoded["repr"])
    message_type = _MESSAGE_TYPES.get(kind)
    if message_type is None:
        raise ConfigurationError(f"unknown payload kind {kind!r}")
    if message_type is FailStopMessage:
        return FailStopMessage(
            phaseno=encoded["phaseno"],
            value=encoded["value"],
            cardinality=encoded["cardinality"],
        )
    if message_type is SimpleMessage:
        return SimpleMessage(phaseno=encoded["phaseno"], value=encoded["value"])
    return message_type(
        origin=encoded["origin"],
        value=encoded["value"],
        phaseno=_decode_phase(encoded["phaseno"]),
    )


def event_to_dict(event: TraceEvent) -> dict:
    """Encode one trace event as a JSON-safe dict."""
    name = _EVENT_NAMES.get(type(event))
    if name is None:
        raise ConfigurationError(
            f"cannot serialise unknown event type {type(event).__name__}"
        )
    record: dict = {"t": name, "step": event.step, "pid": event.pid}
    if isinstance(event, DeliverEvent):
        record["sender"] = event.sender
        record["payload"] = encode_payload(event.payload)
    elif isinstance(event, SendEvent):
        record["recipient"] = event.recipient
        record["payload"] = encode_payload(event.payload)
    elif isinstance(event, DecideEvent):
        record["value"] = event.value
    return record


def event_from_dict(record: dict) -> TraceEvent:
    """Invert :func:`event_to_dict`."""
    event_type = _EVENT_TYPES.get(record.get("t"))
    if event_type is None:
        raise ConfigurationError(f"unknown event record: {record!r}")
    step, pid = record["step"], record["pid"]
    if event_type is DeliverEvent:
        return DeliverEvent(
            step, pid, record["sender"], decode_payload(record["payload"])
        )
    if event_type is SendEvent:
        return SendEvent(
            step, pid, record["recipient"], decode_payload(record["payload"])
        )
    if event_type is DecideEvent:
        return DecideEvent(step, pid, record["value"])
    return event_type(step, pid)


class JsonlReader:
    """One-pass iterator over a JSONL trace file, truncation-tolerant.

    A crash (or ``kill -9``) mid-write leaves a trace file whose final
    line is a partial JSON object.  Raising on it would make every
    downstream tool useless on exactly the runs most worth debugging, so
    this reader yields the parsed prefix and sets :attr:`truncated`
    instead.  Only the *last* non-blank line gets that treatment — a
    malformed line with valid lines after it is genuine corruption and
    still raises.

    Iterate it like the plain generator it replaces; after exhaustion,
    :attr:`truncated` says whether a trailing partial line was dropped.
    :meth:`_parse` maps one line's JSON object to what iteration yields;
    :class:`repro.cluster.trace.ClusterTraceReader` overrides only that.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        #: True once iteration dropped a trailing truncated line.
        self.truncated = False
        self._events = self._read()

    def __iter__(self) -> "JsonlReader":
        return self

    def __next__(self) -> Any:
        return next(self._events)

    def _parse(self, record: dict) -> Any:
        return event_from_dict(record)

    def _read(self) -> Iterator[Any]:
        with open(self.path, "r", encoding="utf-8") as handle:
            lines = iter(handle)
            for line in lines:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    if any(rest.strip() for rest in lines):
                        raise  # corruption mid-file, not a torn tail
                    self.truncated = True
                    return
                yield self._parse(record)


def read_jsonl(path: str) -> JsonlReader:
    """Lazily parse a JSONL trace file back into events.

    Yields events one by one, so arbitrarily large traces can be fed
    straight into the (iterator-friendly) :mod:`repro.sim.trace_tools`
    functions without materialising a list.  A trailing truncated line
    (crash mid-write) ends iteration cleanly and sets the returned
    reader's ``truncated`` flag rather than raising.
    """
    return JsonlReader(path)
