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

Payloads go through the one payload codec of :mod:`repro.core.messages`,
so a written trace reads back with :func:`read_jsonl` to exactly the
recorded events, of every message family, and re-validates with
:func:`repro.sim.trace_tools.validate_trace`.  An unregistered payload
type raises at encode; there is no opaque fallback.
"""

from __future__ import annotations

import json
from dataclasses import fields
from typing import Any, Iterator, Optional

from repro.core.messages import decode_payload, encode_payload
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

    Writes the file at ``path``, which it opens and closes itself.
    Extra constant fields — e.g. ``{"seed": 7}`` — can be stamped onto
    every line to make multi-run files self-describing.
    """

    def __init__(self, path: str, extra: Optional[dict] = None) -> None:
        self._handle = open(path, "w", encoding="utf-8")
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
        self._handle.close()


# ---------------------------------------------------------------------- #
# The JSONL codec
# ---------------------------------------------------------------------- #


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
#: Each event's record is its name under ``"t"``, then its dataclass
#: fields in order, a payload through the payload codec.
_EVENT_FIELDS = {
    cls: tuple(field.name for field in fields(cls)) for cls in _EVENT_NAMES
}


def event_to_dict(event: TraceEvent) -> dict:
    """Encode one trace event as a JSON-safe dict."""
    name = _EVENT_NAMES.get(type(event))
    if name is None:
        raise ConfigurationError(
            f"cannot serialise unknown event type {type(event).__name__}"
        )
    record: dict = {"t": name}
    for field in _EVENT_FIELDS[type(event)]:
        value = getattr(event, field)
        record[field] = encode_payload(value) if field == "payload" else value
    return record


def event_from_dict(record: dict) -> TraceEvent:
    """Invert :func:`event_to_dict`."""
    event_type = _EVENT_TYPES.get(record.get("t"))
    if event_type is None:
        raise ConfigurationError(f"unknown event record: {record!r}")
    return event_type(
        *(
            decode_payload(record[field]) if field == "payload" else record[field]
            for field in _EVENT_FIELDS[event_type]
        )
    )


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
