"""Trace analysis: turning event traces into schedules, audits, and stats.

A trace recorded with ``Simulation(sink=InMemorySink())`` (read it from
``sim.sink.events``) totally orders one execution — a *schedule* in the
paper's sense.  These tools answer the questions one actually asks of a
schedule:

* :func:`validate_trace` — is it legal?  Every delivery must match an
  earlier undelivered send with the same (sender, recipient, payload);
  nothing may be delivered to a crashed/exited process; decide events
  must be unique per process.  This is the executable definition of the
  paper's "legal schedule" (Section 3.1) and doubles as a kernel audit.
* :func:`message_complexity` — messages sent, delivered, and left in
  flight, grouped by payload type; the n² (Figure 1) vs n³ (Figure 2)
  per-phase scaling shows up here.

Every function accepts any *iterable* of events — an in-memory trace
tuple, a list from an :class:`~repro.obs.sinks.InMemorySink`, or the
lazy stream of :func:`repro.obs.sinks.read_jsonl` — and consumes it in
one pass, so arbitrarily large JSONL traces can be analysed without
materialising them.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable

from repro.errors import InvariantViolation
from repro.obs.sinks import payload_type_name
from repro.sim.events import (
    CrashEvent,
    DecideEvent,
    DeliverEvent,
    ExitEvent,
    SendEvent,
    TraceEvent,
)


@dataclass(frozen=True)
class TraceAudit:
    """Result of a trace validation pass."""

    events: int
    sends: int
    deliveries: int
    undelivered: int
    decisions: int


def validate_trace(trace: Iterable[TraceEvent]) -> TraceAudit:
    """Check a trace is a legal schedule; raise on any violation.

    Raises:
        InvariantViolation: a delivery with no matching outstanding send
            (the message system would have had to fabricate a message),
            activity by a crashed/exited process, or a double decision.
    """
    outstanding: Counter = Counter()
    dead: set[int] = set()
    gone: set[int] = set()
    decided: set[int] = set()
    sends = deliveries = decisions = events = 0
    for event in trace:
        events += 1
        if isinstance(event, SendEvent):
            if event.pid in dead:
                raise InvariantViolation(
                    f"step {event.step}: crashed process {event.pid} sent"
                )
            outstanding[(event.pid, event.recipient, event.payload)] += 1
            sends += 1
        elif isinstance(event, DeliverEvent):
            key = (event.sender, event.pid, event.payload)
            if outstanding[key] <= 0:
                raise InvariantViolation(
                    f"step {event.step}: delivery of {event.payload!r} from "
                    f"{event.sender} to {event.pid} without a matching send"
                )
            if event.pid in dead or event.pid in gone:
                raise InvariantViolation(
                    f"step {event.step}: delivery to dead/exited process "
                    f"{event.pid}"
                )
            outstanding[key] -= 1
            deliveries += 1
        elif isinstance(event, DecideEvent):
            if event.pid in decided:
                raise InvariantViolation(
                    f"step {event.step}: process {event.pid} decided twice"
                )
            decided.add(event.pid)
            decisions += 1
        elif isinstance(event, CrashEvent):
            dead.add(event.pid)
        elif isinstance(event, ExitEvent):
            gone.add(event.pid)
    return TraceAudit(
        events=events,
        sends=sends,
        deliveries=deliveries,
        undelivered=sum(outstanding.values()),
        decisions=decisions,
    )


def message_complexity(trace: Iterable[TraceEvent]) -> dict[str, dict[str, int]]:
    """Sent/delivered/in-flight counts per payload type name.

    Payloads round-tripped through JSONL as
    :class:`~repro.obs.sinks.OpaquePayload` are grouped under their
    original type name.
    """
    stats: dict[str, dict[str, int]] = defaultdict(
        lambda: {"sent": 0, "delivered": 0}
    )
    for event in trace:
        if isinstance(event, SendEvent):
            stats[payload_type_name(event.payload)]["sent"] += 1
        elif isinstance(event, DeliverEvent):
            stats[payload_type_name(event.payload)]["delivered"] += 1
    for counts in stats.values():
        counts["in_flight"] = counts["sent"] - counts["delivered"]
    return dict(stats)

