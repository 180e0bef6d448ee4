"""Cross-node causal tracing: hybrid logical clocks and span emission.

The cluster runtime's per-node JSONL shards
(:class:`~repro.cluster.trace.ClusterTraceWriter`) are each stamped with
seconds since *that writer's* epoch, so timestamps from different shards
are not directly comparable — and on a genuinely distributed deployment
physical clocks would disagree outright.  A **hybrid logical clock**
(HLC, Kulkarni et al.) fixes both problems with one timestamp: a
``(physical, logical)`` pair that tracks the physical clock when clocks
are well behaved and falls back to Lamport-style logical increments when
they are not.  A cluster mesh gives every HLC its event loop's clock.

The ordering guarantee the run-report stitcher relies on:

* **Causality.**  If event *a* happens-before event *b* (same node, or
  *a* is the send whose frame *b* receives), then ``hlc(a) < hlc(b)``
  under lexicographic ``(physical, logical)`` comparison.  Merging the
  sender's timestamp at receipt is what carries the order across nodes.
* **Clock proximity.**  The physical component never runs ahead of
  the fastest physical clock that produced it, so sorting a stitched
  timeline by HLC is sorting by "clock time, corrected for causality".

A :class:`SpanTracer` owns one HLC per traced entity (node, chaos proxy)
and writes ``span`` events — and causal fields on the existing
send/recv/decide events — through the node's trace writer.  Every event
carries:

* ``trace``: the per-decision trace id (one consensus instance = one
  decision = one trace, prefixed with a run id so shards from different
  rounds never collide),
* ``span``: a cluster-unique span id (``"<pid>:<counter>"``),
* ``hlc``: the ``[physical_us, logical]`` timestamp.

Outgoing wire frames are stamped with the same triple (see the optional
trace extension in :mod:`repro.cluster.codec`), which is what lets the
receiver's clock merge and the stitcher's parent/child edges work.

Everything here follows the observability layer's zero-cost discipline:
untraced runs hold ``None`` instead of a tracer, and every
instrumentation site guards with a single ``is not None`` check — no
clock reads, no id formatting, no allocation on the disabled path.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional

__all__ = [
    "HLC",
    "SpanTracer",
    "hlc_key",
    "make_trace_id",
]


class HLC:
    """One hybrid logical clock: ``(physical_us, logical)`` timestamps.

    ``physical_us`` is microseconds of ``clock`` (``time.time`` unless
    given another), ``logical`` the tie-breaking counter that absorbs
    same-microsecond events and clock skew.  Instances are not
    thread-safe; each traced entity owns its own clock, as HLC intends.

    Args:
        clock: seconds-valued time source (injectable for tests).
    """

    __slots__ = ("physical", "logical", "_clock")

    def __init__(self, clock: Callable[[], float] = time.time) -> None:
        self.physical = 0
        self.logical = 0
        self._clock = clock

    def tick(self) -> tuple[int, int]:
        """Advance for a local or send event; returns the new timestamp."""
        now = int(self._clock() * 1_000_000)
        if now > self.physical:
            self.physical = now
            self.logical = 0
        else:
            self.logical += 1
        return (self.physical, self.logical)

    def merge(self, remote_physical: int, remote_logical: int) -> tuple[int, int]:
        """Advance for a receive event carrying a remote timestamp.

        The standard HLC receive rule: the new timestamp is strictly
        greater than both the local clock's last timestamp and the
        remote one, while the physical component stays pinned to the
        largest physical clock seen.
        """
        now = int(self._clock() * 1_000_000)
        if now > self.physical and now > remote_physical:
            self.physical = now
            self.logical = 0
        elif self.physical == remote_physical:
            self.logical = max(self.logical, remote_logical) + 1
        elif self.physical > remote_physical:
            self.logical += 1
        else:
            self.physical = remote_physical
            self.logical = remote_logical + 1
        return (self.physical, self.logical)


def hlc_key(event: dict) -> tuple:
    """Total-order sort key for one stitched trace event.

    Events carrying an ``hlc`` field order by ``(physical, logical,
    node)``; events without one (pre-tracing schemas, foreign lines)
    sort first within physical time 0, keeping mixed files stable.
    """
    hlc = event.get("hlc")
    if isinstance(hlc, (list, tuple)) and len(hlc) == 2:
        return (hlc[0], hlc[1], event.get("node", -1))
    return (0, -1, event.get("node", -1))


def make_trace_id(run_id: str, instance: int) -> str:
    """The per-decision trace id: one consensus instance, one trace."""
    return f"{run_id}-i{instance}"


class SpanTracer:
    """Causal-trace recorder for one node (or chaos proxy).

    Args:
        writer: the entity's :class:`~repro.cluster.trace.ClusterTraceWriter`
            (anything with a ``record_fields(event, fields)`` method).
        pid: the entity's identity, used in span ids.
        run_id: prefix for trace ids, shared by every tracer of one
            cluster run.
        clock: seconds-valued physical source for the HLC (a cluster
            mesh passes its event loop's ``time``).
    """

    __slots__ = (
        "writer",
        "pid",
        "run_id",
        "hlc",
        "_span_counter",
        "_trace_ids",
    )

    def __init__(
        self,
        writer: Any,
        pid: int,
        run_id: str = "run",
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.writer = writer
        self.pid = pid
        self.run_id = run_id
        self.hlc = HLC(clock)
        self._span_counter = 0
        self._trace_ids: dict[int, str] = {}

    def trace_id(self, instance: int) -> str:
        """The trace id of one consensus instance's decision (cached —
        every traced send formats it otherwise)."""
        tid = self._trace_ids.get(instance)
        if tid is None:
            tid = self._trace_ids[instance] = make_trace_id(
                self.run_id, instance
            )
        return tid

    def next_span_id(self) -> str:
        """A cluster-unique span id (``"<pid>:<counter>"``)."""
        self._span_counter += 1
        return f"{self.pid}:{self._span_counter}"

    def span(self, name: str, instance: int, **fields: Any) -> str:
        """Emit one ``span`` event; returns the new span id.

        The event is written as ``{"t": "span", "name": ..., "trace":
        ..., "span": ..., "hlc": [...], ...fields}`` through the trace
        writer (which adds ``ts`` and the node label).  The kwargs dict
        is extended in place and handed straight to ``record_fields`` —
        one allocation per span, this is a hot-path call.
        """
        span_id = self.next_span_id()
        physical, logical = self.hlc.tick()
        fields["name"] = name
        fields["pid"] = self.pid
        fields["instance"] = instance
        fields["trace"] = self.trace_id(instance)
        fields["span"] = span_id
        fields["hlc"] = [physical, logical]
        self.writer.record_fields("span", fields)
        return span_id

    def stamp(self, instance: int) -> tuple[str, str, int, int]:
        """The wire trace extension for one outgoing envelope.

        Returns ``(trace_id, span_id, physical_us, logical)`` — exactly
        the tuple a :class:`~repro.cluster.codec.DataFrame` entry
        carries — after advancing this tracer's clock for the send event.
        """
        span_id = self.next_span_id()
        physical, logical = self.hlc.tick()
        return (self.trace_id(instance), span_id, physical, logical)

    def extend_causal(
        self, fields: dict, instance: int, parent: Optional[tuple] = None
    ) -> None:
        """Add the causal keys to an event dict the caller already built.

        With ``parent`` (a received frame's trace extension) the local
        clock merges the remote timestamp first — this is the receive
        rule that makes cross-node ordering hold — and the fields carry
        the parent span and the sender's timestamp for one-way latency
        estimation.  Without it, the clock just ticks.
        """
        span_id = self.next_span_id()
        if parent is not None:
            physical, logical = self.hlc.merge(parent[2], parent[3])
            fields["trace"] = parent[0]
            fields["span"] = span_id
            fields["parent"] = parent[1]
            fields["sent_hlc"] = [parent[2], parent[3]]
        else:
            physical, logical = self.hlc.tick()
            fields["trace"] = self.trace_id(instance)
            fields["span"] = span_id
        fields["hlc"] = [physical, logical]
