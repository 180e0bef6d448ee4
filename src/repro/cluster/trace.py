"""JSONL trace sink for cluster runs.

The simulator's trace schema (:mod:`repro.obs.sinks`) is indexed by the
kernel's global step counter, which has no cluster analogue — a live run
is ordered by wall clock, and transport events (reconnects, retransmits)
have no simulator counterpart.  :class:`ClusterTraceWriter` therefore
writes its own JSONL schema, but *reuses the one payload codec* of the
simulator traces and the wire (:mod:`repro.core.messages`), so tooling
that understands protocol messages reads both formats with one decoder.

Each line is one event::

    {"t": "send", "ts": 0.0123, "pid": 2, "peer": 0, "payload": {...}}

``ts`` is seconds since the writer was created (the shard's epoch) on
the running event loop's clock, the cluster's one clock (DESIGN.md §10).
Event types: ``node-start``, ``send``, ``recv``, ``step``, ``decide``,
``exit``, ``crash``, ``reconnect``, ``chaos-drop``, ``chaos-delay``,
``chaos-reset``, ``span``.

Traced runs (a :class:`~repro.obs.spans.SpanTracer` per node) add causal
fields to events: ``trace`` (per-decision trace id), ``span`` (unique
span id), ``hlc`` (``[physical_us, logical]`` hybrid-logical-clock
timestamp), and on receives ``parent``/``sent_hlc`` linking back to the
sending span.  ``ts`` values are *per-shard* (each writer has its own
epoch); cross-shard ordering is exactly what the HLC fields are for —
see :func:`repro.cluster.report.stitch_trace_dir`.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import IO, Any, Optional

from repro.obs.sinks import JsonlReader, decode_payload, encode_payload

#: Spooled events that trigger a :meth:`ClusterTraceWriter.flush`.
SPOOL_LIMIT = 8192


class ClusterTraceWriter:
    """Spools cluster events and writes them as JSON Lines.

    Writes the file at ``path``, which it opens and closes itself.
    Thread-safe: asyncio callbacks and the driver share one writer.
    Built inside the running event loop, whose clock stamps ``ts``.

    The hot path (`record` / `record_fields`) only timestamps the event
    and appends the raw field dict to an in-memory spool; JSON encoding,
    payload encoding, and file I/O all happen in :meth:`flush` — which
    runs when the spool reaches :data:`SPOOL_LIMIT` events and at
    :meth:`close`.  This keeps the per-event tax on a live, traced
    cluster to an append instead of a serialisation, at the cost that a
    process killed mid-run loses at most :data:`SPOOL_LIMIT` spooled
    events (the JSONL readers tolerate the torn tail either way).

    Callers must not mutate a fields dict after handing it over; event
    payloads are the protocols' immutable messages, encoded at flush.
    """

    def __init__(self, path: str, extra: Optional[dict] = None) -> None:
        # Lazy open: nothing touches the file until the first flush, so
        # the open's syscalls stay out of the traced run's measured
        # window.
        self._handle: Optional[IO[str]] = None
        self._path = path
        self._extra = dict(extra) if extra else None
        self._clock = asyncio.get_running_loop().time
        self._epoch = self._clock()
        self._lock = threading.Lock()
        self._closed = False
        self._spool: list = []

    def record(self, event: str, **fields: Any) -> None:
        """Spool one event line (no-op after close)."""
        self.record_fields(event, fields)

    def record_fields(self, event: str, fields: dict) -> None:
        """Spool one event taking ownership of an already-built dict.

        The allocation-lean variant of :meth:`record` for hot call
        sites: no kwargs repacking, one timestamp, one append.
        """
        if self._closed:
            return
        self._spool.append((self._clock(), event, fields))
        if len(self._spool) >= SPOOL_LIMIT:
            self.flush()

    def _render(self, spooled: tuple) -> str:
        ts, event, fields = spooled
        record: dict = {"t": event, "ts": round(ts - self._epoch, 6)}
        payload = fields.pop("payload", None)
        record.update(fields)
        if payload is not None:
            record["payload"] = encode_payload(payload)
        if self._extra:
            record.update(self._extra)
        return json.dumps(record, separators=(",", ":")) + "\n"

    def flush(self) -> None:
        """Serialise and write every spooled event."""
        with self._lock:
            drained = tuple(self._spool)
            self._spool = []
            if not drained:
                return
            if self._handle is None:
                self._handle = open(self._path, "w", encoding="utf-8")
            self._handle.write("".join(map(self._render, drained)))
            self._handle.flush()

    def close(self) -> None:
        """Flush and close the file (idempotent).  The writer always
        leaves a file behind, even when nothing was ever spooled —
        readers expect every node's shard to exist."""
        self.flush()
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._handle is None:
                self._handle = open(self._path, "w", encoding="utf-8")
            self._handle.close()


class ClusterTraceReader(JsonlReader):
    """One-pass iterator over a cluster trace shard, truncation-tolerant.

    :class:`repro.obs.sinks.JsonlReader`'s loop over the cluster schema:
    a node killed mid-write leaves a partial final line, which ends
    iteration cleanly and sets :attr:`truncated` instead of raising;
    malformed lines *before* the end of the file still raise — that is
    corruption, not a torn tail.  Records stay plain dicts, payloads
    decoded back to protocol messages unless ``decode_payloads`` is off.
    """

    def __init__(self, path: str, decode_payloads: bool = True) -> None:
        self._decode_payloads = decode_payloads
        super().__init__(path)

    def _parse(self, record: dict) -> dict:
        if self._decode_payloads and "payload" in record:
            record["payload"] = decode_payload(record["payload"])
        return record

