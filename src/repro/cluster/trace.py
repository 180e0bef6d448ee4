"""JSONL trace sink for cluster runs.

The simulator's trace schema (:mod:`repro.obs.sinks`) is indexed by the
kernel's global step counter, which has no cluster analogue — a live run
is ordered by wall clock, and transport events (reconnects, retransmits)
have no simulator counterpart.  :class:`ClusterTraceWriter` therefore
writes its own JSONL schema, but *reuses the exact payload codec* of the
simulator traces, so tooling that understands protocol messages reads
both formats with one decoder.

Each line is one event::

    {"t": "send", "ts": 0.0123, "pid": 2, "peer": 0, "payload": {...}}

``ts`` is seconds since the writer was created (the cluster epoch).
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

import json
import threading
from time import monotonic
from typing import IO, Any, Optional, Union

from repro.obs.sinks import JsonlReader, decode_payload, encode_payload


class ClusterTraceWriter:
    """Spools cluster events and writes them as JSON Lines.

    Accepts a path (opened/closed by the writer) or an open text handle
    (flushed but not closed).  Thread-safe: asyncio callbacks and the
    driver share one writer.

    The hot path (`record` / `record_fields`) only timestamps the event
    and appends the raw field dict to an in-memory spool; JSON encoding,
    payload encoding, and file I/O all happen in :meth:`flush` — which
    runs when the spool reaches ``spool_limit`` events and at
    :meth:`close`.  This keeps the per-event tax on a live, traced
    cluster to an append instead of a serialisation, at the cost that a
    process killed mid-run loses at most ``spool_limit`` spooled events
    (the JSONL readers tolerate the torn tail either way).

    Callers must not mutate a fields dict after handing it over; event
    payloads are the protocols' immutable messages, encoded at flush.
    """

    def __init__(
        self,
        target: Union[str, IO[str]],
        extra: Optional[dict] = None,
        spool_limit: int = 8192,
    ) -> None:
        if isinstance(target, str):
            # Lazy open: in spool mode nothing touches the file until
            # the first flush, so the open's syscalls stay out of the
            # traced run's measured window.
            self._handle: Optional[IO[str]] = None
            self._path: Optional[str] = target
            self._owns_handle = True
        else:
            self._handle = target
            self._path = None
            self._owns_handle = False
        self._extra = dict(extra) if extra else None
        self._epoch = monotonic()
        self._lock = threading.Lock()
        self._closed = False
        self._spool: list = []
        self._spool_limit = spool_limit

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
        self._spool.append((monotonic(), event, fields))
        if len(self._spool) >= self._spool_limit:
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
        """Flush and release the handle (idempotent).  A path-backed
        writer always leaves a file behind, even when nothing was ever
        spooled — readers expect every node's shard to exist."""
        self.flush()
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._handle is None and self._path is not None:
                self._handle = open(self._path, "w", encoding="utf-8")
            if self._handle is not None:
                self._handle.flush()
                if self._owns_handle:
                    self._handle.close()

    def __enter__(self) -> "ClusterTraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


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

