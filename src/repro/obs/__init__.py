"""repro.obs — observability for the simulation stack.

Three concerns, one subsystem:

* **Metrics** (:mod:`repro.obs.metrics`) — counters, gauges, and
  fixed-bucket histograms collected per run into a
  :class:`MetricsRegistry` and frozen into mergeable
  :class:`MetricsSnapshot` values (``RunResult.metrics``).
* **Structured tracing** (:mod:`repro.obs.sinks`) — streaming event
  sinks (in-memory, JSONL) replacing the monolithic trace
  list as the kernel's recording backend.
* **Profiling** (``MetricsRegistry.time_add`` / ``timer_cell``) —
  wall-clock spans the kernel times inline around its hot-path stages,
  reported in the snapshot's ``timers`` section and stripped by
  ``MetricsSnapshot.stable()`` for determinism-sensitive comparisons.
* **Causal tracing** (:mod:`repro.obs.spans`) — hybrid logical clocks
  and per-decision trace/span ids for the cluster runtime: spans are
  written through the cluster's JSONL trace writers, and HLC order makes
  per-node shards stitchable into one cluster-wide timeline.

Everything is zero-cost when disabled: the kernel holds ``None`` instead
of a registry and an inactive :class:`NullSink`, so the per-step cost of
the disabled path is a handful of ``is not None`` / ``active`` checks.
"""

from repro.obs.metrics import (
    DEFAULT_BOUNDS,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
    TimerSnapshot,
    merge_snapshots,
)
from repro.obs.sinks import (
    NULL_SINK,
    CountingSink,
    InMemorySink,
    JsonlReader,
    JsonlTraceSink,
    NullSink,
    OpaquePayload,
    TraceSink,
    event_from_dict,
    event_to_dict,
    payload_type_name,
    read_jsonl,
)
from repro.obs.spans import HLC, SpanTracer, hlc_key, make_trace_id
from repro.obs.report import (
    metrics_json_payload,
    per_phase_series,
    render_metrics_summary,
    write_metrics_json,
)

__all__ = [
    "DEFAULT_BOUNDS",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "MetricsSnapshot",
    "TimerSnapshot",
    "merge_snapshots",
    "HLC",
    "NULL_SINK",
    "CountingSink",
    "InMemorySink",
    "JsonlReader",
    "JsonlTraceSink",
    "NullSink",
    "OpaquePayload",
    "SpanTracer",
    "TraceSink",
    "event_from_dict",
    "event_to_dict",
    "hlc_key",
    "make_trace_id",
    "payload_type_name",
    "read_jsonl",
    "metrics_json_payload",
    "per_phase_series",
    "render_metrics_summary",
    "write_metrics_json",
]
