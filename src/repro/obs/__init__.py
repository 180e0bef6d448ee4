"""repro.obs — observability for the simulation stack.

Three concerns, one subsystem:

* **Metrics** (:mod:`repro.obs.metrics`) — counters, gauges, and
  fixed-bucket histograms collected per run into a
  :class:`MetricsRegistry` and frozen into mergeable
  :class:`MetricsSnapshot` values (``RunResult.metrics``).
* **Structured tracing** (:mod:`repro.obs.sinks`) — streaming event
  sinks (in-memory, JSONL) replacing the monolithic trace
  list as the kernel's recording backend.
* **Causal tracing** (:mod:`repro.obs.spans`) — hybrid logical clocks
  and per-decision trace/span ids for the cluster runtime: spans are
  written through the cluster's JSONL trace writers, and HLC order makes
  per-node shards stitchable into one cluster-wide timeline.

Off is ``None``: the kernel holds ``None`` instead of a registry and
instead of a sink, so the per-step cost of the disabled path is a
handful of local flag checks.  A snapshot is a pure function of the run
(no wall-clock section), so snapshots of one seed compare equal with
``==``; wall-clock timing of the layers comes from the benchmark
suite's per-layer metrics.
"""

from repro.obs.metrics import (
    DEFAULT_BOUNDS,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
    merge_snapshots,
)
from repro.obs.sinks import (
    InMemorySink,
    JsonlReader,
    JsonlTraceSink,
    TraceSink,
    event_from_dict,
    event_to_dict,
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
    "merge_snapshots",
    "HLC",
    "InMemorySink",
    "JsonlReader",
    "JsonlTraceSink",
    "SpanTracer",
    "TraceSink",
    "event_from_dict",
    "event_to_dict",
    "hlc_key",
    "make_trace_id",
    "read_jsonl",
    "metrics_json_payload",
    "per_phase_series",
    "render_metrics_summary",
    "write_metrics_json",
]
