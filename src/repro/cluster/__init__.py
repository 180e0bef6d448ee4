"""``repro.cluster`` — an asyncio networked runtime for the paper's protocols.

The discrete-event simulator (:mod:`repro.sim`) and this package are two
*backends over one protocol implementation*: both drive the unchanged
atomic-step state machines of :mod:`repro.core` — the cluster adapts the
receive→compute→send step onto an asyncio event loop and real
length-prefixed TCP connections instead of a scheduler and an in-memory
message buffer.

The paper's message-system model (Section 2.1/3.1) asks for exactly what
a TCP connection mesh provides once a thin reliability layer is added:
messages are delivered reliably but arbitrarily slowly, and correct
processes can verify the identity of the sender of each message.  The
pieces:

* :mod:`repro.cluster.codec` — versioned, length-prefixed wire framing
  with an exact round-trip for every protocol payload.
* :mod:`repro.cluster.transport` — per-peer outbound queues, reconnect
  with capped exponential backoff + jitter, ack-based retransmission
  (reliable delivery over lossy links), and transport-level sender
  authentication via a peer-id handshake.
* :mod:`repro.cluster.node` — the node actor: per-instance
  :class:`~repro.procs.base.Process` cores demultiplexed on the event
  loop, one event-driven wait (``decide_instance()``, ended by a
  decision or a crash), lazy instance instantiation and
  decided-instance GC.
* :mod:`repro.cluster.chaos` — a frame-aware TCP chaos proxy injecting
  delay/drop/partition/reset schedules, the live-network analogue of the
  simulator's adversarial schedulers.
* :mod:`repro.cluster.driver` — turns a spec into a running n-node
  loopback mesh (:class:`~repro.cluster.driver.ClusterMesh`, the one
  bring-up *and* wind-down the SMR layer shares: await decisions →
  verdict → manifest → close), attaches :mod:`repro.obs` metrics and,
  with a trace directory, per-node JSONL shards with
  :class:`~repro.obs.spans.SpanTracer` causal tracing, and checks the
  agreement/validity oracles over the collected decision records.
* :mod:`repro.cluster.report` — stitches a traced run's per-node JSONL
  shards into one HLC-ordered timeline and renders the operational run
  report (latency decomposition, chaos correlation, SMR commit latency,
  SLO gates) behind ``repro-consensus report``.
"""

from repro.cluster.codec import (
    WIRE_ENCODING,
    WIRE_VERSION,
    AckFrame,
    ByeFrame,
    CodecError,
    DataFrame,
    FrameReader,
    HelloFrame,
    decode_frame_bytes,
    encode_frame,
)
from repro.cluster.chaos import ChaosConfig, ChaosProxy
from repro.cluster.driver import (
    ClusterMesh,
    ClusterReport,
    ClusterSpec,
    check_decision_records,
    check_decision_records_by_instance,
    run_cluster,
    run_cluster_sync,
)
from repro.cluster.node import ClusterNode, DecisionRecord
from repro.cluster.report import (
    StitchedTrace,
    analyze_run,
    check_slos,
    render_report_markdown,
    stitch_trace_dir,
)
from repro.cluster.trace import (
    ClusterTraceReader,
    ClusterTraceWriter,
    read_cluster_trace,
)
from repro.cluster.transport import Transport

__all__ = [
    "AckFrame",
    "ByeFrame",
    "ChaosConfig",
    "ChaosProxy",
    "ClusterMesh",
    "ClusterNode",
    "ClusterReport",
    "ClusterSpec",
    "ClusterTraceReader",
    "ClusterTraceWriter",
    "CodecError",
    "DataFrame",
    "DecisionRecord",
    "FrameReader",
    "HelloFrame",
    "StitchedTrace",
    "Transport",
    "WIRE_ENCODING",
    "WIRE_VERSION",
    "analyze_run",
    "check_decision_records",
    "check_decision_records_by_instance",
    "check_slos",
    "decode_frame_bytes",
    "encode_frame",
    "read_cluster_trace",
    "render_report_markdown",
    "run_cluster",
    "run_cluster_sync",
    "stitch_trace_dir",
]
