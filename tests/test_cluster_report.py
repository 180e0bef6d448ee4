"""Causal tracing and run reports: HLC, span plumbing, the stitcher,
the analyzer, SLO gates, and the interop/zero-cost guarantees.

The cluster-driving classes run real asyncio TCP on 127.0.0.1 (same
style as ``test_cluster_integration.py``); the HLC and codec classes
are pure unit tests.
"""

import asyncio
import json
import os
import struct

import pytest

from repro.cluster.chaos import ChaosConfig
from repro.cluster.codec import (
    HEADER_SIZE,
    DataFrame,
    decode_frame_bytes,
    encode_frame,
)
from repro.cluster.driver import ClusterSpec, run_cluster_sync
from repro.cluster.report import (
    analyze_run,
    check_slos,
    render_report_markdown,
    report_json_payload,
    stitch_trace_dir,
)
from repro.cluster.trace import ClusterTraceReader
from repro.cluster.transport import NO_ENQUEUE_TS, Transport
from repro.core.messages import SimpleMessage
from repro.errors import ConfigurationError
from repro.net.message import Envelope
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import HLC, SpanTracer, hlc_key, make_trace_id


class TestHLC:
    def test_tick_is_strictly_increasing(self):
        clock = HLC()
        stamps = [clock.tick() for _ in range(200)]
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == len(stamps)

    def test_frozen_wall_clock_falls_back_to_logical(self):
        clock = HLC(clock=lambda: 1.0)
        first = clock.tick()
        second = clock.tick()
        assert first[0] == second[0] == 1_000_000
        assert second[1] == first[1] + 1

    def test_merge_orders_receive_after_send_despite_skew(self):
        # The receiver's wall clock is *behind* the sender's; the merge
        # must still produce a timestamp greater than the sender's.
        sender = HLC(clock=lambda: 10.0)
        receiver = HLC(clock=lambda: 3.0)
        receiver.tick()
        sent = sender.tick()
        received = receiver.merge(*sent)
        assert received > sent

    def test_merge_same_physical_bumps_logical(self):
        local = HLC(clock=lambda: 5.0)
        local.tick()  # physical pinned at 5s
        merged = local.merge(5_000_000, 7)
        assert merged == (5_000_000, 8)

    def test_merge_advances_past_both_when_wall_clock_leads(self):
        local = HLC(clock=lambda: 20.0)
        merged = local.merge(5_000_000, 3)
        assert merged == (20_000_000, 0)

    def test_hlc_key_sorts_unstamped_events_first(self):
        stamped = {"hlc": [10, 2], "node": 1}
        unstamped = {"node": 0}
        assert hlc_key(unstamped) < hlc_key(stamped)

    def test_trace_id_scheme(self):
        assert make_trace_id("abc", 3) == "abc-i3"


class _ListWriter:
    def __init__(self):
        self.events = []

    def record(self, event, **fields):
        self.events.append({"t": event, **fields})

    def record_fields(self, event, fields):
        self.events.append({"t": event, **fields})


class TestSpanTracer:
    def test_span_ids_are_unique_and_pid_scoped(self):
        tracer = SpanTracer(_ListWriter(), pid=7)
        ids = {tracer.next_span_id() for _ in range(50)}
        assert len(ids) == 50
        assert all(span.startswith("7:") for span in ids)

    def test_span_event_shape(self):
        writer = _ListWriter()
        tracer = SpanTracer(writer, pid=2, run_id="r1")
        span_id = tracer.span("client-submit", 4, extra=1)
        event = writer.events[0]
        assert event["t"] == "span"
        assert event["name"] == "client-submit"
        assert event["trace"] == "r1-i4"
        assert event["span"] == span_id
        assert len(event["hlc"]) == 2
        assert event["extra"] == 1

    def test_stamp_matches_wire_extension_shape(self):
        tracer = SpanTracer(_ListWriter(), pid=0, run_id="r")
        trace_id, span_id, physical, logical = tracer.stamp(1)
        assert trace_id == "r-i1"
        assert span_id.startswith("0:")
        assert physical > 0 and logical >= 0

    def test_causal_fields_merge_remote_timestamp(self):
        tracer = SpanTracer(
            _ListWriter(), pid=1, run_id="r", clock=lambda: 1.0
        )
        parent = ("r-i0", "0:9", 5_000_000, 2)
        fields = {"pid": 1}
        tracer.extend_causal(fields, 0, parent)
        assert fields["pid"] == 1  # the caller's keys stay
        assert fields["trace"] == "r-i0"
        assert fields["parent"] == "0:9"
        assert fields["sent_hlc"] == [5_000_000, 2]
        assert tuple(fields["hlc"]) > (5_000_000, 2)


class TestTraceExtensionInterop:
    envelope = Envelope(
        sender=0, recipient=1, payload=SimpleMessage(phaseno=1, value=1)
    )

    def frame(self, trace=("r-i0", "0:1", 123456, 0)):
        return DataFrame(link_seq=3, envelope=self.envelope, trace=trace)

    def test_v2_round_trips_the_trace_extension(self):
        # The extension arrived with wire v2; v4 carries it per entry.
        decoded, = decode_frame_bytes(encode_frame(self.frame()))
        ((_instance, _payload, trace),) = decoded.entries
        assert trace == ("r-i0", "0:1", 123456, 0)

    def test_untraced_frame_carries_a_zero_length_extension(self):
        """Untraced and traced peers interoperate: every entry header
        has the extension-length field, an untraced entry sets it to 0
        and decodes with ``trace is None``."""
        blob = encode_frame(self.frame(trace=None))
        # After the 12-byte prefix, the entry header's u64 instance.
        ext_len = struct.unpack_from(">H", blob, HEADER_SIZE + 12 + 8)[0]
        assert ext_len == 0
        decoded, = decode_frame_bytes(blob)
        assert decoded.entries[0][2] is None
        assert decoded.link_seq == 3

    def test_untraced_v2_body_carries_no_trace_key(self):
        # Untraced frames pay no bytes for tracing: the traced encoding
        # of the same frame is longer by exactly the extension.
        untraced = encode_frame(self.frame(trace=None))
        traced = encode_frame(self.frame())
        extension = b'["r-i0","0:1",123456,0]'
        assert extension in traced and b"r-i0" not in untraced
        assert len(traced) - len(untraced) == len(extension)


@pytest.mark.cluster
class TestTracedChaosRun:
    """The acceptance scenario: n=4 k=1 under chaos, traced end-to-end."""

    @pytest.fixture(scope="class")
    def trace_dir(self, tmp_path_factory):
        trace_dir = str(tmp_path_factory.mktemp("traced-chaos"))
        report = run_cluster_sync(
            ClusterSpec(
                n=4,
                k=1,
                protocol="malicious",
                chaos=ChaosConfig(
                    delay_min=0.001, delay_max=0.006, drop_rate=0.05, seed=3
                ),
                seed=11,
                instances=2,
            ),
            timeout=45,
            trace_dir=trace_dir,
            trace_sample=1,  # full fidelity: every message spanned
        )
        assert report.ok, report.problems
        return trace_dir

    def test_segments_sum_to_e2e_latency(self, trace_dir):
        analysis = analyze_run(stitch_trace_dir(trace_dir))
        overall = analysis["overall"]
        assert overall["decides"] == 8  # 4 nodes x 2 instances
        # The acceptance criterion: segment sums within 10% of the
        # measured end-to-end p50.  (By construction it is exact modulo
        # rounding, so 10% is generous.)
        assert overall["segment_residual_pct"] <= 10.0
        for decide in analysis["decides"]:
            total = (
                decide["queue_ms"]
                + decide["transport_ms"]
                + decide["compute_ms"]
            )
            assert total == pytest.approx(decide["latency_ms"], abs=0.05)

    def test_chaos_events_appear_in_correlation_table(self, trace_dir):
        analysis = analyze_run(stitch_trace_dir(trace_dir))
        assert analysis["chaos"]["events"].get("chaos-delay", 0) > 0
        assert analysis["chaos"]["in_decide_windows"].get("chaos-delay", 0) > 0

    def test_hlc_order_respects_send_receive_causality(self, trace_dir):
        for pid in range(4):
            shard = os.path.join(trace_dir, f"node-{pid}.jsonl")
            for event in ClusterTraceReader(shard, decode_payloads=False):
                if event.get("t") == "recv" and "sent_hlc" in event:
                    assert tuple(event["hlc"]) > tuple(event["sent_hlc"])

    def test_stitched_timeline_is_hlc_sorted(self, trace_dir):
        stitched = stitch_trace_dir(trace_dir)
        keys = [hlc_key(event) for event in stitched.events]
        assert keys == sorted(keys)
        assert not stitched.truncated_shards

    def test_one_trace_id_per_instance(self, trace_dir):
        stitched = stitch_trace_dir(trace_dir)
        run_id = stitched.manifest["run_id"]
        for event in stitched.events:
            trace = event.get("trace")
            if trace is not None:
                instance = event.get("instance")
                assert trace == make_trace_id(run_id, instance)

    def test_slo_gates_pass_and_latency_gate_bites(self, trace_dir):
        analysis = analyze_run(stitch_trace_dir(trace_dir))
        assert check_slos(analysis) == []
        failures = check_slos(analysis, max_p99_ms=0.001)
        assert any("latency" in failure for failure in failures)

    def test_markdown_and_json_renderings(self, trace_dir):
        analysis = analyze_run(stitch_trace_dir(trace_dir))
        markdown = render_report_markdown(analysis, [])
        for heading in (
            "# Cluster run report",
            "## Latency decomposition",
            "## Chaos correlation",
            "## SLO gates",
        ):
            assert heading in markdown
        # The transport has no flow control, so nothing to chart.
        assert "Backpressure" not in markdown
        payload = report_json_payload(analysis, [])
        assert "backpressure" not in payload
        assert payload["slo"]["ok"]
        json.dumps(payload)  # must be JSON-serialisable as-is

    def test_report_cli_check_exit_codes(self, trace_dir, tmp_path, capsys):
        from repro.harness.cli import main

        json_out = str(tmp_path / "report.json")
        md_out = str(tmp_path / "report.md")
        assert main(
            ["report", trace_dir, "--check", "--json", json_out,
             "--out", md_out]
        ) == 0
        assert os.path.exists(json_out) and os.path.exists(md_out)
        capsys.readouterr()
        assert main(["report", trace_dir, "--slo-p99-ms", "0.001"]) == 1
        out = capsys.readouterr().out
        assert "SLO FAIL" in out

    def test_report_cli_rejects_missing_dir(self, tmp_path, capsys):
        from repro.harness.cli import main

        assert main(["report", str(tmp_path / "nope")]) == 2

    def test_check_fails_distinctly_on_empty_shards(
        self, tmp_path, capsys
    ):
        """Regression: ``report --check`` over shards that stitched to
        zero events must fail with the distinct empty-input code (2),
        not the judged-SLO-miss code (1) and certainly not 0."""
        from repro.harness.cli import main

        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        (trace_dir / "node-0.jsonl").write_text("")
        (trace_dir / "node-1.jsonl").write_text("")
        assert main(["report", str(trace_dir), "--check"]) == 2
        out = capsys.readouterr().out
        assert "empty trace input" in out
        assert "SLO FAIL: input: empty trace" in out
        # The library-level gate reports the same failure.
        analysis = analyze_run(stitch_trace_dir(str(trace_dir)))
        assert any(
            failure.startswith("input: empty trace")
            for failure in check_slos(analysis)
        )
        # Ungated rendering of an empty stitch still succeeds.
        capsys.readouterr()
        assert main(["report", str(trace_dir)]) == 0


@pytest.mark.cluster
class TestTruncatedShards:
    def _chop_last_line(self, path: str) -> None:
        """Byte-chop the shard mid-way through its final line."""
        with open(path, "rb") as handle:
            blob = handle.read()
        last_newline = blob.rstrip(b"\n").rfind(b"\n")
        assert last_newline > 0
        with open(path, "wb") as handle:
            handle.write(blob[: last_newline + 10])

    def test_stitcher_tolerates_byte_chopped_shard(self, tmp_path):
        trace_dir = str(tmp_path / "traces")
        report = run_cluster_sync(
            ClusterSpec(n=4, k=1, protocol="failstop", seed=2),
            timeout=30,
            trace_dir=trace_dir,
        )
        assert report.ok
        victim = os.path.join(trace_dir, "node-2.jsonl")
        intact = sum(1 for _ in ClusterTraceReader(victim))
        self._chop_last_line(victim)

        reader = ClusterTraceReader(victim)
        events = list(reader)
        assert reader.truncated
        assert len(events) == intact - 1

        stitched = stitch_trace_dir(trace_dir)
        assert stitched.truncated_shards == [victim]
        analysis = analyze_run(stitched)
        assert analysis["truncated_shards"] == [victim]
        # Torn shards are an integrity failure under --check.
        failures = check_slos(analysis)
        assert any("truncated" in failure for failure in failures)

    def test_mid_file_corruption_still_raises(self, tmp_path):
        path = str(tmp_path / "corrupt.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"t": "node-start", "ts": 0.0}\n')
            handle.write("{broken json\n")
            handle.write('{"t": "decide", "ts": 1.0}\n')
        with pytest.raises(ValueError):
            list(ClusterTraceReader(path))

    def test_stitcher_requires_shards(self, tmp_path):
        with pytest.raises(ConfigurationError):
            stitch_trace_dir(str(tmp_path))


@pytest.mark.cluster
class TestUntracedZeroCost:
    def test_untraced_inbound_tuples_share_the_placeholder(self):
        """The guard flag keeps the untraced delivery path allocation-
        identical to the historic one: every queue item reuses the
        module-level ``NO_ENQUEUE_TS`` constant instead of reading the
        clock and boxing a fresh float per frame."""

        async def scenario():
            a = Transport(0, 2, seed=0)
            b = Transport(1, 2, seed=1)
            peers = {0: await a.serve(), 1: await b.serve()}
            a.connect(peers)
            b.connect(peers)
            try:
                for tag in range(10):
                    a.send(
                        Envelope(
                            sender=0,
                            recipient=1,
                            payload=SimpleMessage(phaseno=tag, value=0),
                        )
                    )
                items = []
                while len(items) < 10:
                    await asyncio.wait_for(b.inbound.wait(), timeout=10)
                    items.extend(b.inbound.take())
                return items
            finally:
                await a.close()
                await b.close()

        items = asyncio.run(scenario())
        assert all(item[2] is NO_ENQUEUE_TS for item in items)


@pytest.mark.cluster
class TestSpanSampling:
    def test_one_in_n_frames_stamped_and_spanned(self, tmp_path):
        """``trace_sample=4`` stamps (and spans) frames 0, 4, 8 ... per
        link; unstamped deliveries produce no send/recv events at all,
        but every delivery still carries a real enqueue timestamp."""
        from repro.cluster.trace import ClusterTraceWriter

        path = str(tmp_path / "pair.jsonl")

        async def scenario():
            writer = ClusterTraceWriter(path)
            a = Transport(
                0,
                2,
                tracer=SpanTracer(writer, 0, "sampled"),
                seed=0,
                trace_sample=4,
                batch_bytes=0,  # one frame per send: deterministic count
            )
            b = Transport(
                1,
                2,
                tracer=SpanTracer(writer, 1, "sampled"),
                seed=1,
                trace_sample=4,
            )
            peers = {0: await a.serve(), 1: await b.serve()}
            a.connect(peers)
            b.connect(peers)
            try:
                for tag in range(8):
                    a.send(
                        Envelope(
                            sender=0,
                            recipient=1,
                            payload=SimpleMessage(phaseno=tag, value=0),
                        )
                    )
                items = []
                while len(items) < 8:
                    await asyncio.wait_for(b.inbound.wait(), timeout=10)
                    items.extend(b.inbound.take())
                return items
            finally:
                await a.close()
                await b.close()
                writer.close()

        items = asyncio.run(scenario())
        assert all(item[2] > 0.0 for item in items)
        events = list(ClusterTraceReader(path, decode_payloads=False))
        sends = [e for e in events if e["t"] == "send"]
        recvs = [e for e in events if e["t"] == "recv"]
        assert len(sends) == 2  # frames 0 and 4 of 8
        assert len(recvs) == 2
        for recv in recvs:
            assert tuple(recv["hlc"]) > tuple(recv["sent_hlc"])
            assert recv["trace"] == "sampled-i0"


@pytest.mark.cluster
class TestQueueDrainOnShutdown:
    def test_backlog_gauge_returns_to_zero_after_graceful_close(self):
        async def scenario():
            registry = MetricsRegistry()
            a = Transport(0, 2, registry=registry, seed=0)
            b = Transport(1, 2, registry=registry, seed=1)
            peers = {0: await a.serve(), 1: await b.serve()}
            a.connect(peers)
            b.connect(peers)
            try:
                for tag in range(50):
                    a.send(
                        Envelope(
                            sender=0,
                            recipient=1,
                            payload=SimpleMessage(phaseno=tag, value=1),
                        )
                    )
                while a.backlog() > 0:
                    await asyncio.sleep(0.01)
            finally:
                await a.close()
                await b.close()
            return a.backlog(), registry.snapshot()

        backlog, snapshot = asyncio.run(scenario())
        assert backlog == 0
        # Transport.close() records the final backlog; a graceful
        # shutdown must leave nothing queued.
        assert snapshot.gauges.get("cluster.transport.final_backlog") == 0
