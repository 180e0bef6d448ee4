"""Tests for trace sinks: in-memory, JSONL round-trip, sampling, null."""

import pytest

from repro.core.messages import STAR, EchoMessage, FailStopMessage
from repro.harness.builders import (
    build_failstop_processes,
    build_malicious_processes,
)
from repro.harness.workloads import balanced_inputs
from repro.obs.sinks import (
    CountingSink,
    InMemorySink,
    JsonlTraceSink,
    NullSink,
    OpaquePayload,
    SamplingSink,
    decode_payload,
    encode_payload,
    event_from_dict,
    event_to_dict,
    payload_type_name,
    read_jsonl,
)
from repro.sim.events import DecideEvent, DeliverEvent, SendEvent, StartEvent
from repro.sim.kernel import Simulation
from repro.sim.trace_tools import message_complexity, validate_trace

pytestmark = pytest.mark.obs


def _run(processes, seed=0, **kwargs):
    sim = Simulation(processes, seed=seed, **kwargs)
    result = sim.run(max_steps=2_000_000)
    return sim, result


class TestBackwardCompat:
    def test_default_sink_is_inactive_and_trace_empty(self):
        processes = build_failstop_processes(5, 2, balanced_inputs(5))
        sim, _ = _run(processes)
        assert isinstance(sim.sink, NullSink)
        assert not sim.sink.active


class TestJsonlRoundTrip:
    def test_known_payloads_round_trip_exactly(self):
        payloads = [
            FailStopMessage(phaseno=3, value=1, cardinality=4),
            EchoMessage(origin=2, value=0, phaseno=STAR),
            EchoMessage(origin=2, value=0, phaseno=5),
            None,
            1,
            "token",
        ]
        for payload in payloads:
            assert decode_payload(encode_payload(payload)) == payload

    def test_unknown_payload_degrades_to_opaque(self):
        class Custom:
            def __repr__(self):
                return "Custom(1)"

        decoded = decode_payload(encode_payload(Custom()))
        assert decoded == OpaquePayload("Custom", "Custom(1)")
        assert payload_type_name(decoded) == "Custom"
        # Equal payloads encode to equal opaque forms, so validator
        # send/delivery matching still works post-round-trip.
        assert decode_payload(encode_payload(Custom())) == decoded

    def test_events_round_trip(self):
        events = [
            StartEvent(0, 1),
            SendEvent(1, 0, 2, FailStopMessage(0, 1, 1)),
            DeliverEvent(2, 2, 0, FailStopMessage(0, 1, 1)),
            DecideEvent(3, 2, 1),
        ]
        for event in events:
            assert event_from_dict(event_to_dict(event)) == event

    def test_written_trace_validates_and_matches_reference(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        make = lambda: build_malicious_processes(4, 1, balanced_inputs(4))
        reference, _ = _run(make(), seed=2, sink=InMemorySink())
        jsonl_sink = JsonlTraceSink(path)
        _run(make(), seed=2, sink=jsonl_sink)
        jsonl_sink.close()

        replayed = list(read_jsonl(path))
        assert replayed == reference.sink.events
        validate_trace(read_jsonl(path))  # streaming re-validation
        assert message_complexity(read_jsonl(path)) == message_complexity(
            reference.sink.events
        )

    def test_byte_chopped_tail_yields_parsed_prefix(self, tmp_path):
        """A writer killed mid-line must not poison the whole trace:
        ``read_jsonl`` yields every complete line and flags the torn
        tail instead of raising."""
        path = str(tmp_path / "trace.jsonl")
        with JsonlTraceSink(path) as sink:
            for step in range(5):
                sink.emit(StartEvent(step, step % 3))
        with open(path, "rb") as handle:
            blob = handle.read()
        last_newline = blob.rstrip(b"\n").rfind(b"\n")
        with open(path, "wb") as handle:
            handle.write(blob[: last_newline + 6])  # torn final line

        reader = read_jsonl(path)
        events = list(reader)
        assert reader.truncated
        assert events == [StartEvent(step, step % 3) for step in range(4)]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write('{"t": "start", "step": 0, "pid": 0}\n')
        with pytest.raises(ValueError):
            list(read_jsonl(path))

    def test_extra_fields_stamped_per_line(self, tmp_path):
        import json

        path = str(tmp_path / "trace.jsonl")
        with JsonlTraceSink(path, extra={"seed": 7}) as sink:
            sink.emit(StartEvent(0, 0))
            sink.emit(DecideEvent(1, 0, 1))
        lines = [
            json.loads(line)
            for line in open(path, encoding="utf-8")
            if line.strip()
        ]
        assert all(line["seed"] == 7 for line in lines)


class TestSampling:
    def _events(self, count):
        return [StartEvent(step, step % 5) for step in range(count)]

    def test_every_nth_keeps_first_then_every_nth(self):
        inner = InMemorySink()
        sampler = SamplingSink(inner, every=3)
        for event in self._events(10):
            sampler.emit(event)
        assert [e.step for e in inner.events] == [0, 3, 6, 9]

    def test_type_filter_applies_before_nth_counter(self):
        inner = InMemorySink()
        sampler = SamplingSink(inner, every=2, include=[DecideEvent])
        sampler.emit(StartEvent(0, 0))
        sampler.emit(DecideEvent(1, 0, 1))
        sampler.emit(StartEvent(2, 1))
        sampler.emit(DecideEvent(3, 1, 1))
        sampler.emit(DecideEvent(4, 2, 1))
        # Starts never count against the decision sampler.
        assert [e.step for e in inner.events] == [1, 4]

    def test_type_filter_accepts_names(self):
        inner = InMemorySink()
        sampler = SamplingSink(inner, include=["DecideEvent"])
        sampler.emit(StartEvent(0, 0))
        sampler.emit(DecideEvent(1, 0, 1))
        assert [type(e).__name__ for e in inner.events] == ["DecideEvent"]

    def test_every_must_be_positive(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            SamplingSink(InMemorySink(), every=0)


class TestNullAndCounting:
    def test_null_sink_is_inactive(self):
        assert NullSink.active is False

    def test_counting_sink_counts_and_forwards(self):
        inner = InMemorySink()
        probe = CountingSink(inner=inner)
        probe.emit(StartEvent(0, 0))
        probe.emit(StartEvent(1, 1))
        assert probe.emitted == 2
        assert len(inner.events) == 2
