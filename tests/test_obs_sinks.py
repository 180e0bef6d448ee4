"""Tests for trace sinks: in-memory and JSONL round-trip."""

import pytest

from repro.baselines.initially_dead import (
    InitiallyDeadConsensus,
    InitiallyDeadProcess,
)
from repro.broadcast import BrachaAgreementProcess, ReliableBroadcastProcess
from repro.core.messages import STAR, EchoMessage, FailStopMessage
from repro.errors import ConfigurationError
from repro.harness.builders import (
    PROTOCOL_CORES,
    build_ensemble,
    build_failstop_processes,
    build_malicious_processes,
)
from repro.harness.workloads import balanced_inputs
from repro.obs.sinks import (
    InMemorySink,
    JsonlTraceSink,
    decode_payload,
    encode_payload,
    event_from_dict,
    event_to_dict,
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
        assert sim.sink is None


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

    def test_unregistered_payload_type_raises_at_encode(self):
        class Custom:
            def __repr__(self):
                return "Custom(1)"

        with pytest.raises(ConfigurationError, match="unregistered .* Custom"):
            encode_payload(Custom())

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



#: One short seeded ensemble per message family: every protocol table
#: row, Bracha '87 agreement, the single-shot RBC (a tuple value) and
#: the initially-dead protocol (one member dead).
FAMILIES = {
    **{
        protocol: lambda protocol=protocol: build_ensemble(
            protocol, 4, 1, [0, 1, 1, 0]
        )
        for protocol in PROTOCOL_CORES
    },
    "bracha": lambda: [
        BrachaAgreementProcess(pid, 4, 1, pid % 2) for pid in range(4)
    ],
    "rbc": lambda: [
        ReliableBroadcastProcess(pid, 4, 1, 0, (1, "v")) for pid in range(4)
    ],
    "initially_dead": lambda: [
        *(InitiallyDeadConsensus(pid, 4, pid % 2) for pid in range(3)),
        InitiallyDeadProcess(3, 4),
    ],
}


class TestEveryFamilyRoundTrips:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_jsonl_trace_equals_in_memory_trace(self, family, tmp_path):
        """A JSONL trace reads back to exactly the recorded events, so
        every family's payloads survive the codec unchanged."""
        path = str(tmp_path / "trace.jsonl")
        sinks = [InMemorySink(), JsonlTraceSink(path)]
        for sink in sinks:
            with sink:
                sim = Simulation(FAMILIES[family](), seed=3, sink=sink)
                sim.run(max_steps=3_000)
        events = sinks[0].events
        assert any(isinstance(event, SendEvent) for event in events)
        assert list(read_jsonl(path)) == events
