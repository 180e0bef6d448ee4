"""Tests for the trace analysis tools."""

import pytest

from repro.core.messages import EchoMessage, FailStopMessage, InitialMessage
from repro.errors import InvariantViolation
from repro.harness.builders import (
    build_failstop_processes,
    build_malicious_processes,
)
from repro.harness.workloads import balanced_inputs, unanimous_inputs
from repro.obs.sinks import InMemorySink
from repro.sim.events import (
    CrashEvent,
    DecideEvent,
    DeliverEvent,
    SendEvent,
    StartEvent,
)
from repro.sim.kernel import Simulation
from repro.sim.trace_tools import message_complexity, validate_trace


def _traced_failstop_run(seed=0, n=5, k=2):
    processes = build_failstop_processes(
        n, k, balanced_inputs(n),
        crashes={0: {"crash_at_step": 3, "keep_sends": 2}},
    )
    sim = Simulation(processes, seed=seed, sink=InMemorySink())
    result = sim.run(max_steps=300_000)
    return sim.sink.events, result


class TestValidation:
    def test_real_traces_are_legal_schedules(self):
        """The kernel itself must only produce legal schedules."""
        for seed in range(4):
            trace, result = _traced_failstop_run(seed=seed)
            audit = validate_trace(trace)
            assert audit.deliveries <= audit.sends
            assert audit.decisions == sum(
                d is not None for d in result.decisions
            )

    def test_malicious_run_traces_are_legal(self):
        processes = build_malicious_processes(4, 1, balanced_inputs(4))
        sim = Simulation(processes, seed=2, sink=InMemorySink())
        sim.run(max_steps=2_000_000)
        validate_trace(sim.sink.events)

    def test_phantom_delivery_detected(self):
        trace = [
            DeliverEvent(0, 1, 0, FailStopMessage(0, 1, 1)),
        ]
        with pytest.raises(InvariantViolation):
            validate_trace(trace)

    def test_double_delivery_detected(self):
        message = FailStopMessage(0, 1, 1)
        trace = [
            SendEvent(0, 0, 1, message),
            DeliverEvent(1, 1, 0, message),
            DeliverEvent(2, 1, 0, message),
        ]
        with pytest.raises(InvariantViolation):
            validate_trace(trace)

    def test_send_after_crash_detected(self):
        trace = [
            CrashEvent(0, 2),
            SendEvent(1, 2, 0, FailStopMessage(0, 1, 1)),
        ]
        with pytest.raises(InvariantViolation):
            validate_trace(trace)

    def test_double_decision_detected(self):
        trace = [DecideEvent(0, 1, 0), DecideEvent(1, 1, 1)]
        with pytest.raises(InvariantViolation):
            validate_trace(trace)


class TestAnalytics:
    def test_message_complexity_by_type(self):
        processes = build_malicious_processes(4, 1, unanimous_inputs(4, 1))
        sim = Simulation(processes, seed=0, sink=InMemorySink())
        sim.run(max_steps=2_000_000)
        stats = message_complexity(sim.sink.events)
        assert "InitialMessage" in stats
        assert "EchoMessage" in stats
        # The echo amplification: far more echoes than initials.
        assert stats["EchoMessage"]["sent"] > stats["InitialMessage"]["sent"]
        for counts in stats.values():
            assert counts["in_flight"] == counts["sent"] - counts["delivered"]
            assert counts["in_flight"] >= 0


class TestIteratorInputs:
    """Every analysis function must accept a one-pass iterator.

    Streamed JSONL traces are consumed lazily (``read_jsonl`` yields
    events as it parses), so a bare generator — no ``len()``, no second
    pass — has to produce the same answers as the materialised list.
    """

    def test_all_tools_accept_generators(self):
        trace, _ = _traced_failstop_run(seed=3)
        from_list = (
            validate_trace(trace),
            message_complexity(trace),
        )
        from_generators = (
            validate_trace(e for e in trace),
            message_complexity(e for e in trace),
        )
        assert from_generators == from_list
        audit = from_generators[0]
        assert audit.events == len(trace)
