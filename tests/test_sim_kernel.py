"""Unit tests for the simulation kernel (atomic-step semantics)."""

import hashlib
import json
from typing import Optional

import pytest

from repro.errors import ConfigurationError
from repro.faults.byzantine import BalancingEchoByzantine
from repro.harness.builders import (
    build_failstop_processes,
    build_malicious_processes,
)
from repro.harness.workloads import balanced_inputs
from repro.net.message import Envelope
from repro.net.schedulers import FifoScheduler, RandomScheduler
from repro.obs.sinks import InMemorySink, event_to_dict
from repro.procs.base import Process, Send
from repro.sim.events import DecideEvent, DeliverEvent, SendEvent, StartEvent
from repro.sim.kernel import Simulation, StepObserver
from repro.sim.results import HaltReason


class EchoOnce(Process):
    """Toy process: replies once to the first message it receives."""

    def __init__(self, pid: int, n: int) -> None:
        super().__init__(pid, n)
        self.input_value = 0
        self.replied = False
        self.received: list = []

    def start(self) -> list[Send]:
        if self.pid == 0:
            return [Send(1, "ping")]
        return []

    def step(self, envelope: Optional[Envelope]) -> list[Send]:
        if envelope is None:
            return []
        self.received.append(envelope.payload)
        if not self.replied and envelope.payload == "ping":
            self.replied = True
            return [Send(envelope.sender, "pong")]
        return []


class DecideOnFirstMessage(Process):
    def __init__(self, pid: int, n: int, input_value: int = 0) -> None:
        super().__init__(pid, n)
        self.input_value = input_value

    def start(self) -> list[Send]:
        return [Send(q, self.input_value) for q in range(self.n)]

    def step(self, envelope: Optional[Envelope]) -> list[Send]:
        if envelope is not None and not self.decided:
            self._decide(envelope.payload)
        return []


class TestSimulationBasics:
    def test_start_steps_route_messages(self):
        sim = Simulation([EchoOnce(0, 2), EchoOnce(1, 2)], seed=0)
        result = sim.run(max_steps=10)
        assert result.halt_reason is HaltReason.QUIESCENT
        assert sim.processes[1].received == ["ping"]
        assert sim.processes[0].received == ["pong"]

    def test_pid_order_enforced(self):
        with pytest.raises(ConfigurationError):
            Simulation([EchoOnce(1, 2), EchoOnce(0, 2)])

    def test_n_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            Simulation([EchoOnce(0, 2), EchoOnce(1, 3)])

    def test_empty_process_list_rejected(self):
        with pytest.raises(ConfigurationError):
            Simulation([])

    def test_goal_halt_on_all_decided(self):
        processes = [DecideOnFirstMessage(pid, 2, pid) for pid in range(2)]
        result = Simulation(processes, seed=1).run()
        assert result.halt_reason is HaltReason.GOAL_REACHED
        assert result.all_correct_decided

    def test_max_steps_is_per_call_budget(self):
        """run() resumes; each call's max_steps bounds *its* steps."""

        class ChattyForever(Process):
            def __init__(self, pid, n):
                super().__init__(pid, n)
                self.input_value = 0

            def start(self):
                return [Send(1 - self.pid, "x")]

            def step(self, envelope):
                return [Send(1 - self.pid, "x")] if envelope else []

        sim = Simulation([ChattyForever(0, 2), ChattyForever(1, 2)], seed=0)
        first = sim.run(max_steps=10)
        assert first.halt_reason is HaltReason.MAX_STEPS
        steps_after_first = sim.steps
        second = sim.run(max_steps=10)
        assert second.steps == steps_after_first + 10

    def test_determinism_same_seed_same_outcome(self):
        def build():
            return [DecideOnFirstMessage(pid, 3, pid % 2) for pid in range(3)]

        first = Simulation(build(), seed=42).run()
        second = Simulation(build(), seed=42).run()
        assert first.decisions == second.decisions
        assert first.steps == second.steps
        assert first.messages_sent == second.messages_sent

    def test_different_seeds_can_differ(self):
        outcomes = set()
        for seed in range(20):
            processes = [DecideOnFirstMessage(pid, 3, pid % 2) for pid in range(3)]
            outcomes.add(Simulation(processes, seed=seed).run().decisions)
        assert len(outcomes) > 1


def _figure_1():
    return build_failstop_processes(
        7, 3, balanced_inputs(7),
        crashes={0: {"crash_at_step": 3, "keep_sends": 2}},
    )


def _figure_2_with_byzantine():
    return build_malicious_processes(
        7, 2, balanced_inputs(7), byzantine={6: BalancingEchoByzantine},
    )


class TestMetricsOnOffEquivalence:
    """Metrics never touch the RNG or the schedule, so a seed computes
    the same run through the step loop with them on or off."""

    @pytest.mark.parametrize("build", [_figure_1, _figure_2_with_byzantine])
    @pytest.mark.parametrize("seed", [0, 7, 1983])
    def test_same_seed_same_run(self, build, seed):
        plain = Simulation(build(), seed=seed).run(max_steps=500_000)
        observed = Simulation(build(), seed=seed, metrics=True).run(
            max_steps=500_000
        )
        assert plain.metrics is None and observed.metrics is not None
        assert plain.halt_reason is HaltReason.GOAL_REACHED
        for field in (
            "steps", "decisions", "decided_at_phase", "decided_at_step",
            "max_phase", "halt_reason", "messages_sent",
            "messages_delivered",
        ):
            assert getattr(observed, field) == getattr(plain, field), field


#: sha256 of (JSONL event stream, metrics snapshot) per
#: (configuration, seed), computed at the commit before the two step
#: loops were merged (2770758) and unchanged by the merge.
GOLDEN_DIGESTS = {
    ("_figure_1", 0): (
        "9e9001d18c1cf5d2548045126f55cf636a37cadcefec21a15be439b3564953e7",
        "21ac471ce17ea75ec944204e40d0965e6337570c0f604f5eee45217fc73be258",
    ),
    ("_figure_1", 7): (
        "d8f3d4bccc2c89f94ff350f826345e2fa63d00380a559cb3141461cdc4eeae86",
        "65fc4bc968098fc49cd708edb3f4adc4c83c9b3403b40eb9d06c627b68a39e5e",
    ),
    ("_figure_1", 1983): (
        "81aef4a64e02bad09e3b2bd44f23819e5d5fde7d2810b00b2f1708642266b1e5",
        "5ef20b35d4ed6db023d930d89cde41aeaa30f40b36bfc6c4b1876509d4a3187e",
    ),
    ("_figure_2_with_byzantine", 0): (
        "bcc80430001055ecf0a6baf75bd9b095763070a1a888b7449e9255be96acb83d",
        "1a66795e4d368422db1acc857407fb86028b2783656ea58e2bdf27443b0d01a4",
    ),
    ("_figure_2_with_byzantine", 7): (
        "c4fd45bd7f3d77f44e24de29411ec74e75ed2094f7f44390f7a4439baa5af460",
        "9c30f31c06cb790f2a8ebaeb70fa7827a88cdbcacba6fbe9ca36429865803ebe",
    ),
    ("_figure_2_with_byzantine", 1983): (
        "adc33da75ed2a34edf090ea5c7fc3ae93d1fc752b1fdee275f855e81d42c8009",
        "a32301570db2cb27301a1403ccddbdf81489340348403d097d41a91bc371cb80",
    ),
    # Fig 1 again under RandomScheduler(phi_probability=0.25): 58 φ steps,
    # which the uniform scheduler above never takes.
    ("_figure_1+phi", 7): (
        "f8e497b0910ec8e34695864138ede5e8182096a919606aabbef947ca2e45071e",
        "3a47770ec3fa0402140d0573bf75f3aa9126ff47a9faa663ffb473d831e78335",
    ),
}


def _digests(sim):
    """(event-stream sha256, metrics sha256) of one finished run.

    The metrics bytes keep an empty ``"timers"`` key: snapshots once
    carried a wall-clock timer section, and with it empty this is the
    exact form the recorded digests were taken over, so they still pin
    counters, gauges and histograms byte for byte.
    """
    result = sim.run(max_steps=500_000)
    stream = "".join(
        json.dumps(event_to_dict(event), sort_keys=True) + "\n"
        for event in sim.sink.events
    )
    snapshot = json.dumps(
        {**result.metrics.to_dict(), "timers": {}}, sort_keys=True
    )
    return (
        hashlib.sha256(stream.encode()).hexdigest(),
        hashlib.sha256(snapshot.encode()).hexdigest(),
    )


class TestGoldenDigests:
    """The event stream and the metrics snapshot of a seed are
    byte-for-byte what they were before the kernel was restructured."""

    @pytest.mark.parametrize("build", [_figure_1, _figure_2_with_byzantine])
    @pytest.mark.parametrize("seed", [0, 7, 1983])
    def test_event_stream_and_stable_metrics(self, build, seed):
        sim = Simulation(build(), seed=seed, metrics=True, sink=InMemorySink())
        assert _digests(sim) == GOLDEN_DIGESTS[build.__name__, seed]

    def test_phi_steps(self):
        sim = Simulation(
            _figure_1(), RandomScheduler(phi_probability=0.25), seed=7,
            metrics=True, sink=InMemorySink(),
        )
        assert _digests(sim) == GOLDEN_DIGESTS["_figure_1+phi", 7]
        assert sim.metrics.snapshot().counters["kernel.phi_steps"] == 58


class TestTraceAndAccounting:
    def test_trace_records_lifecycle(self):
        processes = [DecideOnFirstMessage(pid, 2, 1) for pid in range(2)]
        sim = Simulation(
            processes, scheduler=FifoScheduler(), seed=0, sink=InMemorySink()
        )
        sim.run()
        kinds = [type(event) for event in sim.sink.events]
        assert kinds.count(StartEvent) == 2
        assert DecideEvent in kinds
        assert SendEvent in kinds
        assert DeliverEvent in kinds

    def test_message_accounting(self):
        processes = [DecideOnFirstMessage(pid, 3, 0) for pid in range(3)]
        sim = Simulation(processes, seed=0)
        result = sim.run()
        assert result.messages_sent == 9  # 3 broadcasts of 3
        assert result.messages_delivered <= result.messages_sent

    def test_decided_at_step_recorded(self):
        processes = [DecideOnFirstMessage(pid, 2, 1) for pid in range(2)]
        result = Simulation(processes, seed=0).run()
        for pid in range(2):
            assert result.decided_at_step[pid] is not None


class TestReplaceProcess:
    def test_replacement_takes_start_step(self):
        processes = [DecideOnFirstMessage(pid, 2, 0) for pid in range(2)]
        sim = Simulation(processes, seed=0)
        sim.run(max_steps=1)
        replacement = DecideOnFirstMessage(0, 2, 1)
        sim.replace_process(0, replacement)
        assert sim.processes[0] is replacement
        assert replacement.steps_taken == 1  # its start ran

    def test_replacement_start_is_recorded_metered_and_observed(self):
        """A replacement that decides in ``start()`` is a step like any
        other: StartEvent/DecideEvent, ``decisions`` counter, observer."""

        class DecideAtStart(Process):
            input_value = 1

            def start(self):
                self._decide(1)
                return self._broadcast("hello")

            def step(self, envelope):
                return []

        class Recorder(StepObserver):
            def __init__(self):
                self.seen = []

            def on_step(self, sim, pid, envelope, sends):
                self.seen.append((sim.steps, pid, envelope, len(sends)))

        processes = [DecideOnFirstMessage(pid, 2, 0) for pid in range(2)]
        recorder = Recorder()
        sim = Simulation(
            processes, seed=0, sink=InMemorySink(), metrics=True,
            observer=recorder,
        )
        sim.run(max_steps=1)
        events_before = len(sim.sink.events)
        steps_before, calls_before = sim.steps, len(recorder.seen)
        before = sim.metrics.snapshot()
        decisions_before = before.counters.get("decisions", 0)

        sim.replace_process(0, DecideAtStart(0, 2))

        assert sim.steps == steps_before + 1
        new_events = sim.sink.events[events_before:]
        assert new_events[0] == StartEvent(steps_before, 0)
        assert [type(event) for event in new_events[1:3]] == [SendEvent] * 2
        assert new_events[3] == DecideEvent(steps_before, 0, 1)
        snapshot = sim.metrics.snapshot()
        assert snapshot.counters["decisions"] == decisions_before + 1
        assert snapshot.counters["messages.sent.str"] == 2
        assert recorder.seen[calls_before:] == [(steps_before, 0, None, 2)]

    def test_replacement_validated(self):
        processes = [DecideOnFirstMessage(pid, 2, 0) for pid in range(2)]
        sim = Simulation(processes, seed=0)
        with pytest.raises(ConfigurationError):
            sim.replace_process(0, DecideOnFirstMessage(1, 2, 0))
        with pytest.raises(ConfigurationError):
            sim.replace_process(5, DecideOnFirstMessage(0, 2, 0))
