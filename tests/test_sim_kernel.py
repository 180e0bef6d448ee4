"""Unit tests for the simulation kernel (atomic-step semantics)."""

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
from repro.net.schedulers import FifoScheduler
from repro.procs.base import Process, Send
from repro.sim.events import DecideEvent, DeliverEvent, SendEvent, StartEvent
from repro.sim.kernel import Simulation
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
    """``_run_observed`` and ``_run_plain`` are hand-kept twins: metrics
    never touch the RNG or the schedule, so a seed computes the same run
    through either loop."""

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


class TestTraceAndAccounting:
    def test_trace_records_lifecycle(self):
        processes = [DecideOnFirstMessage(pid, 2, 1) for pid in range(2)]
        sim = Simulation(processes, scheduler=FifoScheduler(), seed=0, trace=True)
        sim.run()
        kinds = [type(event) for event in sim.trace]
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

    def test_replacement_validated(self):
        processes = [DecideOnFirstMessage(pid, 2, 0) for pid in range(2)]
        sim = Simulation(processes, seed=0)
        with pytest.raises(ConfigurationError):
            sim.replace_process(0, DecideOnFirstMessage(1, 2, 0))
        with pytest.raises(ConfigurationError):
            sim.replace_process(5, DecideOnFirstMessage(0, 2, 0))
