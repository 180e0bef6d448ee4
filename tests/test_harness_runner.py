"""Tests for the replicated-run experiment runner."""

import pytest

from repro.errors import SimulationLimitError
from repro.harness.builders import build_failstop_processes
from repro.harness.runner import ExperimentRunner
from repro.harness.workloads import balanced_inputs, unanimous_inputs
from repro.net.schedulers import FifoScheduler
from repro.sim.results import HaltReason


class TestExperimentRunner:
    def test_run_many_aggregates(self):
        runner = ExperimentRunner(
            lambda seed: build_failstop_processes(5, 2, balanced_inputs(5))
        )
        runs = runner.run_many(range(5))
        assert runs.count == 5
        assert runs.agreement_rate() == 1.0
        assert runs.decision_phase_stats().count == 5
        assert runs.steps_stats().mean > 0
        assert runs.messages_stats().mean > 0

    def test_consensus_values_collected(self):
        runner = ExperimentRunner(
            lambda seed: build_failstop_processes(5, 2, unanimous_inputs(5, 1))
        )
        values = runner.run_many(range(3)).consensus_values()
        assert values == [1, 1, 1]

    def test_termination_enforced(self):
        runner = ExperimentRunner(
            lambda seed: build_failstop_processes(7, 3, balanced_inputs(7)),
            max_steps=5,  # hopelessly small
        )
        with pytest.raises(SimulationLimitError):
            runner.run_one(0)

    def test_termination_check_optional(self):
        runner = ExperimentRunner(
            lambda seed: build_failstop_processes(7, 3, balanced_inputs(7)),
            max_steps=5,
            require_termination=False,
        )
        result = runner.run_one(0)
        assert not result.all_correct_decided

    def test_custom_halt_goal_does_not_raise(self):
        # Regression: a custom halt_when that legitimately reaches its
        # goal used to trip the require_termination check whenever the
        # goal was not "all correct processes decided".
        runner = ExperimentRunner(
            lambda seed: build_failstop_processes(5, 2, balanced_inputs(5)),
            halt_when=lambda sim: sim.steps >= 20,
        )
        result = runner.run_one(0)
        assert result.halt_reason is HaltReason.GOAL_REACHED
        assert not result.all_correct_decided

    def test_scheduler_factory_used(self):
        built = []

        def scheduler_factory(seed):
            scheduler = FifoScheduler()
            built.append(seed)
            return scheduler

        runner = ExperimentRunner(
            lambda seed: build_failstop_processes(5, 2, balanced_inputs(5)),
            scheduler_factory=scheduler_factory,
        )
        runner.run_many(range(3))
        assert built == [0, 1, 2]
