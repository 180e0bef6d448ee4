"""Tests for fail-stop fault injection."""

import pytest

from repro.core.fail_stop import FailStopConsensus
from repro.errors import ConfigurationError
from repro.faults.crash import CrashableProcess
from repro.harness.builders import build_failstop_processes
from repro.sim.kernel import Simulation


def _victim(n=5, k=2, value=0, **kwargs):
    return CrashableProcess(FailStopConsensus(0, n, k, value), **kwargs)


class TestCrashTriggers:
    def test_crash_at_step_zero_sends_nothing(self):
        victim = _victim(crash_at_step=0)
        assert victim.start() == []
        assert victim.crashed
        assert not victim.alive

    def test_crash_at_step_zero_with_partial_sends(self):
        """The canonical mid-broadcast death: a prefix of the sends escape."""
        victim = _victim(crash_at_step=0, keep_sends=2)
        sends = victim.start()
        assert len(sends) == 2  # of the 5 the broadcast would have produced
        assert victim.crashed

    def test_crash_at_later_step(self):
        victim = _victim(crash_at_step=2)
        victim.start()
        victim.step(None)
        assert victim.alive
        victim.step(None)
        assert victim.crashed

    def test_crash_at_phase(self):
        victim = _victim(crash_at_phase=0)
        # Phase trigger fires before the step executes: instant death.
        assert victim.start() == []
        assert victim.crashed

    def test_dead_processes_stay_dead(self):
        victim = _victim(crash_at_step=0)
        victim.start()
        assert victim.step(None) == []
        assert victim._steps_seen == 0  # death pre-empted the start step

    def test_silence_is_total(self):
        """Deaths emit no warning messages (Section 2.1)."""
        victim = _victim(crash_at_step=1)
        sends_at_death = victim.step(None)
        assert sends_at_death == [] or all(
            s.payload is not None for s in sends_at_death
        )

    def test_needs_a_trigger(self):
        with pytest.raises(ConfigurationError):
            CrashableProcess(FailStopConsensus(0, 5, 2, 0))

    def test_trigger_validation(self):
        with pytest.raises(ConfigurationError):
            _victim(crash_at_step=-1)
        with pytest.raises(ConfigurationError):
            _victim(crash_at_phase=-2)
        with pytest.raises(ConfigurationError):
            _victim(crash_at_step=1, keep_sends=-1)


class TestMirroring:
    def test_decision_mirrored_from_inner(self):
        processes = build_failstop_processes(
            5, 2, [1] * 5, crashes={4: {"crash_at_step": 500_000}}
        )
        result = Simulation(processes, seed=0).run(max_steps=500_000)
        assert result.decisions[4] == 1
        assert processes[4].decided
        assert processes[4].decided_at_phase is not None

    def test_is_correct_stays_true(self):
        """Fail-stop victims are correct processes that died, not liars."""
        assert _victim(crash_at_step=3).is_correct


class TestCrashPlanHelper:
    def test_wraps_only_victims(self):
        wrapped = build_failstop_processes(
            5, 2, [0] * 5, crashes={1: {"crash_at_step": 2}}
        )
        wrapped_pids = [
            p.pid for p in wrapped if isinstance(p, CrashableProcess)
        ]
        assert wrapped_pids == [1]

    def test_crashed_pids_reported(self):
        wrapped = build_failstop_processes(
            5, 2, [1] * 5,
            crashes={0: {"crash_at_step": 1}, 1: {"crash_at_step": 0}},
        )
        result = Simulation(wrapped, seed=1).run(max_steps=500_000)
        assert result.crashed_pids == {0, 1}
        assert result.all_correct_decided  # survivors decided
        assert result.consensus_value == 1
