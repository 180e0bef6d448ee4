"""Tests for the virtual-time (exponential-delay) scheduler."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.harness.builders import build_failstop_processes
from repro.harness.workloads import balanced_inputs, unanimous_inputs
from repro.net.schedulers import ExponentialDelayScheduler
from repro.net.system import MessageSystem
from repro.sim.kernel import Simulation


class TestMechanics:
    def test_mean_delay_validated(self):
        with pytest.raises(ConfigurationError):
            ExponentialDelayScheduler(mean_delay=0.0)

    def test_clock_is_monotone(self):
        scheduler = ExponentialDelayScheduler()
        system = MessageSystem(3)
        for sender in range(3):
            for recipient in range(3):
                system.send(sender, recipient, f"m{sender}")
        rng = random.Random(0)
        previous = 0.0
        while True:
            decision = scheduler.choose(system, [0, 1, 2], rng)
            if decision is None:
                break
            assert scheduler.now >= previous
            previous = scheduler.now

    def test_quiescent_on_empty(self):
        scheduler = ExponentialDelayScheduler()
        assert scheduler.choose(MessageSystem(2), [0, 1], random.Random(0)) is None

    def test_reset_clears_clock(self):
        scheduler = ExponentialDelayScheduler()
        system = MessageSystem(2)
        system.send(0, 1, "x")
        scheduler.choose(system, [0, 1], random.Random(0))
        assert scheduler.now > 0
        scheduler.reset()
        assert scheduler.now == 0.0

    def test_delivery_prefers_earlier_deadline(self):
        """With one early and one very late message, the early one goes
        first (statistically: over many seeds, order follows deadlines)."""
        early_first = 0
        for seed in range(50):
            scheduler = ExponentialDelayScheduler(mean_delay=1.0)
            system = MessageSystem(2)
            system.send(0, 1, "a")
            system.send(0, 1, "b")
            rng = random.Random(seed)
            first = scheduler.choose(system, [0, 1], rng)[1].payload
            second = scheduler.choose(system, [0, 1], rng)[1].payload
            assert {first, second} == {"a", "b"}
            early_first += first == "a"
        # Both orders occur (independent exponentials), neither with
        # probability ~0 or ~1.
        assert 5 < early_first < 45

    def test_skips_a_stamped_envelope_removed_by_another_path(self):
        scheduler = ExponentialDelayScheduler()
        system = MessageSystem(2)
        scheduler.attach(system)
        for i in range(5):
            system.send(0, 1, f"m{i}")
        rng = random.Random(4)
        scheduler.choose(system, [0, 1], rng)  # stamps all five
        deadlines = dict(scheduler._deadlines)
        removed = system.take(1, 1)
        remaining = sorted(system.buffers[1], key=lambda env: deadlines[env.seq])
        delivered = []
        while (decision := scheduler.choose(system, [0, 1], rng)) is not None:
            delivered.append(decision[1])
        assert all(env is not removed for env in delivered)
        assert [env.seq for env in delivered] == [env.seq for env in remaining]

    def test_never_stamps_an_envelope_removed_before_its_turn(self):
        scheduler = ExponentialDelayScheduler()
        system = MessageSystem(2)
        scheduler.attach(system)
        for i in range(3):
            system.send(0, 1, f"m{i}")
        removed = system.take(1, 0)
        _pid, first = scheduler.choose(system, [0, 1], random.Random(4))
        assert first is not removed
        assert set(scheduler._deadlines) == {
            env.seq for env in system.buffers[1]
        }


class TestConsensusUnderVirtualTime:
    @pytest.mark.parametrize("seed", range(4))
    def test_failstop_consensus_converges(self, seed):
        processes = build_failstop_processes(7, 3, balanced_inputs(7))
        scheduler = ExponentialDelayScheduler(mean_delay=1.0)
        sim = Simulation(processes, scheduler=scheduler, seed=seed)
        result = sim.run(max_steps=500_000)
        result.check_agreement()
        assert result.all_correct_decided
        assert scheduler.now > 0

    def test_time_scales_with_mean_delay(self):
        """Doubling the mean message delay ~doubles time to consensus."""

        def time_to_decide(mean_delay, seed):
            processes = build_failstop_processes(5, 2, unanimous_inputs(5, 1))
            scheduler = ExponentialDelayScheduler(mean_delay=mean_delay)
            Simulation(processes, scheduler=scheduler, seed=seed).run(
                max_steps=300_000
            )
            return scheduler.now

        slow = sum(time_to_decide(2.0, s) for s in range(10))
        fast = sum(time_to_decide(1.0, s) for s in range(10))
        assert 1.4 < slow / fast < 2.8

    def test_time_per_phase_flat_in_n(self):
        """Expected *time* to consensus is O(phase count) × O(delay) —
        near-flat in n, the time-units restatement of Theorem 2's
        convergence behaviour."""
        times = {}
        for n in (5, 9, 13):
            k = (n - 1) // 2
            total = 0.0
            for seed in range(6):
                processes = build_failstop_processes(n, k, balanced_inputs(n))
                scheduler = ExponentialDelayScheduler()
                Simulation(processes, scheduler=scheduler, seed=seed).run(
                    max_steps=500_000
                )
                total += scheduler.now
            times[n] = total / 6
        assert times[13] < times[5] * 4
