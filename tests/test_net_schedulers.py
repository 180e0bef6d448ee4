"""Unit tests for the delivery schedulers."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.net import schedulers
from repro.net.schedulers import (
    BalancingDelayScheduler,
    ExponentialDelayScheduler,
    FifoScheduler,
    FilteredRandomScheduler,
    RandomScheduler,
    ScriptedScheduler,
)
from repro.net.system import MessageSystem


def _loaded_system(n: int = 3) -> MessageSystem:
    system = MessageSystem(n)
    for sender in range(n):
        for recipient in range(n):
            system.send(sender, recipient, f"{sender}->{recipient}")
    return system


class TestRandomScheduler:
    def test_returns_none_when_all_buffers_empty(self):
        scheduler = RandomScheduler()
        system = MessageSystem(3)
        assert scheduler.choose(system, [0, 1, 2], random.Random(0)) is None

    def test_only_schedules_alive_processes(self):
        scheduler = RandomScheduler()
        system = MessageSystem(3)
        system.send(0, 1, "x")
        system.send(0, 2, "y")
        for _ in range(20):
            pid, env = scheduler.choose(system, [1], random.Random(0))
            assert pid == 1
            system.send(env.sender, pid, env.payload)  # back for the next round

    def test_delivery_removes_from_buffer(self):
        scheduler = RandomScheduler()
        system = _loaded_system()
        before = system.pending
        decision = scheduler.choose(system, [0, 1, 2], random.Random(1))
        assert decision is not None
        assert system.pending == before - 1

    def test_phi_probability_yields_phi_steps(self):
        scheduler = RandomScheduler(phi_probability=0.999)
        system = _loaded_system()
        pid, env = scheduler.choose(system, [0, 1, 2], random.Random(3))
        assert env is None

    def test_invalid_phi_probability(self):
        with pytest.raises(ConfigurationError):
            RandomScheduler(phi_probability=1.0)

    def test_uniform_over_envelopes_covers_all(self):
        """Every pending envelope has positive probability (fair views)."""
        scheduler = RandomScheduler()
        rng = random.Random(5)
        seen = set()
        for _ in range(400):
            system = MessageSystem(2)
            system.send(0, 1, "a")
            system.send(1, 1, "b")
            system.send(0, 0, "c")
            pid, env = scheduler.choose(system, [0, 1], rng)
            seen.add(env.payload)
        assert seen == {"a", "b", "c"}


class TestFifoScheduler:
    def test_deterministic_round_robin(self):
        system = MessageSystem(2)
        system.send(0, 1, "first")
        system.send(0, 1, "second")
        system.send(1, 0, "third")
        scheduler = FifoScheduler()
        rng = random.Random(0)
        picks = [scheduler.choose(system, [0, 1], rng) for _ in range(3)]
        # Cursor starts at pid 0, which holds "third"; then pid 1's mail
        # drains oldest-first.
        assert [p[1].payload for p in picks] == ["third", "first", "second"]

    def test_reset_restores_cursor(self):
        scheduler = FifoScheduler()
        system = MessageSystem(2)
        system.send(1, 0, "a")
        scheduler.choose(system, [0, 1], random.Random(0))
        scheduler.reset()
        assert scheduler._cursor == 0


def _within(group):
    return lambda env: env.sender in group and env.recipient in group


class TestPartitionScheduler:
    """A partition is FilteredRandomScheduler with a within-group predicate."""

    def test_delivers_only_within_active_group(self):
        system = _loaded_system(4)
        scheduler = FilteredRandomScheduler(_within({0, 1}))
        rng = random.Random(0)
        for _ in range(8):
            decision = scheduler.choose(system, [0, 1, 2, 3], rng)
            if decision is None:
                break
            pid, env = decision
            assert pid in {0, 1}
            assert env.sender in {0, 1}

    def test_quiescent_when_no_intragroup_traffic(self):
        system = MessageSystem(4)
        system.send(0, 2, "cross")  # crosses the partition
        scheduler = FilteredRandomScheduler(_within({0, 1}))
        assert scheduler.choose(system, [0, 1, 2, 3], random.Random(0)) is None

    def test_reassigning_predicate_switches_group(self):
        system = _loaded_system(4)
        scheduler = FilteredRandomScheduler(_within({0, 1}))
        rng = random.Random(0)
        scheduler.choose(system, [0, 1, 2, 3], rng)  # attaches to system
        scheduler.predicate = _within({2, 3})
        for _ in range(4):
            pid, env = scheduler.choose(system, [0, 1, 2, 3], rng)
            assert pid in {2, 3}
            assert env.sender in {2, 3}
        assert scheduler.choose(system, [0, 1, 2, 3], rng) is None


class TestFilteredRandomScheduler:
    def test_predicate_limits_deliveries(self):
        system = _loaded_system(3)
        scheduler = FilteredRandomScheduler(lambda env: env.sender == 2)
        rng = random.Random(0)
        for _ in range(3):
            pid, env = scheduler.choose(system, [0, 1, 2], rng)
            assert env.sender == 2
        assert scheduler.choose(system, [0, 1, 2], rng) is None

    def test_predicate_is_mutable(self):
        system = _loaded_system(2)
        scheduler = FilteredRandomScheduler(lambda env: False)
        assert scheduler.choose(system, [0, 1], random.Random(0)) is None
        scheduler.predicate = lambda env: True
        assert scheduler.choose(system, [0, 1], random.Random(0)) is not None


class TestScriptedScheduler:
    def test_replays_script_in_order(self):
        system = MessageSystem(3)
        system.send(1, 0, "from1")
        system.send(2, 0, "from2")
        scheduler = ScriptedScheduler([(0, 2), (0, 1)])
        rng = random.Random(0)
        first = scheduler.choose(system, [0, 1, 2], rng)
        second = scheduler.choose(system, [0, 1, 2], rng)
        assert first[1].payload == "from2"
        assert second[1].payload == "from1"
        assert scheduler.exhausted

    def test_oldest_from_sender_first(self):
        system = MessageSystem(2)
        system.send(1, 0, "old")
        system.send(1, 0, "new")
        scheduler = ScriptedScheduler([(0, 1), (0, 1)])
        rng = random.Random(0)
        assert scheduler.choose(system, [0, 1], rng)[1].payload == "old"
        assert scheduler.choose(system, [0, 1], rng)[1].payload == "new"

    def test_impossible_entries_skipped(self):
        system = MessageSystem(2)
        system.send(1, 0, "only")
        scheduler = ScriptedScheduler([(0, 0), (1, 0), (0, 1)])
        pid, env = scheduler.choose(system, [0, 1], random.Random(0))
        assert env.payload == "only"

    def test_falls_back_when_exhausted(self):
        system = MessageSystem(2)
        system.send(1, 0, "a")
        system.send(0, 1, "b")
        scheduler = ScriptedScheduler([(0, 1)], fallback=RandomScheduler())
        rng = random.Random(0)
        scheduler.choose(system, [0, 1], rng)
        decision = scheduler.choose(system, [0, 1], rng)
        assert decision is not None
        assert decision[1].payload == "b"

    def test_quiescent_without_fallback(self):
        system = MessageSystem(2)
        system.send(1, 0, "a")
        scheduler = ScriptedScheduler([])
        assert scheduler.choose(system, [0, 1], random.Random(0)) is None

    @pytest.mark.parametrize(
        "entry",
        [
            (1, 0, -1),  # negative rank
            (1, 0, 1.0),  # rank not an int
            (1, 0, True),  # a bool is not a rank
            (1, None, 2),  # φ step with a rank
            (1,),  # too short
            (1, 0, 0, 0),  # too long
            7,  # not a sequence
        ],
    )
    def test_malformed_entry_rejected_at_construction(self, entry):
        with pytest.raises(ConfigurationError):
            ScriptedScheduler([(0, 1), entry])

    @pytest.mark.parametrize("entry", [(2, 0), (-1, 0), (0, 2), (0, "1"), ("0", None)])
    def test_pid_outside_the_system_rejected_at_attach(self, entry):
        scheduler = ScriptedScheduler([(0, 1), entry])
        with pytest.raises(ConfigurationError):
            scheduler.attach(MessageSystem(2))

    def test_entries_as_lists_and_phi_steps_accepted(self):
        system = MessageSystem(2)
        system.send(1, 0, "a")
        scheduler = ScriptedScheduler([[0, None], (0, None, 0), [0, 1, 0]])
        scheduler.attach(system)
        rng = random.Random(0)
        assert scheduler.choose(system, [0, 1], rng) == (0, None)
        assert scheduler.choose(system, [0, 1], rng) == (0, None)
        assert scheduler.choose(system, [0, 1], rng)[1].payload == "a"


class TestBalancingDelayScheduler:
    def test_prefers_underrepresented_value(self):
        from repro.core.messages import SimpleMessage

        system = MessageSystem(2)
        # Recipient 0 has already received three 0s via the scheduler.
        scheduler = BalancingDelayScheduler()
        rng = random.Random(0)
        for _ in range(3):
            system.send(1, 0, SimpleMessage(phaseno=0, value=0))
            scheduler.choose(system, [0, 1], rng)
        system.send(1, 0, SimpleMessage(phaseno=0, value=0))
        system.send(1, 0, SimpleMessage(phaseno=0, value=1))
        pid, env = scheduler.choose(system, [0, 1], rng)
        assert env.payload.value == 1

    def test_handles_payloads_without_value(self):
        scheduler = BalancingDelayScheduler()
        system = MessageSystem(2)
        system.send(0, 1, "opaque")
        decision = scheduler.choose(system, [0, 1], random.Random(0))
        assert decision is not None


class TestExponentialDelayScheduler:
    def test_unschedulable_recipient_is_parked_not_repushed(self, monkeypatch):
        system = MessageSystem(3)
        for i in range(5):
            system.send(2, 0, f"to0-{i}")
        for i in range(30):
            system.send(2, 1, f"to1-{i}")
        scheduler = ExponentialDelayScheduler()
        rng = random.Random(7)
        scheduler.choose(system, [0, 1, 2], rng)  # stamps all 35
        waiting = {env.seq for env in system.buffers[0]}
        pushes = []
        real_push = schedulers.heappush

        def counting_push(heap, item):
            pushes.append(item)
            real_push(heap, item)

        monkeypatch.setattr(schedulers, "heappush", counting_push)
        # pid 0 crashes: its stamped mail must leave the heap once, not
        # be popped and re-pushed on every one of pid 1's steps.
        steps = 0
        while scheduler.choose(system, [1, 2], rng) is not None:
            steps += 1
        assert steps >= 29
        assert [item for item in pushes if item[2] == 0] == []
        # Back among the candidates, its parked entries return, each once.
        pid, env = scheduler.choose(system, [0, 1, 2], rng)
        assert pid == 0 and env.seq in waiting
        returned = [item[1] for item in pushes if item[2] == 0]
        assert returned and len(returned) == len(set(returned))
        assert set(returned) <= waiting
