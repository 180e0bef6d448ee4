"""Unit tests for the asynchronous message system (Section 2.1 model)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.net.schedulers import (
    FifoScheduler,
    RandomScheduler,
    ScheduleRecorder,
    ScriptedScheduler,
)
from repro.net.system import MessageSystem, deliverable_pairs


class TestMessageSystem:
    def test_send_places_in_recipient_buffer(self):
        system = MessageSystem(3)
        system.send(0, 2, "hello")
        assert len(system.buffers[2]) == 1
        assert len(system.buffers[0]) == 0
        assert len(system.buffers[1]) == 0

    def test_sender_is_authenticated(self):
        """The envelope's sender comes from the system, not the payload."""
        system = MessageSystem(3)
        envelope = system.send(1, 2, {"claims_to_be": 0})
        assert envelope.sender == 1

    def test_self_send_allowed(self):
        system = MessageSystem(2)
        system.send(0, 0, "note to self")
        assert len(system.buffers[0]) == 1

    def test_counters(self):
        system = MessageSystem(3)
        for recipient in range(3):
            system.send(0, recipient, "x")
        assert system.messages_sent == 3
        assert system.messages_delivered == 0
        system.take(1, 0)
        assert system.messages_delivered == 1

    def test_pending_total(self):
        system = MessageSystem(3)
        for recipient in range(3):
            system.send(0, recipient, "x")
        system.send(1, 2, "y")
        assert system.pending == 4

    def test_invalid_pids_rejected(self):
        system = MessageSystem(2)
        with pytest.raises(ConfigurationError):
            system.send(0, 2, "x")
        with pytest.raises(ConfigurationError):
            system.send(-1, 0, "x")

    def test_needs_at_least_one_process(self):
        with pytest.raises(ConfigurationError):
            MessageSystem(0)

    def test_snapshot_reflects_buffers(self):
        system = MessageSystem(2)
        system.send(0, 1, "a")
        snapshot = system.snapshot()
        assert len(snapshot[1]) == 1
        assert snapshot[1][0].payload == "a"
        assert snapshot[0] == ()

    def test_reliability_messages_never_lost(self):
        """Anything sent stays buffered until explicitly taken."""
        system = MessageSystem(2)
        for i in range(100):
            system.send(0, 1, i)
        assert len(system.buffers[1]) == 100

    def test_deliverable_pairs_respects_alive_set(self):
        system = MessageSystem(3)
        system.send(0, 1, "x")
        system.send(0, 2, "y")
        assert deliverable_pairs(system, alive=[1]) == [1]
        assert deliverable_pairs(system, alive=[1, 2]) == [1, 2]
        assert deliverable_pairs(system, alive=[]) == []


# One store operation: (name, buffer, sender or list position, rank).
# "random", "fifo" and "scripted" are the schedulers' picks from one
# buffer, each behind a ScheduleRecorder so its rank count is checked too.
_OPS = st.tuples(
    st.sampled_from(["send", "take", "random", "fifo", "scripted"]),
    st.integers(0, 2),
    st.integers(0, 40),
    st.integers(0, 3),
)


def _swap_pop(model: list, position: int):
    envelope = model[position]
    last = model.pop()
    if position < len(model):
        model[position] = last
    return envelope


class _Log:
    """Observer recording every hook call in order."""

    def __init__(self) -> None:
        self.calls: list = []

    def on_put(self, pid, envelope) -> None:
        self.calls.append(("put", pid, envelope))

    def on_removed(self, pid, envelope) -> None:
        self.calls.append(("removed", pid, envelope))


class TestStoreModel:
    """Under any interleaving each buffer is exactly a swap-pop list."""

    @settings(max_examples=300, deadline=None)
    @given(ops=st.lists(_OPS, max_size=60), seed=st.integers(0, 2**16))
    def test_matches_a_plain_list_model(self, ops, seed):
        system = MessageSystem(3)
        log = _Log()
        system.register_observer(log)
        models: list[list] = [[], [], []]  # the buffers, swap-pop and all
        expected: list = []  # the hook calls that should have happened
        rng, mirror = random.Random(seed), random.Random(seed)
        for name, pid, arg, rank in ops:
            model = models[pid]
            sender = arg % 3
            taken = None
            if name == "send":
                envelope = system.send(sender, pid, arg)
                model.append(envelope)
                expected.append(("put", pid, envelope))
            elif name == "take":
                if model:
                    position = arg % len(model)
                    taken = _swap_pop(model, position)
                    assert system.take(pid, position) is taken
            else:
                if name == "random":
                    inner = RandomScheduler()
                    if model:
                        mirror.random()  # the weighted pick of pid
                        taken = _swap_pop(model, mirror.randrange(len(model)))
                elif name == "fifo":
                    inner = FifoScheduler()
                    if model:
                        oldest = min(range(len(model)), key=lambda i: model[i].seq)
                        taken = _swap_pop(model, oldest)
                else:
                    inner = ScriptedScheduler([(pid, sender, rank)])
                    matches = sorted(
                        (e.seq, i) for i, e in enumerate(model) if e.sender == sender
                    )
                    if rank < len(matches):
                        taken = _swap_pop(model, matches[rank][1])
                recorder = ScheduleRecorder(inner)
                decision = recorder.choose(system, [pid], rng)
                if taken is None:
                    assert decision is None
                else:
                    assert decision[0] == pid and decision[1] is taken
                    older = sum(
                        1
                        for e in model
                        if e.sender == taken.sender and e.seq < taken.seq
                    )
                    assert recorder.recorded == [(pid, taken.sender, older)]
            if taken is not None:
                expected.append(("removed", pid, taken))
            assert system.buffers == models
            assert system.pending == sum(len(m) for m in models)
            assert system.with_mail == {p for p, m in enumerate(models) if m}
            puts = sum(1 for call in expected if call[0] == "put")
            assert system.messages_sent == puts
            assert system.messages_delivered == len(expected) - puts
            assert log.calls == expected
