"""Unit tests for one process's message buffer, ``MessageSystem.buffers[pid]``.

A buffer is a plain list that only :meth:`MessageSystem.send` and
:meth:`MessageSystem.take` change.  The picks from one buffer are
scheduler policy: the random take is :class:`RandomScheduler`'s draw and
the oldest take :class:`FifoScheduler`'s scan.  The list model of every
interleaving is ``tests/test_net_system.py::TestStoreModel``.
"""

import random

from repro.net.schedulers import FifoScheduler, RandomScheduler
from repro.net.system import MessageSystem


def _system(count: int) -> MessageSystem:
    """Two processes; ``count`` envelopes buffered for process 1."""
    system = MessageSystem(2)
    for i in range(count):
        system.send(0, 1, f"m{i}")
    return system


class TestMessageBuffer:
    def test_starts_empty(self):
        system = MessageSystem(2)
        assert system.buffers[1] == []
        assert system.pending == 0
        assert not system.with_mail

    def test_put_and_len(self):
        system = _system(5)
        assert len(system.buffers[1]) == 5
        assert system.with_mail == {1}

    def test_take_random_removes_exactly_one(self):
        system = _system(10)
        envelopes = list(system.buffers[1])
        pid, taken = RandomScheduler().choose(system, [0, 1], random.Random(1))
        assert pid == 1
        assert taken in envelopes
        assert len(system.buffers[1]) == 9
        assert taken not in system.buffers[1]

    def test_take_random_eventually_returns_every_element(self):
        rng = random.Random(7)
        seen = set()
        for _ in range(200):
            system = _system(4)
            seen.add(RandomScheduler().choose(system, [0, 1], rng)[1].payload)
        assert seen == {"m0", "m1", "m2", "m3"}

    def test_take_oldest_is_min_seq(self):
        system = _system(5)
        system.take(1, 0)  # swap-pop: the newest envelope now comes first
        order = [env.seq for env in system.buffers[1]]
        assert order != sorted(order)
        scheduler, rng = FifoScheduler(), random.Random(0)
        taken = [scheduler.choose(system, [1], rng)[1].seq for _ in order]
        assert taken == sorted(order)

    def test_take_at_swap_pop(self):
        system = _system(3)
        first, second, third = system.buffers[1]
        assert system.take(1, 0) is first
        assert system.buffers[1] == [third, second]

    def test_peek_all_is_snapshot(self):
        system = _system(1)
        snapshot = system.snapshot()
        system.send(0, 1, "later")
        assert len(snapshot[1]) == 1
