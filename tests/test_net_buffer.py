"""Unit tests for the per-process message buffer."""

import random

import pytest

from repro.net.buffer import MessageBuffer
from repro.net.message import Envelope


def _env(seq: int, sender: int = 0, recipient: int = 1, payload="m") -> Envelope:
    return Envelope(sender=sender, recipient=recipient, payload=payload, seq=seq)


class TestMessageBuffer:
    def test_starts_empty(self):
        buffer = MessageBuffer()
        assert len(buffer) == 0
        assert not buffer

    def test_put_and_len(self):
        buffer = MessageBuffer()
        for i in range(5):
            buffer.put(_env(i))
        assert len(buffer) == 5
        assert buffer

    def test_take_random_removes_exactly_one(self):
        buffer = MessageBuffer()
        envelopes = [_env(i) for i in range(10)]
        for env in envelopes:
            buffer.put(env)
        taken = buffer.take_random(random.Random(1))
        assert taken in envelopes
        assert len(buffer) == 9
        assert taken not in buffer.peek_all()

    def test_take_random_empty_raises(self):
        with pytest.raises(IndexError):
            MessageBuffer().take_random(random.Random(0))

    def test_take_random_eventually_returns_every_element(self):
        rng = random.Random(7)
        seen = set()
        for _ in range(200):
            buffer = MessageBuffer()
            for i in range(4):
                buffer.put(_env(i))
            seen.add(buffer.take_random(rng).seq)
        assert seen == {0, 1, 2, 3}

    def test_take_oldest_is_min_seq(self):
        buffer = MessageBuffer()
        for seq in (5, 2, 9, 2, 7):
            buffer.put(_env(seq))
        assert buffer.take_oldest().seq == 2
        assert buffer.take_oldest().seq == 2
        assert buffer.take_oldest().seq == 5

    def test_take_oldest_empty_raises(self):
        with pytest.raises(IndexError):
            MessageBuffer().take_oldest()

    def test_take_at_swap_pop(self):
        buffer = MessageBuffer()
        for i in range(3):
            buffer.put(_env(i))
        taken = buffer.take_at(0)
        assert taken.seq == 0
        assert len(buffer) == 2
        assert {e.seq for e in buffer.peek_all()} == {1, 2}

    def test_peek_all_is_snapshot(self):
        buffer = MessageBuffer()
        buffer.put(_env(1))
        snapshot = buffer.peek_all()
        buffer.put(_env(2))
        assert len(snapshot) == 1

    def test_iteration_does_not_consume(self):
        buffer = MessageBuffer()
        buffer.put(_env(1))
        assert [e.seq for e in buffer] == [1]
        assert len(buffer) == 1
