"""Unit tests for the per-process message buffer."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# One buffer operation: (name, sender or list position, rank).
_OPS = st.tuples(
    st.sampled_from(
        [
            "put",
            "take_at",
            "take_random",
            "take_oldest",
            "take_nth_oldest_from",
        ]
    ),
    st.integers(0, 40),
    st.integers(0, 3),
)


def _swap_pop(model: list, position: int):
    envelope = model[position]
    last = model.pop()
    if position < len(model):
        model[position] = last
    return envelope


class TestLazyPositionIndex:
    """Under any interleaving the buffer is exactly a swap-pop list."""

    @settings(max_examples=300, deadline=None)
    @given(ops=st.lists(_OPS, max_size=60), seed=st.integers(0, 2**16))
    def test_matches_a_plain_list_model(self, ops, seed):
        buffer = MessageBuffer()
        model: list[Envelope] = []  # the buffer's list, swap-pop and all
        sent: list[Envelope] = []
        rng, mirror = random.Random(seed), random.Random(seed)
        for name, arg, rank in ops:
            sender = arg % 3
            if name == "put":
                env = _env(len(sent), sender=sender)
                sent.append(env)
                buffer.put(env)
                model.append(env)
            elif name == "take_nth_oldest_from":
                got = buffer.take_nth_oldest_from(sender, rank)
                matches = sorted(
                    (e.seq, i) for i, e in enumerate(model) if e.sender == sender
                )
                if rank < len(matches):
                    assert got is _swap_pop(model, matches[rank][1])
                else:
                    assert got is None
            elif not model:
                continue
            elif name == "take_at":
                assert buffer.take_at(arg % len(model)) is _swap_pop(
                    model, arg % len(model)
                )
            elif name == "take_random":
                got = buffer.take_random(rng)
                assert got is _swap_pop(model, mirror.randrange(len(model)))
            else:  # take_oldest
                oldest = min(range(len(model)), key=lambda i: model[i].seq)
                assert buffer.take_oldest() is _swap_pop(model, oldest)
            snapshot = buffer.peek_all()
            assert len(snapshot) == len(model)
            assert all(a is b for a, b in zip(snapshot, model))
