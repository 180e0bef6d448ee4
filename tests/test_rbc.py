"""Tests for Bracha reliable broadcast (the Figure 2 lineage extension)."""

import pytest

from repro.broadcast.rbc import (
    EquivocatingBroadcaster,
    RbcEcho,
    RbcReady,
    RbcSend,
    ReliableBroadcast,
    ReliableBroadcastProcess,
)
from repro.errors import ConfigurationError
from repro.net.message import Envelope
from repro.sim.kernel import Simulation


def _build(n, t, broadcaster=0, value=1, byzantine_broadcaster=False):
    processes = []
    for pid in range(n):
        if pid == broadcaster and byzantine_broadcaster:
            processes.append(EquivocatingBroadcaster(pid, n))
        else:
            processes.append(
                ReliableBroadcastProcess(pid, n, t, broadcaster, value)
            )
    return processes


def _delivered(sim):
    return {
        p.pid: p.delivered
        for p in sim.processes
        if getattr(p, "has_delivered", False)
    }


def _run(processes, seed=0):
    sim = Simulation(
        processes,
        seed=seed,
        halt_when=lambda s: all(
            p.has_delivered for p in s.processes
            if p.is_correct and isinstance(p, ReliableBroadcastProcess)
        ),
    )
    result = sim.run(max_steps=1_000_000)
    return sim, result


class TestParameters:
    def test_needs_n_greater_than_3t(self):
        with pytest.raises(ConfigurationError):
            ReliableBroadcastProcess(0, 6, 2, 0, 1)
        ReliableBroadcastProcess(0, 7, 2, 0, 1)

    def test_broadcaster_in_range(self):
        with pytest.raises(ConfigurationError):
            ReliableBroadcastProcess(0, 4, 1, 9, 1)

    def test_unhashable_value_rejected(self):
        """RBC values are hashable: the engine counts senders per value."""
        with pytest.raises(ConfigurationError, match="unhashable"):
            ReliableBroadcastProcess(0, 4, 1, 0, ["x"])


class TestHonestBroadcaster:
    @pytest.mark.parametrize("seed", range(5))
    def test_validity_all_deliver_broadcast_value(self, seed):
        sim, result = _run(_build(4, 1, value=1), seed=seed)
        delivered = _delivered(sim)
        assert set(delivered) == {0, 1, 2, 3}
        assert set(delivered.values()) == {1}

    def test_arbitrary_payloads_supported(self):
        sim, _ = _run(_build(4, 1, value="not-binary"))
        assert set(_delivered(sim).values()) == {"not-binary"}

    def test_only_broadcaster_opens(self):
        processes = _build(4, 1, broadcaster=2, value=0)
        assert processes[0].start() == []
        sends = processes[2].start()
        assert len(sends) == 4
        assert all(isinstance(s.payload, RbcSend) for s in sends)

    def test_send_from_non_broadcaster_ignored(self):
        process = ReliableBroadcastProcess(1, 4, 1, 0, None)
        out = process.step(
            Envelope(sender=3, recipient=1, payload=RbcSend("forged"))
        )
        assert out == []

    def test_tagged_messages_ignored(self):
        """The single-shot broadcast is the instance tagged ``None``; a
        second instance would let a Byzantine broadcaster split delivery."""
        process = ReliableBroadcastProcess(1, 4, 1, 0, None)
        for sender in range(3):
            out = process.step(
                Envelope(sender=sender, recipient=1, payload=RbcReady("v", "x"))
            )
            assert out == []
        assert not process.has_delivered


    @pytest.mark.parametrize("kind", [RbcSend, RbcEcho, RbcReady])
    def test_unhashable_value_dropped(self, kind):
        """A Byzantine message carrying an unhashable value is dropped,
        not counted (and never raises out of a correct process's step)."""
        process = ReliableBroadcastProcess(1, 4, 1, 0, None)
        for sender in range(4):
            out = process.step(
                Envelope(sender=sender, recipient=1, payload=kind(["x"]))
            )
            assert out == []
        assert not process.has_delivered


class TestQuorumMachinery:
    def test_echo_quorum_triggers_ready(self):
        n, t = 4, 1
        process = ReliableBroadcastProcess(1, n, t, 0, None)
        sends = []
        for sender in range(process.echo_quorum):
            sends = process.step(
                Envelope(sender=sender, recipient=1, payload=RbcEcho("v"))
            )
        assert any(isinstance(s.payload, RbcReady) for s in sends)

    def test_ready_amplification(self):
        """t+1 readies make a correct process ready too (no echo quorum)."""
        n, t = 7, 2
        process = ReliableBroadcastProcess(1, n, t, 0, None)
        sends = []
        for sender in range(t + 1):
            sends = process.step(
                Envelope(sender=sender, recipient=1, payload=RbcReady("v"))
            )
        assert any(isinstance(s.payload, RbcReady) for s in sends)

    def test_delivery_needs_2t_plus_1_readies(self):
        n, t = 7, 2
        process = ReliableBroadcastProcess(1, n, t, 0, None)
        for sender in range(2 * t):
            process.step(
                Envelope(sender=sender, recipient=1, payload=RbcReady("v"))
            )
        assert not process.has_delivered
        process.step(Envelope(sender=2 * t, recipient=1, payload=RbcReady("v")))
        assert process.has_delivered
        assert process.delivered == "v"

    def test_duplicate_senders_not_double_counted(self):
        process = ReliableBroadcastProcess(1, 7, 2, 0, None)
        for _ in range(10):
            process.step(Envelope(sender=3, recipient=1, payload=RbcReady("v")))
        assert not process.has_delivered


class TestKeyedEngine:
    """``ReliableBroadcast`` driven directly: instances keyed by tag."""

    @staticmethod
    def _feed(engine, message, senders):
        """Deliver ``message`` from each sender; return (sends, delivered?)."""
        sends, delivered = [], False
        for sender in senders:
            delivered |= engine.receive(sender, message, sends)
        return sends, delivered

    def test_rejects_n_at_most_3t(self):
        with pytest.raises(ConfigurationError):
            ReliableBroadcast(6, 2)

    def test_two_tags_from_one_origin_deliver_independently(self):
        engine = ReliableBroadcast(4, 1)
        tag_a, tag_b = (0, 0, 1), (0, 0, 2)
        sends, delivered = self._feed(engine, RbcReady("v", tag_a), range(3))
        assert delivered
        assert {s.payload for s in sends} == {RbcReady("v", tag_a)}
        assert engine.delivered == {tag_a: "v"}
        sends, delivered = self._feed(engine, RbcReady("v", tag_b), range(2))
        assert not delivered  # tag_a's readies do not count for tag_b
        assert self._feed(engine, RbcReady("v", tag_b), [2])[1]
        assert {s.payload for s in sends} == {RbcReady("v", tag_b)}
        assert engine.delivered == {tag_a: "v", tag_b: "v"}

    def test_second_different_send_for_a_tag_is_not_echoed(self):
        engine = ReliableBroadcast(4, 1)
        first, _ = self._feed(engine, RbcSend("x", "tag"), [0])
        assert [s.payload for s in first] == [RbcEcho("x", "tag")] * 4
        second, _ = self._feed(engine, RbcSend("y", "tag"), [0])
        assert second == []
        other, _ = self._feed(engine, RbcSend("y", "other"), [0])
        assert [s.payload for s in other] == [RbcEcho("y", "other")] * 4

    def test_values_of_one_tag_never_pool(self):
        engine = ReliableBroadcast(7, 2)  # echo quorum 5, ready 3 / 5
        sends, _ = self._feed(engine, RbcEcho("a", "tag"), range(4))
        sends += self._feed(engine, RbcEcho("b", "tag"), range(4, 7))[0]
        assert sends == []  # 7 echoes, but no value has 5
        sends, delivered = self._feed(engine, RbcReady("a", "tag"), range(2))
        more, also = self._feed(engine, RbcReady("b", "tag"), range(2, 5))
        assert not (delivered or also)  # 5 readies, but no value has 5
        assert [s.payload for s in sends + more] == [RbcReady("b", "tag")] * 7
        assert engine.delivered == {}


class TestLopsidedEquivocator:
    def test_lopsided_lie_delivers_one_value_to_all(self):
        """A 6/1 split lets one camp's value reach quorum; totality then
        carries it to every correct process."""
        n, t = 7, 2
        processes: list = [EquivocatingBroadcaster(0, n, split_at=6)]
        processes += [
            ReliableBroadcastProcess(pid, n, t, broadcaster=0)
            for pid in range(1, n)
        ]
        sim = Simulation(processes, seed=3, halt_when=lambda s: False)
        sim.run(max_steps=500_000)
        delivered = _delivered(sim)
        assert len(delivered) == n - 1
        assert set(delivered.values()) == {0}  # value_low went to 6 of 7


class TestByzantineBroadcaster:
    @pytest.mark.parametrize("seed", range(10))
    def test_no_split_delivery_ever(self, seed):
        """Agreement: deliveries, if any, are identical across processes."""
        processes = _build(7, 2, byzantine_broadcaster=True)
        sim = Simulation(processes, seed=seed)
        sim.run(max_steps=500_000)
        delivered_values = set(_delivered(sim).values())
        assert len(delivered_values) <= 1

    @pytest.mark.parametrize("seed", range(10))
    def test_totality(self, seed):
        """If any correct process delivered, all correct did."""
        processes = _build(7, 2, byzantine_broadcaster=True)
        sim = Simulation(
            processes,
            seed=seed,
            halt_when=lambda s: False,  # run to quiescence
        )
        sim.run(max_steps=500_000)
        delivered = _delivered(sim)
        if delivered:
            correct = {
                p.pid for p in processes
                if isinstance(p, ReliableBroadcastProcess)
            }
            assert set(delivered) == correct
