"""Tests for Bracha-style asynchronous Byzantine agreement (the sequel)."""

import pytest

from repro.broadcast.agreement import BrachaAgreementProcess
from repro.broadcast.rbc import RbcReady
from repro.errors import ConfigurationError, InvariantViolation
from repro.faults.byzantine import SilentByzantine
from repro.harness.workloads import balanced_inputs, unanimous_inputs
from repro.net.message import Envelope
from repro.procs.base import Send
from repro.sim.kernel import Simulation


class LyingAgreementByzantine(BrachaAgreementProcess):
    """Runs the honest machinery but reliably broadcasts the opposite
    value every step, and D-marks every step-3 message with a *fake*
    justification (n−t real origins that do not actually support the
    lie) — the strongest grammar-respecting attack available without
    equivocation (which the RBC layer forecloses) and without a real
    quorum (which validation demands)."""

    is_correct = False

    def _rbc_broadcast(self, value, marked, justifiers=None):
        from repro.broadcast.rbc import RbcSend

        tag = (self.pid, self.round, self.round_step)
        lie = 1 - value
        fake_justifiers = (
            frozenset(range(self.n - self.t)) if self.round_step == 3 else None
        )
        content = (lie, self.round_step == 3, fake_justifiers)
        return self._broadcast(RbcSend(content, tag))


def _build(n, t, inputs, byzantine=()):
    processes = []
    for pid in range(n):
        if pid in byzantine:
            processes.append(LyingAgreementByzantine(pid, n, t, inputs[pid]))
        else:
            processes.append(BrachaAgreementProcess(pid, n, t, inputs[pid]))
    return processes


def _run(n, t, inputs, byzantine=(), seed=0, max_steps=5_000_000):
    processes = _build(n, t, inputs, byzantine)
    result = Simulation(processes, seed=seed).run(max_steps=max_steps)
    return processes, result


class TestConstruction:
    def test_needs_n_over_3t(self):
        with pytest.raises(ConfigurationError):
            BrachaAgreementProcess(0, 6, 2, 0)
        BrachaAgreementProcess(0, 7, 2, 0)

    def test_input_domain(self):
        with pytest.raises(InvariantViolation):
            BrachaAgreementProcess(0, 4, 1, 2)

    def test_start_opens_round0_step1(self):
        process = BrachaAgreementProcess(1, 4, 1, 1)
        sends = process.start()
        assert len(sends) == 4
        payload = sends[0].payload
        assert payload.tag == (1, 0, 1)
        assert payload.value == (1, False, None)


class TestNoFaults:
    @pytest.mark.parametrize("seed", range(4))
    def test_agreement_and_termination(self, seed):
        _, result = _run(4, 1, balanced_inputs(4), seed=seed)
        result.check_agreement()
        assert result.all_correct_decided

    @pytest.mark.parametrize("value", [0, 1])
    def test_validity(self, value):
        _, result = _run(4, 1, unanimous_inputs(4, value), seed=1)
        assert result.consensus_value == value

    def test_unanimity_decides_in_first_round(self):
        processes, result = _run(4, 1, unanimous_inputs(4, 1), seed=2)
        assert max(result.phases_to_decide()) == 0  # decided in round 0


class TestByzantineResistance:
    @pytest.mark.parametrize("seed", range(3))
    def test_t_silent(self, seed):
        n, t = 7, 2
        inputs = balanced_inputs(n)
        processes = [
            SilentByzantine(pid, n, inputs[pid]) if pid >= n - t
            else BrachaAgreementProcess(pid, n, t, inputs[pid])
            for pid in range(n)
        ]
        result = Simulation(processes, seed=seed).run(max_steps=5_000_000)
        result.check_agreement()
        assert result.all_correct_decided

    @pytest.mark.parametrize("seed", range(3))
    def test_t_liars_at_the_optimal_bound(self, seed):
        """n = 3t + 1: the bound [BenO83] could not reach (n > 5t) and
        Bracha's RBC-composed rounds do — with the full t lying."""
        n, t = 7, 2
        _, result = _run(n, t, balanced_inputs(n), byzantine=(5, 6), seed=seed)
        result.check_agreement()
        assert result.all_correct_decided

    def test_liars_cannot_flip_unanimous_correct(self):
        n, t = 7, 2
        _, result = _run(n, t, unanimous_inputs(n, 1), byzantine=(5, 6), seed=4)
        for value in result.correct_decisions.values():
            assert value == 1

    def test_no_equivocation_within_broadcast(self):
        """The RBC layer: a lying origin still cannot get two correct
        processes to record different values for one tag."""
        n, t = 4, 1
        recorded: dict = {}
        deliverers: set = set()

        class Recorder(BrachaAgreementProcess):
            def _on_rbc_delivery(self, tag, content, sends):
                recorded.setdefault(tag, set()).add(content)
                deliverers.add(self.pid)
                super()._on_rbc_delivery(tag, content, sends)

        inputs = balanced_inputs(n)
        processes = [Recorder(pid, n, t, inputs[pid]) for pid in range(3)]
        processes.append(LyingAgreementByzantine(3, n, t, inputs[3]))
        result = Simulation(processes, seed=7).run(max_steps=5_000_000)
        result.check_agreement()
        assert recorded
        assert deliverers == {0, 1, 2}
        for tag, variants in recorded.items():
            assert len(variants) == 1, f"tag {tag} delivered {variants}"

    @pytest.mark.parametrize(
        "payload",
        [
            RbcReady((1, False, "abc"), (3, 0, 2)),
            RbcReady((1, [True], None), (3, 0, 1)),
            RbcReady((1, False, None), (3, [0], 1)),
            RbcReady((2, False, None), (3, 0, 1)),
            RbcReady(1, (3, 0, 1)),
            RbcReady((1, False, None)),
        ],
        ids=["str-justifiers", "list-mark", "list-in-tag", "value-2",
             "bare-value", "no-tag"],
    )
    def test_ill_formed_messages_are_dropped(self, payload):
        """A Byzantine sender's malformed fields never reach the engine
        or the verdicts (unhashable ones used to raise there)."""
        process = BrachaAgreementProcess(1, 4, 1, 0)
        for sender in (0, 2, 3):
            envelope = Envelope(sender=sender, recipient=1, payload=payload)
            assert process.step(envelope) == []
        assert process.rbc.delivered == {}
