"""Unit tests for the Figure 2 protocol's step-level logic."""

import pytest

from repro.core.common import acceptance_threshold
from repro.core.malicious import MaliciousConsensus
from repro.core.messages import STAR, EchoMessage, InitialMessage
from repro.errors import ConfigurationError, InvariantViolation
from repro.net.message import Envelope
from repro.net.schedulers import FifoScheduler
from repro.sim.kernel import Simulation


def _initial(process, sender, origin, value, phaseno):
    return process.step(
        Envelope(
            sender=sender,
            recipient=process.pid,
            payload=InitialMessage(origin=origin, value=value, phaseno=phaseno),
        )
    )


def _echo(process, sender, origin, value, phaseno):
    return process.step(
        Envelope(
            sender=sender,
            recipient=process.pid,
            payload=EchoMessage(origin=origin, value=value, phaseno=phaseno),
        )
    )


class TestConstruction:
    def test_resilience_bound_enforced(self):
        with pytest.raises(ConfigurationError):
            MaliciousConsensus(0, 7, 3, 0)
        MaliciousConsensus(0, 7, 3, 0, allow_excessive_k=True)

    def test_start_broadcasts_initial(self):
        process = MaliciousConsensus(1, 4, 1, 1)
        sends = process.start()
        assert len(sends) == 4
        assert all(
            s.payload == InitialMessage(origin=1, value=1, phaseno=0)
            for s in sends
        )


class TestEchoing:
    def test_initial_triggers_echo_to_all(self):
        process = MaliciousConsensus(0, 4, 1, 0)
        process.start()
        sends = _initial(process, 2, 2, 1, 0)
        assert len(sends) == 4
        assert all(
            s.payload == EchoMessage(origin=2, value=1, phaseno=0) for s in sends
        )

    def test_duplicate_initial_not_reechoed(self):
        """First-receipt rule on (sender, initial, origin, phase)."""
        process = MaliciousConsensus(0, 4, 1, 0)
        process.start()
        assert len(_initial(process, 2, 2, 1, 0)) == 4
        assert _initial(process, 2, 2, 1, 0) == []

    def test_conflicting_initial_from_same_sender_ignored(self):
        """An equivocator cannot get the same receiver to echo both values."""
        process = MaliciousConsensus(0, 4, 1, 0)
        process.start()
        _initial(process, 2, 2, 1, 0)
        assert _initial(process, 2, 2, 0, 0) == []  # same key, dropped

    def test_forged_initial_dropped(self):
        """Section 3.1: sender identity is verified for initial messages."""
        process = MaliciousConsensus(0, 4, 1, 0)
        process.start()
        sends = _initial(process, 3, 2, 1, 0)  # sender 3 claims to be 2
        assert sends == []
        assert process.forged_initials_dropped == 1

    def test_initials_of_other_phases_still_echoed(self):
        """Figure 2's initial case has no phase guard."""
        process = MaliciousConsensus(0, 4, 1, 0)
        process.start()
        sends = _initial(process, 2, 2, 1, 5)
        assert len(sends) == 4
        assert sends[0].payload.phaseno == 5

    def test_malformed_values_ignored(self):
        process = MaliciousConsensus(0, 4, 1, 0)
        process.start()
        assert _initial(process, 2, 2, 7, 0) == []
        assert _echo(process, 2, 9, 1, 0) == []  # origin out of range


class TestAcceptance:
    def test_acceptance_at_quorum_exactly_once(self):
        n, k = 4, 1
        process = MaliciousConsensus(0, n, k, 0)
        process.start()
        quorum = acceptance_threshold(n, k)  # 3 for (4,1)
        for sender in range(quorum - 1):
            _echo(process, sender, 2, 1, 0)
        assert process.message_count == [0, 0]
        _echo(process, quorum - 1, 2, 1, 0)
        assert process.message_count == [0, 1]
        assert process.accepted_this_phase() == 1

    def test_duplicate_echoes_from_one_sender_count_once(self):
        process = MaliciousConsensus(0, 4, 1, 0)
        process.start()
        for _ in range(5):
            _echo(process, 1, 2, 1, 0)
        assert process.message_count == [0, 0]

    def test_echo_for_past_phase_dropped(self):
        process = MaliciousConsensus(0, 4, 1, 0)
        process.start()
        process.phaseno = 2
        _echo(process, 1, 2, 1, 0)
        assert process.message_count == [0, 0]

    def test_echo_for_future_phase_deferred(self):
        process = MaliciousConsensus(0, 4, 1, 0)
        process.start()
        _echo(process, 1, 2, 1, 3)
        assert process.message_count == [0, 0]
        assert len(process._deferred) == 1

    def test_double_acceptance_same_origin_raises_within_bound(self):
        process = MaliciousConsensus(0, 4, 1, 0)
        process.start()
        for sender in range(3):
            _echo(process, sender, 2, 1, 0)
        # A second quorum for the other value needs 3 echo senders; with
        # dedup by (sender, echo, origin, phase) the same senders cannot
        # echo value 0 for origin 2 too — simulate the impossible anyway
        # by reaching into the counter, asserting the guard trips.
        process._echo_count[(2, 0)] = acceptance_threshold(4, 1) - 1
        with pytest.raises(InvariantViolation):
            process._apply_echo(2, 0)


class TestPhaseAndDecision:
    def _accept_value_from(self, process, origin, value, phaseno=0):
        for sender in range(acceptance_threshold(process.n, process.k)):
            sends = _echo(process, sender, origin, value, phaseno)
        return sends

    def test_phase_completes_after_n_minus_k_acceptances(self):
        n, k = 4, 1
        process = MaliciousConsensus(0, n, k, 0)
        process.start()
        for origin in (1, 2):
            self._accept_value_from(process, origin, 1)
        assert process.phaseno == 0
        sends = self._accept_value_from(process, 3, 1)
        assert process.phaseno == 1
        assert process.value == 1
        # New phase opens with an initial broadcast.
        initials = [
            s for s in sends if isinstance(s.payload, InitialMessage)
        ]
        assert len(initials) == n
        assert initials[0].payload.phaseno == 1

    def test_decides_on_supermajority_of_acceptances(self):
        n, k = 4, 1
        process = MaliciousConsensus(0, n, k, 0)
        process.start()
        for origin in (1, 2, 3):
            self._accept_value_from(process, origin, 1)
        assert process.decided
        assert process.decision.value == 1
        assert process.decided_at_phase == 0

    def test_mixed_acceptances_update_value_without_decision(self):
        n, k = 4, 1
        process = MaliciousConsensus(0, n, k, 0)
        process.start()
        self._accept_value_from(process, 1, 1)
        self._accept_value_from(process, 2, 0)
        self._accept_value_from(process, 3, 1)
        assert process.phaseno == 1
        assert process.value == 1  # 2-1 majority
        assert not process.decided

    def test_exactly_threshold_does_not_decide(self):
        """Deciding needs *more than* (n+k)/2 acceptances."""
        n, k = 7, 2  # (n+k)/2 = 4.5 → decide at 5; n-k = 5 views
        process = MaliciousConsensus(0, n, k, 0)
        process.start()
        for origin in (1, 2, 3, 4):
            self._accept_value_from(process, origin, 1)
        self._accept_value_from(process, 5, 0)
        assert process.phaseno == 1
        assert not process.decided  # 4 < 5


class TestStarMessages:
    def test_star_echo_counts_in_every_phase(self):
        n, k = 4, 1
        process = MaliciousConsensus(0, n, k, 0)
        process.start()
        # Three deciders vouch value 1 for every origin via star echoes.
        for sender in (1, 2, 3):
            for origin in range(n):
                _echo(process, sender, origin, 1, STAR)
        # The credits alone re-assemble quorums phase after phase: the
        # process decides without any regular traffic.
        assert process.decided
        assert process.decision.value == 1

    def test_star_initial_is_echoed_as_star(self):
        process = MaliciousConsensus(0, 4, 1, 0)
        process.start()
        sends = _initial(process, 2, 2, 1, STAR)
        assert len(sends) == 4
        assert sends[0].payload.phaseno is STAR

    def test_star_credit_deduplicated(self):
        process = MaliciousConsensus(0, 4, 1, 0)
        process.start()
        _echo(process, 1, 2, 1, STAR)
        count_after_first = process._echo_count[(2, 1)]
        _echo(process, 1, 2, 1, STAR)
        assert process._echo_count[(2, 1)] == count_after_first


def _retained_echo_receipts(process):
    return sum(len(receipts) for receipts in process._echoes_seen.values())


def _drive_pair_to_phase(target):
    """Two n=2, k=0 cores exchanging every message, oldest first; also
    returns the most echo receipts either held after any step."""
    pair = [MaliciousConsensus(pid, 2, 0, pid) for pid in range(2)]
    peak = [0]

    def reached(sim):
        peak[0] = max(peak[0], *map(_retained_echo_receipts, pair))
        return min(p.phaseno for p in pair) >= target

    Simulation(pair, FifoScheduler()).run(halt_when=reached)
    return pair, peak[0]


class TestReceipts:
    """First-receipt bookkeeping: echo receipts live per open phase,
    initial receipts for good (a stale initial is still echoed, once)."""

    @pytest.mark.parametrize("phases", [50, 200])
    def test_retained_echo_receipts_do_not_grow_with_phases(self, phases):
        pair, peak = _drive_pair_to_phase(phases)
        # At most the current phase and the one the peer is ahead by.
        assert 0 < peak <= 2 * 2 * 2
        for process in pair:
            assert all(t >= process.phaseno for t in process._echoes_seen)
            assert len(process._initials_seen) >= phases

    def test_duplicate_same_phase_echo_ignored(self):
        process = MaliciousConsensus(0, 4, 1, 0)
        process.start()
        _echo(process, 1, 2, 1, 0)
        _echo(process, 1, 2, 0, 0)  # same (sender, origin, phase)
        assert process._echo_count[(2, 1)] == 1
        assert process._echo_count[(2, 0)] == 0
        assert _retained_echo_receipts(process) == 1

    def test_duplicate_of_deferred_echo_ignored_once_its_phase_opened(self):
        process = MaliciousConsensus(0, 4, 1, 0)
        process.start()
        _echo(process, 1, 2, 1, 1)  # a phase ahead: deferred
        for origin in (1, 2, 3):
            for sender in range(3):
                _echo(process, sender, origin, 1, 0)
        assert process.phaseno == 1
        assert process._echo_count[(2, 1)] == 1  # the deferred one, replayed
        _echo(process, 1, 2, 1, 1)
        assert process._echo_count[(2, 1)] == 1

    def test_stale_echo_allocates_nothing(self):
        process = _drive_pair_to_phase(3)[0][0]
        before = dict(process._echoes_seen)
        assert _echo(process, 1, 1, 1, 0) == []
        assert 0 not in process._echoes_seen
        assert process._echoes_seen == before

    def test_stale_initial_still_echoed_exactly_once(self):
        process = MaliciousConsensus(0, 4, 1, 0)
        process.start()
        process.phaseno = 5
        assert len(_initial(process, 2, 2, 1, 0)) == 4
        assert _initial(process, 2, 2, 1, 0) == []

    def test_state_key_tells_live_receipts_apart_and_only_those(self):
        def through_phase_0(extra_echo):
            process = MaliciousConsensus(0, 4, 1, 0)
            process.start()
            _echo(process, 0, 1, 1, 0)
            if extra_echo:
                _echo(process, 3, 1, 1, 0)  # a fourth echo for origin 1
            for origin in (1, 2, 3):
                for sender in range(3):
                    _echo(process, sender, origin, 1, 0)
            assert process.phaseno == 1
            return process

        plain, extra = through_phase_0(False), through_phase_0(True)
        # The cores differ only in a receipt of the closed phase 0.
        assert plain.state_key() == extra.state_key()
        _echo(extra, 3, 1, 0, 2)  # a deferred echo both will hold ...
        _echo(plain, 3, 1, 0, 2)
        assert plain.state_key() == extra.state_key()
        # ... then one live receipt apart: same counts, same deferrals.
        plain._echoes_seen[2].add((2, 1))
        assert plain.state_key() != extra.state_key()
