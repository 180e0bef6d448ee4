"""Unit tests for run results and their validation helpers."""

import pytest

from repro.errors import AgreementViolation
from repro.sim.results import HaltReason, RunResult


def _result(
    decisions,
    correct=None,
    crashed=(),
    inputs=None,
    phases=None,
) -> RunResult:
    n = len(decisions)
    correct = frozenset(range(n)) if correct is None else frozenset(correct)
    inputs = tuple(inputs) if inputs is not None else tuple([0] * n)
    phases = tuple(phases) if phases is not None else tuple(
        1 if d is not None else None for d in decisions
    )
    return RunResult(
        n=n,
        decisions=tuple(decisions),
        correct_pids=correct,
        crashed_pids=frozenset(crashed),
        decided_at_phase=phases,
        decided_at_step=tuple(0 for _ in decisions),
        inputs=inputs,
        steps=10,
        messages_sent=20,
        messages_delivered=15,
        max_phase=2,
        halt_reason=HaltReason.GOAL_REACHED,
    )


class TestAgreement:
    def test_agreement_holds_when_unanimous(self):
        result = _result([1, 1, 1])
        assert result.agreement_holds
        result.check_agreement()
        assert result.consensus_value == 1

    def test_agreement_violated_detected(self):
        result = _result([0, 1, 0])
        assert not result.agreement_holds
        with pytest.raises(AgreementViolation):
            result.check_agreement()
        assert result.consensus_value is None

    def test_byzantine_decisions_ignored(self):
        result = _result([0, 0, 1], correct=[0, 1])
        assert result.agreement_holds
        assert result.consensus_value == 0

    def test_undecided_processes_do_not_violate(self):
        result = _result([1, None, 1])
        assert result.agreement_holds
        assert not result.all_correct_decided

    def test_crashed_exempt_from_termination(self):
        result = _result([1, None, 1], crashed=[1])
        assert result.all_correct_decided
        assert result.consensus_value == 1

    def test_crashed_decision_still_counts_for_agreement(self):
        """A fail-stop process that decided before dying decided correctly."""
        result = _result([0, 1, 1], crashed=[0])
        assert not result.agreement_holds


class TestValidity:
    def test_unanimous_validity_pass(self):
        result = _result([1, 1, 1], inputs=[1, 1, 1])
        result.check_unanimous_validity()

    def test_unanimous_validity_fail(self):
        result = _result([0, 0, 0], inputs=[1, 1, 1])
        with pytest.raises(AgreementViolation):
            result.check_unanimous_validity()

    def test_mixed_inputs_impose_nothing(self):
        result = _result([0, 0, 0], inputs=[1, 0, 1])
        result.check_unanimous_validity()

    def test_faulty_inputs_excluded_from_unanimity(self):
        result = _result([1, 1, 0], correct=[0, 1], inputs=[1, 1, 0])
        result.check_unanimous_validity()


class TestDerivedViews:
    def test_phases_to_decide(self):
        result = _result([1, 1, None], phases=[2, 3, None])
        assert result.phases_to_decide() == [2, 3]

    def test_summary_is_one_line(self):
        assert "\n" not in _result([1, 1]).summary()

    def test_correct_decisions_ordering(self):
        result = _result([1, 0, None], correct=[2, 0])
        assert list(result.correct_decisions) == [0, 2]
