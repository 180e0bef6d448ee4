"""Run results and their validation against the paper's correctness notions.

A :class:`RunResult` is the immutable record of one simulation: decisions,
phase/step accounting, message counts, and why the run halted.  The module
also provides the three properties of a k-resilient consensus protocol
(Section 2.1) as checkable predicates over results:

* *consistency* — no two correct processes decided differently;
* *validity on unanimous inputs* — a consequence of the protocols'
  bivalence arguments ("if all the processes start with the same input
  value, all the correct processes decide that value");
* *termination* — every correct process decided (convergence is a
  statement about probability over many runs; per-run we check decision).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Optional

from repro.errors import AgreementViolation

if TYPE_CHECKING:  # avoid a circular import at runtime (obs ← sim.events)
    from repro.obs.metrics import MetricsSnapshot


class HaltReason(enum.Enum):
    """Why a simulation's run loop stopped."""

    #: The halting predicate held (default: all correct processes decided).
    GOAL_REACHED = "goal_reached"
    #: The scheduler had nothing to deliver — quiescence.  For a correct
    #: configuration of the paper's protocols this only happens after all
    #: correct processes decided *and exited*; earlier quiescence is the
    #: deadlock the paper's deadlock-freedom proofs rule out (or the
    #: expected outcome of a lower-bound scenario at the legal bound).
    QUIESCENT = "quiescent"
    #: The step budget ran out first.
    MAX_STEPS = "max_steps"
    #: An attached safety oracle flagged a violation and stopped the run.
    ORACLE_VIOLATION = "oracle_violation"


class Outcome(enum.Enum):
    """First-class classification of how a run ended.

    ``HaltReason`` records the mechanical reason the loop stopped;
    ``Outcome`` is the judgement callers actually branch on: did the run
    succeed (every surviving correct process decided), stall
    (quiescent/undecided), exhaust its step budget, or trip a safety
    oracle.  The CLI exits non-zero for ``BUDGET_EXHAUSTED`` instead of
    presenting a partial run as a success.
    """

    #: Every surviving correct process decided.
    DECIDED = "decided"
    #: The run stopped with undecided correct processes but messages
    #: exhausted (or a custom goal reached early) — no budget involved.
    QUIESCENT = "quiescent"
    #: The step budget ran out with undecided correct processes.
    BUDGET_EXHAUSTED = "budget_exhausted"
    #: A safety oracle flagged a violating step.
    VIOLATION = "violation"


@dataclass(frozen=True)
class Violation:
    """The first safety-oracle violation observed in a run.

    Attributes:
        oracle: name of the oracle that flagged (``agreement``,
            ``validity``, ``revocation``, ``echo_quorum``, or
            ``invariant`` for an in-protocol invariant exception that an
            attached oracle suite captured).
        step: global kernel step index at which the violation surfaced.
        pid: process whose step exposed the violation (None if unknown).
        description: human-readable account of what went wrong.
    """

    oracle: str
    step: int
    pid: Optional[int]
    description: str

    def to_dict(self) -> dict:
        """JSON-ready form."""
        return {
            "oracle": self.oracle,
            "step": self.step,
            "pid": self.pid,
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Violation":
        return cls(
            oracle=payload["oracle"],
            step=payload["step"],
            pid=payload["pid"],
            description=payload["description"],
        )


@dataclass(frozen=True)
class RunResult:
    """Outcome of one simulated execution.

    Attributes:
        n: number of processes.
        decisions: per-process decided value (``None`` if undecided),
            indexed by pid; includes faulty processes for completeness.
        correct_pids: pids of non-Byzantine processes.  A fail-stop
            process counts as correct — it never lies — and any decision
            it made before dying participates in the agreement checks,
            exactly as in the paper's consistency property.
        crashed_pids: pids that fail-stopped during the run.  The
            *surviving* correct processes are ``correct_pids −
            crashed_pids``; termination is only demanded of them.
        decided_at_phase: per-process phase at decision time (or None).
        decided_at_step: per-process own-step count at decision time.
        inputs: the initial values the run started from.
        steps: total atomic steps executed.
        messages_sent / messages_delivered: message-system counters.
        max_phase: largest protocol phase reached by any correct process.
        halt_reason: why the run loop stopped.
        seed: the RNG seed, for exact replay.
        metrics: frozen :class:`~repro.obs.metrics.MetricsSnapshot` when
            the run collected metrics, else ``None``.  The snapshot is a
            pure function of the run (counters, gauges and histograms
            only), so the snapshots of one seed compare equal with
            ``==`` across processes and machines.
        violation: the first safety-oracle violation, when an observer
            was attached and flagged one; ``None`` otherwise.
        schedule: the recorded delivery schedule ``(pid, sender, skip)``
            tuples when the run's scheduler captured one (see
            :class:`~repro.net.schedulers.ScheduleRecorder`), else None.
    """

    n: int
    decisions: tuple[Optional[int], ...]
    correct_pids: frozenset[int]
    crashed_pids: frozenset[int]
    decided_at_phase: tuple[Optional[int], ...]
    decided_at_step: tuple[Optional[int], ...]
    inputs: tuple[int, ...]
    steps: int
    messages_sent: int
    messages_delivered: int
    max_phase: int
    halt_reason: HaltReason
    seed: Optional[int] = None
    metrics: Optional["MetricsSnapshot"] = None
    violation: Optional[Violation] = None
    schedule: Optional[tuple] = None

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #

    @property
    def correct_decisions(self) -> dict[int, Optional[int]]:
        """Decisions restricted to correct processes."""
        return {pid: self.decisions[pid] for pid in sorted(self.correct_pids)}

    @property
    def _decided(self) -> dict[int, int]:
        """Correct pid → decided value, the undecided left out."""
        return {
            pid: value
            for pid, value in self.correct_decisions.items()
            if value is not None
        }

    @property
    def decided_values(self) -> set[int]:
        """The set of distinct values decided by correct processes."""
        return set(self._decided.values())

    @property
    def surviving_pids(self) -> frozenset[int]:
        """Correct processes that did not crash."""
        return self.correct_pids - self.crashed_pids

    @property
    def all_correct_decided(self) -> bool:
        """True when every *surviving* correct process decided.

        Crashed fail-stop processes are exempt: the convergence property
        only obligates processes that keep taking steps.
        """
        return all(
            self.decisions[pid] is not None for pid in self.surviving_pids
        )

    @property
    def agreement_holds(self) -> bool:
        """True when no two correct processes decided different values."""
        return len(self.decided_values) <= 1

    @property
    def consensus_value(self) -> Optional[int]:
        """The agreed value, if all correct processes decided identically."""
        if self.all_correct_decided and self.agreement_holds and self.decided_values:
            return next(iter(self.decided_values))
        return None

    @property
    def outcome(self) -> Outcome:
        """Classify the run: violation > decided > budget > quiescent."""
        if self.violation is not None:
            return Outcome.VIOLATION
        if self.all_correct_decided:
            return Outcome.DECIDED
        if self.halt_reason is HaltReason.MAX_STEPS:
            return Outcome.BUDGET_EXHAUSTED
        return Outcome.QUIESCENT

    def phases_to_decide(self) -> list[int]:
        """Decision phases of correct processes (for performance plots)."""
        return [
            self.decided_at_phase[pid]
            for pid in sorted(self.correct_pids)
            if self.decided_at_phase[pid] is not None
        ]

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def check_agreement(self) -> None:
        """Raise :class:`AgreementViolation` if correct processes disagree."""
        problems = agreement_problems(self._decided)
        if problems:
            raise AgreementViolation(problems[0])

    def check_unanimous_validity(self) -> None:
        """If all correct inputs were equal, decisions must match that input.

        The paper's protocols guarantee this (their bivalence arguments);
        a failure indicates either an implementation bug or a faulty
        process successfully corrupting the outcome beyond the bound.
        """
        correct_inputs = [self.inputs[pid] for pid in self.correct_pids]
        problems = validity_problems(self._decided, correct_inputs)
        if problems:
            raise AgreementViolation(problems[0])

    def summary(self) -> str:
        """One-line human-readable digest."""
        phases = self.phases_to_decide()
        phase_part = (
            f"phases {min(phases)}..{max(phases)}" if phases else "no decisions"
        )
        violation_part = (
            f" VIOLATION[{self.violation.oracle}@{self.violation.step}]"
            if self.violation is not None
            else ""
        )
        return (
            f"n={self.n} decided={sum(d is not None for d in self.decisions)} "
            f"value={self.consensus_value} {phase_part} steps={self.steps} "
            f"halt={self.halt_reason.value} outcome={self.outcome.value}"
            f"{violation_part}"
        )


def agreement_problems(decided: Mapping[int, int]) -> list[str]:
    """Consistency over ``decided`` (correct pid → decided value): no two
    correct processes decide differently.  Empty when it holds.

    The one statement of the property for finished runs — simulator
    results and cluster decision records both read it;
    :class:`repro.check.oracles.OracleSuite` is its online form.
    """
    by_value: dict[int, list[int]] = {}
    for pid, value in decided.items():
        by_value.setdefault(value, []).append(pid)
    if len(by_value) <= 1:
        return []
    detail = ", ".join(
        f"value {value} by {sorted(pids)}"
        for value, pids in sorted(by_value.items())
    )
    return [f"agreement violated: {detail}"]


def validity_problems(
    decided: Mapping[int, int], correct_inputs: Iterable[int]
) -> list[str]:
    """Validity over ``decided``: when every correct process started
    with the same value, that value is the only legal decision.  One
    problem per offending process; empty when it holds (or when the
    correct inputs were mixed, where either value is legal)."""
    inputs = set(correct_inputs)
    if len(inputs) != 1:
        return []
    (unanimous,) = inputs
    return [
        f"validity violated: process {pid} decided {value} although "
        f"every correct process started with {unanimous}"
        for pid, value in sorted(decided.items())
        if value != unanimous
    ]

