"""Theorem 1, executed: no ⌊n/2⌋-resilient fail-stop consensus.

The proof splits the processes into S and its complement S̄, observes
that a ⌊n/2⌋-resilient protocol must let each half finish alone (the
other half might all be dead — Lemma 1), and splices the two solo
schedules σ = σ₀·σ₁ into one legal execution in which the halves decide
independently — hence, from a suitably bivalent start, inconsistently.

The scenario can be run against two protocols, showing the dichotomy
the theorem forces on every design:

* :class:`NaiveQuorumConsensus` — a protocol that *claims* ⌊n/2⌋
  resilience by waiting for only n−k messages and deciding whenever its
  entire view agrees.  Each half of size ⌊n/2⌋ ≥ n−k completes alone;
  from the all-0 / all-1 split, S decides 0 and S̄ decides 1 — the
  concrete agreement violation the spliced schedule predicts.
* Figure 1 (:class:`~repro.core.fail_stop.FailStopConsensus`) with k
  forced beyond its bound — it *cannot* split, because its witness
  threshold (cardinality > n/2) is unreachable inside a half of size
  ⌊n/2⌋: the protocol trades the impossible safety for non-termination
  and the run times out undecided.  Its thresholds are exactly what the
  naive protocol is missing.

At the legal bound k = ⌊(n−1)/2⌋, n−k > ⌊n/2⌋, so neither half can
even assemble a view alone: the run goes quiescent with no decisions —
safety preserved at the price of progress, under a schedule the
probabilistic assumption rules out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.common import max_failstop_resilience
from repro.core.simple_majority import SimpleMajorityConsensus
from repro.errors import ConfigurationError
from repro.net.schedulers import PartitionScheduler
from repro.sim.kernel import Simulation
from repro.sim.results import HaltReason, RunResult


class NaiveQuorumConsensus(SimpleMajorityConsensus):
    """A deliberately unsound protocol "resilient" to k = ⌈n/2⌉ deaths.

    Identical to the Section 4.1 variant except the decision rule is
    weakened from "more than (n+k)/2 messages" to "my whole (n−k)-view
    agrees".  For k ≤ ⌊(n−1)/2⌋ the two coincide often enough to look
    plausible; past the bound, two disjoint views can both be unanimous
    — and Theorem 1's schedule makes them be, splitting the system.
    """

    def __init__(
        self,
        pid: int,
        n: int,
        k: int,
        input_value: int,
        allow_excessive_k: bool = True,
    ) -> None:
        # Bypass the resilience validation entirely, whatever the caller
        # passed: the whole point of this class is to embody the claim
        # the theorem refutes.
        super().__init__(pid, n, k, input_value, allow_excessive_k=True)
        self._decide_at = n - k  # the unsound quorum


@dataclass(frozen=True)
class PartitionOutcome:
    """What the Theorem 1 schedule produced.

    Attributes:
        n: system size.
        k: resilience parameter the protocol ran with.
        bound: the legal bound ⌊(n−1)/2⌋ for this n.
        exceeds_bound: whether k > bound (the violation regime).
        group_s / group_t: the two halves.
        decisions_s / decisions_t: decided values per half (None =
            undecided).
        agreement_violated: some two correct processes decided
            differently.
        deadlocked: the run went quiescent with undecided processes —
            the at-the-bound outcome.
        result: the final :class:`RunResult`.
    """

    n: int
    k: int
    bound: int
    exceeds_bound: bool
    group_s: tuple[int, ...]
    group_t: tuple[int, ...]
    decisions_s: tuple[Optional[int], ...]
    decisions_t: tuple[Optional[int], ...]
    agreement_violated: bool
    deadlocked: bool
    result: RunResult

    def summary(self) -> str:
        """One-line digest for harness tables."""
        regime = "k>bound" if self.exceeds_bound else "k=bound"
        if self.agreement_violated:
            outcome = (
                f"SPLIT: S decided {set(v for v in self.decisions_s if v is not None)}, "
                f"S̄ decided {set(v for v in self.decisions_t if v is not None)}"
            )
        elif self.deadlocked:
            outcome = "deadlock (no half can assemble a view alone)"
        else:
            outcome = "consistent"
        return f"n={self.n} k={self.k} [{regime}]: {outcome}"


def partition_arithmetic(n: int, k: int) -> dict[str, int | bool]:
    """The counting at the heart of Theorem 1, as checkable arithmetic.

    A half of size ⌊n/2⌋ can complete a protocol phase alone iff
    ⌊n/2⌋ ≥ n−k, i.e. iff k ≥ ⌈n/2⌉ — which is possible exactly when
    k exceeds the ⌊(n−1)/2⌋ bound.
    """
    half = n // 2
    return {
        "half_size": half,
        "view_size": n - k,
        "half_can_run_alone": half >= n - k,
        "bound": max_failstop_resilience(n),
        "exceeds_bound": k > max_failstop_resilience(n),
    }


def theorem1_partition_scenario(
    n: int,
    k: Optional[int] = None,
    protocol: str = "naive",
    seed: int = 0,
    stage_steps: int = 30_000,
    inputs: Optional[Sequence[int]] = None,
) -> PartitionOutcome:
    """Run the σ = σ₀·σ₁ spliced schedule.

    Args:
        n: system size (even n gives the cleanest split).
        k: resilience parameter; defaults to ⌈n/2⌉, the smallest value
            beyond the bound (pass ⌊(n−1)/2⌋ to see the at-bound
            deadlock instead).
        protocol: ``"naive"`` (the unsound full-view-quorum protocol —
            splits past the bound) or ``"fig1"`` (Figure 1 — refuses to
            split and instead loses liveness past the bound).
        seed: RNG seed for the intra-group delivery order.
        stage_steps: step budget per stage.
        inputs: initial values; defaults to all-0 in S and all-1 in S̄
            (the adjacent-configuration neighbourhood Lemma 2's proof
            walks through).
    """
    if n < 2:
        raise ConfigurationError(f"need n >= 2, got n={n}")
    if k is None:
        k = (n + 1) // 2
    if k >= n:
        raise ConfigurationError(f"k={k} leaves no correct process for n={n}")
    group_s = tuple(range(n // 2))
    group_t = tuple(range(n // 2, n))
    if inputs is None:
        inputs = [0] * len(group_s) + [1] * len(group_t)
    # This scenario's protocol names → the builders' protocol table.
    cores = {"naive": "naive", "fig1": "failstop"}
    if protocol not in cores:
        raise ConfigurationError(f"unknown protocol {protocol!r}")
    # Imported here: the builders' protocol table names this module's
    # NaiveQuorumConsensus.
    from repro.harness.builders import build_ensemble

    processes = build_ensemble(
        cores[protocol], n, k, inputs, allow_excessive_k=True
    )
    scheduler = PartitionScheduler([group_s, group_t])
    sim = Simulation(processes, scheduler=scheduler, seed=seed)

    def group_done(group: tuple[int, ...]):
        def predicate(simulation: Simulation) -> bool:
            return all(simulation.processes[pid].decided for pid in group)

        return predicate

    # σ₀: only S runs.  With the naive protocol past the bound, S
    # finishes alone; with Figure 1 it loses liveness (the witness
    # threshold is unreachable — MAX_STEPS); at the legal bound the
    # active group cannot assemble a view and goes quiescent.
    first = sim.run(max_steps=stage_steps, halt_when=group_done(group_s))
    stalled = first.halt_reason is not HaltReason.GOAL_REACHED
    # σ₁: only S̄ runs, appended to the same execution.
    scheduler.activate(1)
    result = sim.run(max_steps=stage_steps, halt_when=group_done(group_t))
    stalled = stalled and result.halt_reason is not HaltReason.GOAL_REACHED
    no_decisions = all(value is None for value in result.decisions)
    deadlocked = stalled and no_decisions

    decisions_s = tuple(result.decisions[pid] for pid in group_s)
    decisions_t = tuple(result.decisions[pid] for pid in group_t)
    return PartitionOutcome(
        n=n,
        k=k,
        bound=max_failstop_resilience(n),
        exceeds_bound=k > max_failstop_resilience(n),
        group_s=group_s,
        group_t=group_t,
        decisions_s=decisions_s,
        decisions_t=decisions_t,
        agreement_violated=not result.agreement_holds,
        deadlocked=deadlocked,
        result=result,
    )
