"""Theorem 3, executed: no ⌊n/3⌋-resilient malicious consensus.

The proof takes S and T of size ⌊2n/3⌋ covering all n processes, with
the overlap S ∩ T (≤ n/3 processes) entirely malicious.  The overlap
first behaves correctly inside S until every correct process of S
decides 0; then the malicious processes *rewind themselves* to their
initial state — pretending their input had been different — and run the
protocol inside T, whose correct members have seen nothing of σ₀, until
T decides 1.  Both schedules are legal; consistency is violated.

This module runs that replay against three protocols:

* ``protocol="naive"`` — the full-view-quorum protocol of
  :class:`~repro.lowerbounds.partition.NaiveQuorumConsensus`, which
  decides when its whole (n−k)-view agrees.  Past the bound this is
  exactly the over-eager quorum the rewind exploits: the correct halves
  split 0 / 1.
* ``protocol="simple"`` — the Section 4.1 variant.  Its > (n+k)/2
  decision threshold exceeds the view size n−k once n ≤ 3k, so past the
  bound it cannot decide at all: the attack yields stalling, not a
  split.  (The threshold is precisely calibrated to the bound.)
* ``protocol="echo"`` — Figure 2.  Its echo-acceptance quorum
  (n+k)/2 + 1 outgrows what n−k participants can supply, so the replay
  deadlocks even earlier, before any value is accepted.

Construction used for the violation (n = 3k divisible by 3):

* S = k correct processes with input 0  ∪  k malicious,
* T = k correct processes with input 1  ∪  the same k malicious,
* |S| = |T| = 2k = n − k, so each set is exactly one full view.

With k beyond ⌊(n−1)/3⌋ the correct halves decide 0 and 1
respectively.  At the bound the same assembly is arithmetically
impossible: two views of size n−k must overlap in more than k
processes, so the overlap contains a correct process, which cannot be
rewound — and the executable scenario shows the attack fizzling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.common import max_malicious_resilience
from repro.errors import ConfigurationError
from repro.net.message import Envelope
from repro.net.schedulers import FilteredRandomScheduler
from repro.sim.kernel import Simulation
from repro.sim.results import HaltReason, RunResult


@dataclass(frozen=True)
class ReplayOutcome:
    """What the Theorem 3 replay produced."""

    n: int
    k: int
    bound: int
    exceeds_bound: bool
    correct_s: tuple[int, ...]
    correct_t: tuple[int, ...]
    overlap: tuple[int, ...]
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
                f"SPLIT: S-correct decided {set(v for v in self.decisions_s if v is not None)}, "
                f"T-correct decided {set(v for v in self.decisions_t if v is not None)}"
            )
        elif self.deadlocked:
            outcome = "attack fizzled (deadlock/quiescence, no split)"
        else:
            outcome = "consistent"
        return f"n={self.n} k={self.k} [{regime}]: {outcome}"


def replay_arithmetic(n: int, k: int) -> dict[str, int | bool]:
    """The quorum-overlap counting behind Theorem 3.

    Two views of size n−k overlap in ≥ n−2k processes; the replay needs
    the whole overlap malicious, i.e. n−2k ≤ k ⇔ n ≤ 3k — possible
    exactly when k exceeds ⌊(n−1)/3⌋.
    """
    return {
        "view_size": n - k,
        "min_overlap_of_two_views": max(0, n - 2 * k),
        "overlap_fits_in_k": max(0, n - 2 * k) <= k,
        "bound": max_malicious_resilience(n),
        "exceeds_bound": k > max_malicious_resilience(n),
    }


def theorem3_replay_scenario(
    k: int = 2,
    protocol: str = "naive",
    seed: int = 0,
    stage_steps: int = 30_000,
) -> ReplayOutcome:
    """Run the Theorem 3 rewind-and-replay schedule with n = 3k.

    Args:
        k: number of malicious processes; n = 3k.  Any k ≥ 1 exceeds the
            bound ⌊(n−1)/3⌋ = k−1, which is the point.
        protocol: ``"naive"`` (yields the safety split), ``"simple"``
            or ``"echo"`` (whose calibrated thresholds turn the attack
            into stalling/deadlock instead — see the module docstring).
        seed: RNG seed for delivery order.
        stage_steps: step budget per stage.
    """
    if k < 1:
        raise ConfigurationError(f"need k >= 1, got k={k}")
    # This scenario's protocol names → the builders' protocol table.
    cores = {"naive": "naive", "simple": "simple", "echo": "malicious"}
    if protocol not in cores:
        raise ConfigurationError(f"unknown protocol {protocol!r}")
    # Imported here: the builders' protocol table reaches back into this
    # package for NaiveQuorumConsensus.
    from repro.harness.builders import build_ensemble, build_member

    core = cores[protocol]
    n = 3 * k
    correct_s = tuple(range(k))  # inputs 0
    correct_t = tuple(range(k, 2 * k))  # inputs 1
    overlap = tuple(range(2 * k, 3 * k))  # malicious

    # The overlap first poses as correct with value 0: malicious
    # processes running the honest code as a disguise, excluded from
    # agreement/termination accounting.
    processes = build_ensemble(
        core, n, k, [0] * k + [1] * k + [0] * k, allow_excessive_k=True
    )
    for pid in overlap:
        processes[pid].is_correct = False

    s_members = set(correct_s) | set(overlap)
    t_members = set(correct_t) | set(overlap)

    scheduler = FilteredRandomScheduler(lambda env: True)
    sim = Simulation(processes, scheduler=scheduler, seed=seed)

    def members_done(members: tuple[int, ...]):
        def predicate(simulation: Simulation) -> bool:
            return all(simulation.processes[pid].decided for pid in members)

        return predicate

    # σ₀: only messages among S flow; T's correct members stay frozen.
    scheduler.predicate = (
        lambda env: env.sender in s_members and env.recipient in s_members
    )
    first = sim.run(max_steps=stage_steps, halt_when=members_done(correct_s))
    deadlocked = first.halt_reason in (HaltReason.QUIESCENT, HaltReason.MAX_STEPS)

    # The rewind: the malicious overlap "change their state ... back to
    # what they were in C" and now pretend their input was 1.  Their
    # pre-rewind messages must never reach T — a legal scheduler choice.
    watermark = _current_max_seq(sim)
    for pid in overlap:
        rewound = build_member(
            pid, core, n, k, [1] * n, allow_excessive_k=True
        )
        rewound.is_correct = False
        sim.replace_process(pid, rewound)

    def replay_visible(env: Envelope) -> bool:
        if env.sender not in t_members or env.recipient not in t_members:
            return False
        if env.sender in overlap and env.seq <= watermark:
            return False  # stale pre-rewind traffic: delayed forever
        return True

    # σ₁: only messages among T flow (minus the overlap's stale ones).
    scheduler.predicate = replay_visible
    result = sim.run(max_steps=stage_steps, halt_when=members_done(correct_t))
    deadlocked = deadlocked and result.halt_reason in (
        HaltReason.QUIESCENT,
        HaltReason.MAX_STEPS,
    )

    decisions_s = tuple(result.decisions[pid] for pid in correct_s)
    decisions_t = tuple(result.decisions[pid] for pid in correct_t)
    values = {v for v in decisions_s + decisions_t if v is not None}
    return ReplayOutcome(
        n=n,
        k=k,
        bound=max_malicious_resilience(n),
        exceeds_bound=k > max_malicious_resilience(n),
        correct_s=correct_s,
        correct_t=correct_t,
        overlap=overlap,
        decisions_s=decisions_s,
        decisions_t=decisions_t,
        agreement_violated=len(values) > 1,
        deadlocked=deadlocked,
        result=result,
    )


def _current_max_seq(sim: Simulation) -> int:
    """Largest envelope sequence number currently in any buffer.

    Sequence numbers increase monotonically, so everything sent after
    this point carries a larger one — a clean rewind watermark.
    """
    snapshot = sim.system.snapshot()
    return max(
        (env.seq for envs in snapshot.values() for env in envs),
        default=-1,
    )
