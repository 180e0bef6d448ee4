"""Lockstep simulation — the synchronized world the §4 chains model.

Section 4's Markov chains abstract the asynchronous protocols into a
synchronized round process: "in every phase, any set of n−k messages
has the same probability of being received".  The event-driven kernel
(:mod:`repro.sim.kernel`) runs the *real* asynchronous protocols; this
module runs the *abstraction itself*, so all three levels can be
compared: closed form ↔ exact chain ↔ lockstep Monte Carlo ↔ (shape-
wise) the true asynchronous protocol.

Per §4's worst-case setup, the faulty processes never go silent —
"in the fail-stop case none of them will fail, and in the malicious
case they will try to balance the number of 1 and 0 messages" — so the
per-phase pool always holds n messages.  Each phase:

* the n − ``faulty`` correct processes contribute their values;
* the ``faulty`` adversarial processes contribute per the adversary
  model (balancing / constant);
* every correct process independently draws a uniform (n−k)-subset of
  the pool and adopts its majority (ties per ``tie_break``).

With ``faulty = 0`` this is exactly the §4.1 chain (state: how many of
the n processes hold 1); with ``faulty = k`` and the balancing
adversary it is exactly the §4.2 chain (state: how many of the n−k
correct processes hold 1).  Runs stop at the corresponding chain's
absorbing region, so lockstep Monte Carlo means are directly comparable
to the fundamental-matrix expectations — and should match them to
sampling error, not merely in shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class LockstepResult:
    """Outcome of one lockstep run."""

    phases: int
    final_values: tuple[int, ...]
    decided_value: Optional[int]
    absorbed: bool


class LockstepMajoritySimulator:
    """The §4 round process for the simple-majority rule.

    Args:
        n: total number of processes (pool size per phase).
        k: view shortfall — every process samples n−k of the n messages.
        faulty: how many of the n processes the adversary controls
            (0 reproduces §4.1's chain; k with ``adversary="balancing"``
            reproduces §4.2's).
        adversary: ``"balancing"`` (pool 1-count pushed toward n/2),
            ``"constant-0"``, or ``"constant-1"``.
        tie_break: ``"random"`` (the §4 idealisation) or ``"zero"``
            (the protocols as printed).
    """

    def __init__(
        self,
        n: int,
        k: int,
        faulty: int = 0,
        adversary: str = "balancing",
        tie_break: str = "random",
    ) -> None:
        if not 0 < n:
            raise ConfigurationError(f"need n > 0, got {n}")
        if not 0 <= k < n:
            raise ConfigurationError(f"need 0 <= k < n, got n={n}, k={k}")
        if not 0 <= faulty <= k:
            raise ConfigurationError(
                f"faulty={faulty} must lie in [0, k={k}] — the protocol "
                "only discounts k messages"
            )
        if adversary not in ("balancing", "constant-0", "constant-1"):
            raise ConfigurationError(f"unknown adversary {adversary!r}")
        if tie_break not in ("random", "zero"):
            raise ConfigurationError(f"unknown tie_break {tie_break!r}")
        self.n = n
        self.k = k
        self.faulty = faulty
        self.adversary = adversary
        self.tie_break = tie_break
        self.correct = n - faulty
        self.view_size = n - k

    # ------------------------------------------------------------------ #
    # One phase of the abstraction
    # ------------------------------------------------------------------ #

    def pool_ones(self, correct_ones: int) -> int:
        """Total 1s in the n-message pool given the correct 1-count."""
        if self.adversary == "balancing":
            ideal = self.n // 2 - correct_ones
            adversarial_ones = min(self.faulty, max(0, ideal))
        elif self.adversary == "constant-1":
            adversarial_ones = self.faulty
        else:
            adversarial_ones = 0
        return correct_ones + adversarial_ones

    def step_phase(self, correct_ones: int, rng: np.random.Generator) -> int:
        """One phase: every correct process resamples; return new 1-count.

        Vectorised: all n−faulty views are drawn at once as
        hypergeometric counts (numpy), which keeps lockstep Monte Carlo
        cheap even at n in the hundreds.
        """
        pool = self.pool_ones(correct_ones)
        views = rng.hypergeometric(
            pool, self.n - pool, self.view_size, size=self.correct
        )
        adopted = views * 2 > self.view_size
        if self.view_size % 2 == 0:
            ties = views * 2 == self.view_size
            if self.tie_break == "random":
                adopted = adopted | (
                    ties & (rng.random(self.correct) < 0.5)
                )
            # tie_break == "zero": ties stay 0.
        return int(adopted.sum())

    # ------------------------------------------------------------------ #
    # Absorption (the chains' declared regions)
    # ------------------------------------------------------------------ #

    def absorbed(self, correct_ones: int) -> bool:
        """Is this state in the matching chain's absorbing region?"""
        if self.faulty == 0:
            # Imported here: repro.analysis loads scipy.stats, which
            # only this branch needs; runs with faulty processes use
            # numpy alone.
            from repro.analysis.failstop_chain import (
                majority_adoption_probability,
            )

            # §4.1 generalised: the outcome is deterministic once every
            # possible view has a fixed majority (w ∈ {0, 1}); at
            # k = n/3 this is exactly the declared [0, n/3) ∪ (2n/3, n].
            w = majority_adoption_probability(self.n, self.k, correct_ones)
            return w == 0.0 or w == 1.0
        # §4.2's declaration in correct-count space.
        return (
            correct_ones < (self.n - 3 * self.faulty) / 2
            or correct_ones > (self.n + self.faulty) / 2
        )

    # ------------------------------------------------------------------ #
    # Whole runs
    # ------------------------------------------------------------------ #

    def run(
        self,
        initial_ones: int,
        seed: Optional[int] = None,
        max_phases: int = 1_000_000,
    ) -> LockstepResult:
        """Phases until the chain's absorbing region is entered."""
        if not 0 <= initial_ones <= self.correct:
            raise ConfigurationError(
                f"initial_ones={initial_ones} out of range for "
                f"{self.correct} correct processes"
            )
        rng = np.random.default_rng(seed)
        ones = initial_ones
        for phase in range(max_phases):
            if self.absorbed(ones):
                decided = 1 if ones > self.correct // 2 else 0
                return LockstepResult(
                    phases=phase,
                    final_values=tuple(
                        [1] * ones + [0] * (self.correct - ones)
                    ),
                    decided_value=decided,
                    absorbed=True,
                )
            ones = self.step_phase(ones, rng)
        return LockstepResult(
            phases=max_phases,
            final_values=tuple([1] * ones + [0] * (self.correct - ones)),
            decided_value=None,
            absorbed=False,
        )

    def mean_phases(
        self,
        initial_ones: int,
        runs: int,
        seed: int = 0,
        max_phases: int = 1_000_000,
    ) -> float:
        """Monte Carlo mean phases to absorption."""
        total = 0
        for index in range(runs):
            result = self.run(initial_ones, seed=seed + index, max_phases=max_phases)
            if not result.absorbed:
                raise ConfigurationError(
                    f"lockstep run {seed + index} not absorbed within "
                    f"{max_phases} phases"
                )
            total += result.phases
        return total / runs
