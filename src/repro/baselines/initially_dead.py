"""The Section 5 footnote protocol: any number of *initially dead* faults.

Section 5 claims that, under the paper's (intermediate) interpretation
of bivalence, there is a consensus protocol that overcomes **any**
number of faulty processes when all faults are *initially dead* — a
modification of the [Fisc83] protocol: build the transitive closure G⁺
of the heard-from relation; "if G⁺ turns out to be strongly connected,
and it contains all the processes, then all the processes will know it,
and they will decide using an agreed bivalent function of all the
inputs.  Otherwise, they all decide 0."

The footnote leaves the triggers unspecified.  This module completes the
sketch with a construction whose safety rests on two observations:

1. **The graph is an objective, fixed fact.**  Every alive process p
   closes its stage 1 at some step, freezing I(p) — the set of
   processes it had heard from.  Dead processes never send, so they
   appear in no I-set.  The directed graph G (edge q→p iff q ∈ I(p))
   is thereby determined by the execution, and the predicate
   Q = "G⁺ is strongly connected over all n processes" is a single
   objective bit every process is evaluating.

2. **In-edges are self-certifying and NO-evidence is monotone.**  The
   in-edges of node m are exactly I(m), published in m's own stage-2
   row.  Hence a set S whose members' rows are all known is *in-closed*
   (⋃_{m∈S} I(m) ⊆ S) as a final fact — later rows can never add an
   edge into S.  An in-closed proper subset S ⊊ {all n} certifies
   Q = NO (nothing outside S can ever reach S, so G⁺ is not strongly
   connected), and when Q = YES no such subset exists to be found.
   Conversely Q = YES is certified by holding all n rows and checking
   strong connectivity directly.  The two certificates are mutually
   exclusive, so processes deciding by different certificates still
   decide consistently.

Liveness (probability 1, under the fair message system): every process
referenced by any I-set is alive (it sent a message), so its row
eventually arrives; therefore the in-closure of any alive process's
node eventually becomes fully known, and it either equals all n (then
all rows are in hand and Q is evaluated directly) or is a proper
in-closed subset (decide 0).  With d ≥ 1 initially dead processes, d
appears in no I-set, so the closure of any alive node excludes d and
the everyone-decides-0 branch fires — the *fixed decision under faults*
that intermediate bivalence permits.  With all processes correct, both
outcomes are reachable: schedules where everyone hears everyone early
produce a strongly connected, all-inclusive G (decide f(inputs)), and
schedules where some process closes stage 1 too early produce a
non-strongly-connected G (decide 0).

Stage-1 closing is randomized (a geometric number of receive steps),
which is what gives every G positive probability — the same flavour of
message-system randomness the paper's main protocols use.  A process
keeps a self-addressed TICK circulating so it always has a deliverable
message and its closing coin keeps flipping even if nobody else writes
to it (n − 1 dead processes must not deadlock the survivor).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.core.common import majority_value
from repro.core.messages import payload
from repro.errors import ConfigurationError, InvariantViolation
from repro.net.message import Envelope
from repro.procs.base import Process, Send


@payload
@dataclass(frozen=True, slots=True)
class StageOneMessage:
    """Stage 1: ``(origin, input)`` — the heard-from relation's edges."""

    origin: int
    value: int


@payload
@dataclass(frozen=True, slots=True)
class RowMessage:
    """Stage 2: ``(origin, I(origin), input)`` — one node's in-edges."""

    origin: int
    heard_from: frozenset[int]
    value: int


@payload
@dataclass(frozen=True, slots=True)
class TickMessage:
    """Self-addressed heartbeat keeping the stage-1 coin flipping."""

    origin: int


def agreed_bivalent_function(inputs: dict[int, int]) -> int:
    """The "agreed bivalent function of all the inputs".

    Any function genuinely depending on the inputs qualifies; majority
    with ties to 1 keeps both outcomes reachable (all-0 inputs → 0,
    all-1 inputs → 1) and is symmetric across processes.
    """
    ones = sum(inputs.values())
    zeros = len(inputs) - ones
    return 1 if ones >= zeros else 0


class InitiallyDeadConsensus(Process):
    """One process running the completed §5 footnote protocol.

    Tolerates any number of *initially dead* processes (they never take
    a step and never send).  Not resilient to mid-run crashes or to
    Byzantine behaviour — exactly the fault model §5 discusses.

    Args:
        pid: this process's id.
        n: total number of processes.
        input_value: initial value in {0, 1}.
        close_probability: chance per received message of closing
            stage 1.  Smaller values hear from more processes before
            freezing I(p) — making the strongly-connected outcome more
            likely when all processes are correct.
        seed: private RNG seed; the kernel injects the run RNG otherwise.
    """

    def __init__(
        self,
        pid: int,
        n: int,
        input_value: int,
        close_probability: float = 0.05,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(pid, n)
        if input_value not in (0, 1):
            raise InvariantViolation(
                f"input value must be 0 or 1, got {input_value!r}"
            )
        if not 0.0 < close_probability <= 1.0:
            raise ConfigurationError(
                f"close_probability must be in (0, 1], got {close_probability}"
            )
        self.input_value = input_value
        self.close_probability = close_probability
        self.rng: Optional[random.Random] = (
            random.Random(seed) if seed is not None else None
        )
        self.stage = 1
        self.heard_from: set[int] = set()
        self.rows: dict[int, RowMessage] = {}
        # Diagnostics for the tests/benches.
        self.decided_via: Optional[str] = None

    # ------------------------------------------------------------------ #
    # Atomic steps
    # ------------------------------------------------------------------ #

    def start(self) -> list[Send]:
        sends = self._broadcast(
            StageOneMessage(origin=self.pid, value=self.input_value)
        )
        sends.append(Send(self.pid, TickMessage(origin=self.pid)))
        return sends

    def step(self, envelope: Optional[Envelope]) -> list[Send]:
        if envelope is None or self.exited:
            return []
        sends: list[Send] = []
        payload = envelope.payload
        if isinstance(payload, StageOneMessage):
            if envelope.sender == payload.origin and self.stage == 1:
                self.heard_from.add(payload.origin)
        elif isinstance(payload, RowMessage):
            if envelope.sender == payload.origin:
                self.rows.setdefault(payload.origin, payload)
                self._try_decide()
        elif isinstance(payload, TickMessage):
            if not self.decided:
                # Keep the heartbeat alive so the closing coin can keep
                # flipping (and so row evaluation retriggers) even with
                # an otherwise silent system.
                sends.append(Send(self.pid, payload))
        if self.stage == 1 and self.heard_from and self._flip_close_coin():
            self._close_stage_one(sends)
        if self.decided and not self.exited:
            self.exited = True
        return sends

    # ------------------------------------------------------------------ #
    # Stage transitions
    # ------------------------------------------------------------------ #

    def _flip_close_coin(self) -> bool:
        return self._coin_rng().random() < self.close_probability

    def _close_stage_one(self, sends: list[Send]) -> None:
        self.stage = 2
        row = RowMessage(
            origin=self.pid,
            heard_from=frozenset(self.heard_from),
            value=self.input_value,
        )
        sends.extend(self._broadcast(row))

    # ------------------------------------------------------------------ #
    # The decision certificates
    # ------------------------------------------------------------------ #

    def _try_decide(self) -> None:
        if self.decided:
            return
        closure = self._known_in_closure()
        if closure is None:
            return  # some referenced row still missing: keep waiting
        if len(closure) == self.n and self._strongly_connected(closure):
            inputs = {pid: self.rows[pid].value for pid in closure}
            self.decided_via = "strongly-connected"
            self._decide(agreed_bivalent_function(inputs))
        else:
            # Either a proper in-closed subset (nothing outside can ever
            # reach it ⇒ G⁺ not strongly connected over all n) or the
            # full vertex set failing strong connectivity: Q = NO.
            self.decided_via = "default-zero"
            self._decide(0)

    def _known_in_closure(self) -> Optional[frozenset[int]]:
        """Smallest in-closed node set containing us with all rows known.

        Walk the in-edges (each node's I-set, from its own row) starting
        at self; return None while any reached node's row is missing —
        that node is alive (someone heard it), so its row will come.
        """
        if self.pid not in self.rows:
            return None
        closure: set[int] = set()
        frontier = [self.pid]
        while frontier:
            node = frontier.pop()
            if node in closure:
                continue
            row = self.rows.get(node)
            if row is None:
                return None
            closure.add(node)
            frontier.extend(row.heard_from - closure)
        return frozenset(closure)

    def _strongly_connected(self, nodes: frozenset[int]) -> bool:
        """Is the heard-from graph strongly connected over ``nodes``?

        Forward reachability from one node plus backward reachability
        (which is exactly the in-closure walk that built ``nodes``)
        establishes strong connectivity; with both directions checked
        from the same root this is the classic two-pass test.
        """
        successors: dict[int, set[int]] = {node: set() for node in nodes}
        for node in nodes:
            for predecessor in self.rows[node].heard_from:
                successors[predecessor].add(node)
        root = next(iter(nodes))
        seen = {root}
        frontier = [root]
        while frontier:
            node = frontier.pop()
            for successor in successors[node]:
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)
        if seen != set(nodes):
            return False
        # Backward pass.
        predecessors_seen = {root}
        frontier = [root]
        while frontier:
            node = frontier.pop()
            for predecessor in self.rows[node].heard_from:
                if predecessor in nodes and predecessor not in predecessors_seen:
                    predecessors_seen.add(predecessor)
                    frontier.append(predecessor)
        return predecessors_seen == set(nodes)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def state_key(self) -> tuple:
        """Hashable snapshot (for the exhaustive explorer)."""
        return (
            self.stage,
            frozenset(self.heard_from),
            frozenset(self.rows),
            self.exited,
            self.decision.get(),
        )


class InitiallyDeadProcess(Process):
    """A process that is dead from the very start: it never does anything.

    The §5 fault model: deaths occur before the execution begins, so a
    dead process sends nothing at all — unlike a mid-run fail-stop crash,
    which may leave partial traffic behind.
    """

    def __init__(self, pid: int, n: int, input_value: int = 0) -> None:
        super().__init__(pid, n)
        self.input_value = input_value
        self.crashed = True  # dead before its first step

    def start(self) -> list[Send]:  # pragma: no cover - never scheduled
        return []

    def step(self, envelope: Optional[Envelope]) -> list[Send]:  # pragma: no cover
        return []

    def state_key(self) -> tuple:
        """Constant snapshot: a dead process has no state to vary."""
        return ("dead",)
