"""The k-resilient fail-stop consensus protocol of Figure 1.

Faithful transcription of the paper's pseudocode.  Per phase, a process:

1. broadcasts ``(phaseno, value, cardinality)`` to all n processes;
2. counts same-phase messages until n−k of them have arrived, tallying a
   *witness* for value i for every counted message whose cardinality
   exceeds n/2 (the sender saw i in a strict majority of its view);
3. adopts the witnessed value if any witness arrived (the paper proves a
   process can never hold witnesses for both values — this implementation
   raises :class:`~repro.errors.InvariantViolation` if that ever fails),
   otherwise the value with the larger message set;
4. sets its cardinality to the size of its message set for the adopted
   value and advances the phase.

It *decides* i when more than k witnesses for i were counted in a single
phase — enough witnesses exist in the message system that every other
process is forced toward the same decision — then broadcasts two final
rounds of ``(phaseno, value, n−k)`` / ``(phaseno+1, value, n−k)`` messages
and exits, so processes one or two phases behind can still finish.

Messages from *future* phases cannot be consumed yet; Figure 1 re-sends
them to the receiving process itself.  By default this implementation
keeps them in an internal deferral queue, which is observationally
identical (only the owner ever reads its own buffer) and avoids busy
requeue traffic; pass ``defer_internally=False`` for the literal
re-send-to-self behaviour.
"""

from __future__ import annotations

from typing import Optional

from repro.core.common import (
    majority_value,
    validate_failstop_parameters,
    witness_cardinality_threshold,
)
from repro.core.messages import FailStopMessage
from repro.errors import InvariantViolation
from repro.net.message import Envelope
from repro.procs.base import Process, Send


class FailStopConsensus(Process):
    """One process running the Figure 1 protocol.

    Args:
        pid: this process's id.
        n: total number of processes.
        k: resilience parameter — the protocol tolerates up to k
            fail-stop deaths.  Must satisfy 0 ≤ k ≤ ⌊(n−1)/2⌋ unless
            ``allow_excessive_k`` is set (lower-bound experiments only).
        input_value: the initial value i_p ∈ {0, 1}.
        defer_internally: keep future-phase messages in an internal queue
            (default) instead of literally re-sending them to self.
        allow_excessive_k: skip the resilience-bound check.
    """

    def __init__(
        self,
        pid: int,
        n: int,
        k: int,
        input_value: int,
        defer_internally: bool = True,
        allow_excessive_k: bool = False,
    ) -> None:
        super().__init__(pid, n)
        validate_failstop_parameters(n, k, allow_excessive_k)
        if input_value not in (0, 1):
            raise InvariantViolation(
                f"input value must be 0 or 1, got {input_value!r}"
            )
        self.k = k
        self.input_value = input_value
        # Figure 1 state: value, cardinality, phaseno, witness/message counts.
        self.value = input_value
        self.cardinality = 1
        self.phaseno = 0
        self.witness_count = [0, 0]
        self.message_count = [0, 0]
        self._witness_threshold = witness_cardinality_threshold(n)
        self._defer_internally = defer_internally
        self._deferred: list[FailStopMessage] = []

    # ------------------------------------------------------------------ #
    # Atomic steps
    # ------------------------------------------------------------------ #

    def start(self) -> list[Send]:
        """Open phase 0: broadcast ``(0, i_p, 1)`` to everyone."""
        return self._broadcast(
            FailStopMessage(phaseno=0, value=self.value, cardinality=1)
        )

    def step(self, envelope: Optional[Envelope]) -> list[Send]:
        """Receive one message (or φ) and run the Figure 1 case analysis."""
        if envelope is None or self.exited:
            return []
        message = envelope.payload
        if not isinstance(message, FailStopMessage) or message.value not in (0, 1):
            # Foreign or malformed traffic (possible in mixed experiments)
            # is ignored; Figure 1's case statement has no arm for it
            # either.  The value check matters: Python's negative indexing
            # would otherwise alias message_count[-1] to the 1-counter.
            return []
        sends: list[Send] = []
        self._handle(message, sends)
        return sends

    # ------------------------------------------------------------------ #
    # Protocol logic
    # ------------------------------------------------------------------ #

    def _handle(self, message: FailStopMessage, sends: list[Send]) -> None:
        if message.phaseno == self.phaseno:
            self._count(message)
            if self._phase_complete():
                self._advance_phases(sends)
        elif message.phaseno > self.phaseno:
            if self._defer_internally:
                self._deferred.append(message)
            else:
                # Figure 1: "send(p, msg)" — put it back in our own buffer.
                sends.append(Send(self.pid, message))
        # Messages from past phases fall through Figure 1's case statement
        # unmatched: they are simply discarded.

    def _count(self, message: FailStopMessage) -> None:
        self.message_count[message.value] += 1
        if message.cardinality >= self._witness_threshold:
            self.witness_count[message.value] += 1

    def _phase_complete(self) -> bool:
        return self.message_count[0] + self.message_count[1] >= self.n - self.k

    def _advance_phases(self, sends: list[Send]) -> None:
        """Run end-of-phase transitions until input is needed again.

        Draining internally deferred messages can complete the next phase
        immediately, so this loops: transition, possibly decide and exit,
        otherwise open the next phase and replay deferred messages for it.
        """
        while True:
            self._end_of_phase_update()
            if self._try_decide(sends):
                return
            # Open the next phase: reset counters, broadcast our state.
            self.witness_count = [0, 0]
            self.message_count = [0, 0]
            sends.extend(
                self._broadcast(
                    FailStopMessage(
                        phaseno=self.phaseno,
                        value=self.value,
                        cardinality=self.cardinality,
                    )
                )
            )
            if not self._replay_deferred():
                return

    def _end_of_phase_update(self) -> None:
        """Figure 1's value/cardinality update and phase increment."""
        metrics = self.metrics
        if metrics is not None:
            witnesses = self.witness_count[0] + self.witness_count[1]
            metrics.inc("failstop.witness.0", self.witness_count[0])
            metrics.inc("failstop.witness.1", self.witness_count[1])
            metrics.inc(f"failstop.witnesses.phase.{self.phaseno}", witnesses)
            metrics.observe("failstop.witnesses_per_phase", witnesses)
            metrics.observe(
                "failstop.messages_per_phase",
                self.message_count[0] + self.message_count[1],
            )
        if self.witness_count[0] > 0 and self.witness_count[1] > 0:
            raise InvariantViolation(
                f"process {self.pid} holds witnesses for both values in "
                f"phase {self.phaseno}: {self.witness_count} — impossible "
                "per the consistency proof of Theorem 2"
            )
        if self.witness_count[1] > 0:
            self.value = 1
        elif self.witness_count[0] > 0:
            self.value = 0
        else:
            self.value = majority_value(self.message_count[0], self.message_count[1])
        self.cardinality = self.message_count[self.value]
        self.phaseno += 1

    def _try_decide(self, sends: list[Send]) -> bool:
        """Evaluate Figure 1's loop guard; decide, help laggards, and exit.

        Returns True when the process decided (and exited the protocol).
        """
        if self.witness_count[0] <= self.k and self.witness_count[1] <= self.k:
            return False
        decided_value = 0 if self.witness_count[0] > self.k else 1
        if decided_value != self.value:
            raise InvariantViolation(
                f"process {self.pid} decided {decided_value} while holding "
                f"value {self.value}; witness counts {self.witness_count}"
            )
        self._decide(decided_value)
        # Final help: two phases' worth of maximal-cardinality messages so
        # processes up to two phases behind can complete and decide too.
        for phase in (self.phaseno, self.phaseno + 1):
            sends.extend(
                self._broadcast(
                    FailStopMessage(
                        phaseno=phase,
                        value=self.value,
                        cardinality=self.n - self.k,
                    )
                )
            )
        self.exited = True
        return True

    def _replay_deferred(self) -> bool:
        """Count deferred messages now matching the current phase.

        Returns True when they completed the phase (caller must transition
        again), False when more network input is needed.
        """
        if not self._deferred:
            return False
        still_deferred: list[FailStopMessage] = []
        completed = False
        for message in self._deferred:
            if message.phaseno < self.phaseno:
                # Stale: Figure 1 drops past-phase messages on receipt;
                # ours went stale while deferred, so drop them now.
                continue
            if message.phaseno > self.phaseno or completed:
                still_deferred.append(message)
                continue
            self._count(message)
            if self._phase_complete():
                completed = True
        self._deferred = still_deferred
        return completed

    # ------------------------------------------------------------------ #
    # Introspection (model checker / tests)
    # ------------------------------------------------------------------ #

    def state_key(self) -> tuple:
        """Hashable snapshot of the protocol state (for exhaustive search)."""
        return (
            self.value,
            self.cardinality,
            self.phaseno,
            tuple(self.witness_count),
            tuple(self.message_count),
            tuple(sorted(
                (m.phaseno, m.value, m.cardinality) for m in self._deferred
            )),
            self.exited,
            self.decision.get(),
        )
