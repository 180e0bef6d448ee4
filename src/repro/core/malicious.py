"""The k-resilient malicious-case consensus protocol of Figure 2.

The protocol runs in phases.  To defeat lying processes, state is
disseminated through a two-tier broadcast — the mechanism that later
evolved into Bracha's reliable broadcast:

* a process opens phase t by sending ``(initial, p, value, t)`` to all;
* every process, upon the *first* initial message from a given sender for
  a given phase, echoes it to all as ``(echo, p, value, t)``;
* process q *accepts* value i from p in phase t once more than (n+k)/2
  distinct processes sent it ``(echo, p, i, t)``.

Since any two sets of more than (n+k)/2 echoers intersect in more than k
processes — hence in at least one correct process, which never echoes two
values for the same (p, t) — no two correct processes can accept
different values from the same process in the same phase.

A phase ends when n−k messages have been accepted; the process adopts the
majority value of the accepted set and *decides* i if more than (n+k)/2
accepted messages carried i.

Fidelity notes (see DESIGN.md §3):

* **Sender authentication.**  A correct process only honours an initial
  message whose transport sender equals the claimed origin; Section 3.1
  requires exactly this, otherwise one malicious process could
  impersonate the whole system by forging initials.
* **Future-phase echoes.**  Figure 2 re-sends them to self.  A literal
  requeue would lose the original sender attribution that the
  first-receipt rule needs, so this implementation keeps an internal
  deferral queue that preserves the (sender, echo) pair — the behaviour
  the pseudocode clearly intends.
* **Exit device.**  As printed the protocol never exits; Section 3.3
  describes an optional device where a decided process broadcasts
  wildcard-phase (``*``) messages that receivers count in *every*
  subsequent phase (conceptually re-sending them to themselves forever).
  Enable it with ``exit_after_decide=True``; wildcard echo credits are
  tracked per (crediting sender, origin, value) and re-applied at every
  phase open, which is the loop-free equivalent of the re-send device.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional

from repro.core.common import (
    acceptance_threshold,
    decision_threshold,
    majority_value,
    validate_malicious_parameters,
)
from repro.core.messages import STAR, EchoMessage, InitialMessage
from repro.errors import InvariantViolation
from repro.net.message import Envelope
from repro.procs.base import Process, Send


class MaliciousConsensus(Process):
    """One correct process running the Figure 2 protocol.

    Args:
        pid: this process's id.
        n: total number of processes.
        k: resilience parameter — tolerates up to k malicious processes.
            Must satisfy 0 ≤ k ≤ ⌊(n−1)/3⌋ unless ``allow_excessive_k``.
        input_value: the initial value i_p ∈ {0, 1}.
        exit_after_decide: enable the Section 3.3 wildcard exit device.
        allow_excessive_k: skip the resilience-bound check (lower-bound
            experiments only); also relaxes runtime invariant checks that
            only hold within the bound.
    """

    def __init__(
        self,
        pid: int,
        n: int,
        k: int,
        input_value: int,
        exit_after_decide: bool = False,
        allow_excessive_k: bool = False,
    ) -> None:
        super().__init__(pid, n)
        validate_malicious_parameters(n, k, allow_excessive_k)
        if input_value not in (0, 1):
            raise InvariantViolation(
                f"input value must be 0 or 1, got {input_value!r}"
            )
        self.k = k
        self.input_value = input_value
        self.exit_after_decide = exit_after_decide
        self._enforce_invariants = not allow_excessive_k
        # Figure 2 state.
        self.value = input_value
        self.phaseno = 0
        self.message_count = [0, 0]
        self._echo_count: dict[tuple[int, int], int] = defaultdict(int)
        # How much of each (origin, value) count came from wildcard
        # credits rather than same-phase echoes: the double-accept
        # invariant's counting argument only covers the latter.
        self._star_echo_count: dict[tuple[int, int], int] = defaultdict(int)
        self._accepted_origins: set[int] = set()
        # First receipts.  Initials, (origin, phase), are kept for good: a
        # stale initial is still echoed, once.  Echoes, phase → {(sender,
        # origin)}, only until their phase closes (:meth:`_advance_phases`):
        # a stale echo is discarded before the lookup.
        self._initials_seen: set[tuple] = set()
        self._echoes_seen: dict[int, set[tuple[int, int]]] = {}
        # Future-phase echoes, with their authenticated sender preserved.
        self._deferred: list[tuple[int, EchoMessage]] = []
        # Wildcard credits from decided processes: (sender, origin, value).
        self._star_credits: set[tuple[int, int, int]] = set()
        self._accept_at = acceptance_threshold(n, k)
        self._decide_at = decision_threshold(n, k)
        # Optional audit callback fired at every accept as
        # ``hook(pid, phaseno, origin, value)``; the echo-quorum oracle
        # (repro.check.oracles) sets it to cross-check each accept against
        # the echoes actually delivered.  None means no overhead.
        self.accept_hook = None
        # Diagnostics.
        self.forged_initials_dropped = 0

    # ------------------------------------------------------------------ #
    # Atomic steps
    # ------------------------------------------------------------------ #

    def start(self) -> list[Send]:
        """Open phase 0: broadcast ``(initial, p, i_p, 0)``."""
        return self._phase_open_sends()

    def _phase_open_sends(self) -> list[Send]:
        """Sends that open the current phase.

        Correct behaviour broadcasts one initial message carrying the
        process's value.  Byzantine subclasses override this hook to lie
        (balance, equivocate, stay silent) while reusing the rest of the
        protocol machinery — a malicious process "may also send false and
        contradictory messages" but still interacts with the same message
        grammar.
        """
        return self._broadcast(
            InitialMessage(origin=self.pid, value=self.value, phaseno=self.phaseno)
        )

    def step(self, envelope: Optional[Envelope]) -> list[Send]:
        """Receive one message (or φ) and run the Figure 2 case analysis."""
        if envelope is None or self.exited:
            return []
        sends: list[Send] = []
        payload = envelope.payload
        if isinstance(payload, InitialMessage):
            self._handle_initial(envelope.sender, payload, sends)
        elif isinstance(payload, EchoMessage):
            self._handle_echo(envelope.sender, payload, sends)
        # Anything else is foreign traffic with no case arm: discarded.
        return sends

    # ------------------------------------------------------------------ #
    # Initial messages
    # ------------------------------------------------------------------ #

    def _handle_initial(
        self, sender: int, message: InitialMessage, sends: list[Send]
    ) -> None:
        if sender != message.origin:
            # Authentication (Section 3.1): refuse impersonated initials.
            self.forged_initials_dropped += 1
            return
        key = (message.origin, message.phaseno)
        if key in self._initials_seen:
            return
        self._initials_seen.add(key)
        if message.value not in (0, 1):
            # Malformed value from a malicious origin; nothing echoable.
            return
        # Echo to all processes, preserving the message's phase (including
        # the wildcard — echoes of a wildcard initial are wildcard echoes,
        # which is how the exit device's quorum regenerates for laggards).
        sends.extend(
            self._broadcast(
                EchoMessage(
                    origin=message.origin,
                    value=message.value,
                    phaseno=message.phaseno,
                )
            )
        )

    # ------------------------------------------------------------------ #
    # Echo messages
    # ------------------------------------------------------------------ #

    def _handle_echo(
        self, sender: int, message: EchoMessage, sends: list[Send]
    ) -> None:
        if message.value not in (0, 1) or not 0 <= message.origin < self.n:
            return
        if message.phaseno is STAR:
            self._handle_star_echo(sender, message, sends)
            return
        if not isinstance(message.phaseno, int):
            return
        if message.phaseno < self.phaseno:
            return  # Stale: no case arm in Figure 2, discarded.
        receipts = self._echoes_seen.get(message.phaseno)
        if receipts is None:
            receipts = self._echoes_seen[message.phaseno] = set()
        key = (sender, message.origin)
        if key in receipts:
            return
        receipts.add(key)
        if message.phaseno > self.phaseno:
            self._deferred.append((sender, message))
            return
        self._apply_echo(message.origin, message.value)
        if self._phase_complete():
            self._advance_phases(sends)

    def _handle_star_echo(
        self, sender: int, message: EchoMessage, sends: list[Send]
    ) -> None:
        """Wildcard echo: credit it once, then re-apply it in every phase."""
        credit = (sender, message.origin, message.value)
        if credit in self._star_credits:
            return
        self._star_credits.add(credit)
        self._apply_echo(message.origin, message.value, star=True)
        if self._phase_complete():
            self._advance_phases(sends)

    def _apply_echo(self, origin: int, value: int, star: bool = False) -> None:
        metrics = self.metrics
        if metrics is not None:
            metrics.inc("malicious.echoes_counted")
        if star:
            self._star_echo_count[(origin, value)] += 1
        self._echo_count[(origin, value)] += 1
        if self._echo_count[(origin, value)] == self._accept_at:
            if origin in self._accepted_origins:
                # Two same-phase echo quorums for one origin need
                # > n+k distinct senders — impossible within the bound.
                # Wildcard credits void that arithmetic: a lagging
                # process can hold a regular quorum for the origin's old
                # value plus a star quorum for the decided one, which is
                # the Section 3.3 exit device working as intended, not
                # equivocation.  Ignore the conflict (never double-count
                # the origin) and only flag star-free ones.
                star_assisted = (
                    self._star_echo_count.get((origin, 0), 0)
                    or self._star_echo_count.get((origin, 1), 0)
                )
                if self._enforce_invariants and not star_assisted:
                    raise InvariantViolation(
                        f"process {self.pid} accepted two values from "
                        f"origin {origin} in phase {self.phaseno} — "
                        "impossible within the k ≤ ⌊(n−1)/3⌋ bound"
                    )
                return
            self._accepted_origins.add(origin)
            self.message_count[value] += 1
            if metrics is not None:
                metrics.inc("malicious.accepts")
            if self.accept_hook is not None:
                self.accept_hook(self.pid, self.phaseno, origin, value)

    def _phase_complete(self) -> bool:
        return self.message_count[0] + self.message_count[1] >= self.n - self.k

    # ------------------------------------------------------------------ #
    # Phase transitions
    # ------------------------------------------------------------------ #

    def _advance_phases(self, sends: list[Send]) -> None:
        """End the phase; possibly decide; open the next phase.

        Replaying deferred echoes (and wildcard credits) can complete the
        next phase immediately, hence the loop.  Wildcard credits alone
        can complete a phase (they count in every phase); a budget of one
        such star-only completion per atomic step keeps the loop finite —
        within the resilience bound a star-only completion always carries
        a unanimous value and decides the process, but out-of-bound
        experiments could otherwise spin forever on conflicting credits.
        """
        star_only_budget = [1]
        metrics = self.metrics
        while True:
            if metrics is not None:
                accepted = self.message_count[0] + self.message_count[1]
                metrics.inc(f"malicious.accepts.phase.{self.phaseno}", accepted)
                metrics.observe("malicious.accepts_per_phase", accepted)
            self.value = majority_value(self.message_count[0], self.message_count[1])
            decided_now = None
            for candidate in (0, 1):
                if self.message_count[candidate] >= self._decide_at:
                    decided_now = candidate
            if decided_now is not None:
                self._decide(decided_now)
            self._echoes_seen.pop(self.phaseno, None)
            self.phaseno += 1
            self.message_count = [0, 0]
            self._echo_count = defaultdict(int)
            self._star_echo_count = defaultdict(int)
            self._accepted_origins = set()
            if self.decided and self.exit_after_decide:
                self._send_exit_device(sends)
                self.exited = True
                return
            sends.extend(self._phase_open_sends())
            if not self._replay_pending(star_only_budget):
                return

    def _send_exit_device(self, sends: list[Send]) -> None:
        """Section 3.3: broadcast wildcard initial + echoes for all origins.

        Once a correct process has decided i, every correct process holds
        value i from that phase on (Theorem 4's consistency argument), so
        vouching i on behalf of all n origins is sound.
        """
        decided_value = self.decision.value
        sends.extend(
            self._broadcast(
                InitialMessage(origin=self.pid, value=decided_value, phaseno=STAR)
            )
        )
        for origin in range(self.n):
            sends.extend(
                self._broadcast(
                    EchoMessage(origin=origin, value=decided_value, phaseno=STAR)
                )
            )

    def _replay_pending(self, star_only_budget: list[int]) -> bool:
        """Apply wildcard credits and now-current deferred echoes.

        Returns True when they completed the phase (caller transitions
        again), False when more network input is needed.

        ``star_only_budget`` is a one-element counter shared across the
        phase-advance loop: completing a phase from wildcard credits
        *alone* decrements it, and once spent, star-only completions are
        refused for the rest of this atomic step (see
        :meth:`_advance_phases`).
        """
        completed = False
        if star_only_budget[0] > 0:
            for sender, origin, value in sorted(self._star_credits):
                self._apply_echo(origin, value, star=True)
                if self._phase_complete():
                    completed = True
                    star_only_budget[0] -= 1
                    break
        # Budget spent: skip the credits this round.  They are only
        # load-bearing in decided-heavy endgames, where the next network
        # delivery re-enters this path with a fresh budget.
        if not completed and self._deferred:
            still_deferred: list[tuple[int, EchoMessage]] = []
            for sender, message in self._deferred:
                if message.phaseno < self.phaseno:
                    continue  # went stale while deferred
                if message.phaseno > self.phaseno or completed:
                    still_deferred.append((sender, message))
                    continue
                self._apply_echo(message.origin, message.value)
                if self._phase_complete():
                    completed = True
            self._deferred = still_deferred
        return completed

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def accepted_this_phase(self) -> int:
        """Number of origins accepted so far in the current phase."""
        return len(self._accepted_origins)

    def state_key(self) -> tuple:
        """Hashable snapshot of the protocol state (for exhaustive search)."""
        return (
            self.value,
            self.phaseno,
            tuple(self.message_count),
            tuple(sorted(self._echo_count.items())),
            tuple(sorted(self._accepted_origins)),
            frozenset(self._initials_seen),
            frozenset((t, frozenset(r)) for t, r in self._echoes_seen.items()),
            tuple(sorted(
                (s, m.origin, m.value, m.phaseno) for s, m in self._deferred
            )),
            frozenset(self._star_credits),
            self.exited,
            self.decision.get(),
        )
