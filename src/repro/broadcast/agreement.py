"""Bracha's asynchronous Byzantine agreement — the paper's sequel.

Figure 2's initial/echo mechanism became reliable broadcast
(:mod:`repro.broadcast.rbc`), and Bracha's 1987 follow-up composed that
primitive with Ben-Or-style rounds to push local-coin Byzantine
agreement from [BenO83]'s n > 5t to the optimal n > 3t — the lineage
this package exists to make executable.  This module implements that
composition, including the **validation** layer that makes n > 3t work.

Two mechanisms stack:

* **Reliable broadcast** — every protocol message is disseminated
  through its own instance of :mod:`repro.broadcast.rbc`'s engine,
  tagged (origin, round, step) with content (value, marked,
  justifiers), so a Byzantine process cannot equivocate within a
  message: all correct processes agree on what everyone said.  Before
  the engine sees a message, ill-formed content and a ``Send`` not from
  the tag's origin are dropped; every delivery goes through
  :meth:`BrachaAgreementProcess._on_rbc_delivery`.
* **Validation** — every message (except a round-0 step-1 input, which
  is free) carries its *justification*: the n−t origins of the
  previous-step messages its sender used.  A receiver accepts a message
  only after it has itself RBC-delivered and validated every justifier
  and checked that the protocol, fed those messages, would indeed say
  what the sender said.  Because verdicts are functions of RBC-delivered
  content only, they are *objective*: every correct process reaches the
  same verdict on every message.  A Byzantine process can still lie with
  its round-0 input and its coin flips (both genuinely free choices),
  but it cannot misreport a state transition — which is exactly what
  confines its influence to the Ben-Or-style thresholds.

The round structure (all counts over *validated* deliveries):

1. broadcast the value; on n−t step-1 deliveries adopt the majority;
2. broadcast it; on n−t step-2 deliveries, mark value u a decision
   candidate ``D`` if u held a strict majority **of n** in the sample;
3. broadcast (value, D?); on n−t step-3 deliveries with d = number of
   D-marks (all necessarily for one u — two D-quorums of n cannot
   coexist): decide u if d > 2t; adopt u if d ≥ 1 (a validated D proves
   a real quorum, and any n−t sample meets the ≥ t+1 correct D-senders
   behind a decision — the decide→adopt cascade); coin otherwise.

Validity rules, per step s of round r (J = the justifying origins):

* (r=0, s=1): any value; no justification.
* (r>0, s=1): J ⊆ valid step-3 of r−1, |J| ≥ n−t; if J contains a
  D(u), the value must be u; otherwise any value (a coin).
* (s=2): J ⊆ valid step-1 of r, |J| ≥ n−t; value = majority of J.
* (s=3): J ⊆ valid step-2 of r, |J| ≥ n−t; if marked, the value must
  hold > n/2 of J; if unmarked, no value may hold > n/2 of J and the
  value must be J's majority.

A message citing an invalid justifier is itself invalid (discarded); a
message citing a not-yet-seen justifier waits.  Correct processes'
messages always validate everywhere, so waiting never blocks liveness.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.broadcast.rbc import RBC_MESSAGES, RbcSend, ReliableBroadcast
from repro.core.common import majority_value
from repro.errors import InvariantViolation
from repro.net.message import Envelope
from repro.procs.base import Process, Send

#: RBC instance key: (origin, round, step).
Tag = tuple[int, int, int]

#: The content of one RBC instance: (value, marked, justifiers).
Content = tuple[int, bool, Optional[frozenset[int]]]


def _well_formed(message) -> bool:
    """An (origin, round, step) tag of ints and a (value in {0, 1},
    marked flag, justifiers ``None`` or frozenset) content."""
    tag, content = message.tag, message.value
    return (
        isinstance(tag, tuple)
        and len(tag) == 3
        and all(isinstance(field, int) for field in tag)
        and isinstance(content, tuple)
        and len(content) == 3
        and content[0] in (0, 1)
        and isinstance(content[1], bool)
        and (content[2] is None or isinstance(content[2], frozenset))
    )


class BrachaAgreementProcess(Process):
    """One correct participant in Bracha's Byzantine agreement.

    Args:
        pid: this process's id.
        n: total number of processes.
        t: Byzantine tolerance; requires n > 3t (the Theorem 3/4 bound).
        input_value: initial value in {0, 1}.
        seed: private coin seed; the kernel injects the run RNG otherwise.
    """

    def __init__(
        self,
        pid: int,
        n: int,
        t: int,
        input_value: int,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(pid, n)
        self.rbc = ReliableBroadcast(n, t)
        if input_value not in (0, 1):
            raise InvariantViolation(
                f"input value must be 0 or 1, got {input_value!r}"
            )
        self.t = t
        self.input_value = input_value
        self.value = input_value
        self.round = 0
        self.round_step = 1
        self.rng: Optional[random.Random] = (
            random.Random(seed) if seed is not None else None
        )
        self.coin_flips = 0
        # Validated messages: (round, step) → origin → (value, marked).
        self._valid: dict[tuple[int, int], dict[int, tuple[int, bool]]] = {}
        # Origins whose (round, step) message was judged invalid.
        self._invalid: dict[tuple[int, int], set[int]] = {}
        # Delivered-but-unresolved messages awaiting their justifiers.
        self._parked: dict[Tag, Content] = {}
        # The valid-message origins this process used to complete each
        # (round, step) — its own justification for the next broadcast.
        self._used: dict[tuple[int, int], frozenset[int]] = {}

    # Expose rounds to the shared metrics.
    @property
    def phaseno(self) -> int:
        """Current round (alias used by the shared metrics)."""
        return self.round

    # ------------------------------------------------------------------ #
    # Atomic steps
    # ------------------------------------------------------------------ #

    def start(self) -> list[Send]:
        """Open round 0, step 1 by reliably broadcasting the input."""
        return self._rbc_broadcast(self.value, marked=False, justifiers=None)

    def step(self, envelope: Optional[Envelope]) -> list[Send]:
        """Feed one envelope through the RBC engine, then the round logic."""
        if envelope is None or self.exited:
            return []
        payload = envelope.payload
        if not isinstance(payload, RBC_MESSAGES) or not _well_formed(payload):
            return []
        if isinstance(payload, RbcSend) and envelope.sender != payload.tag[0]:
            return []  # transport authentication: only the origin may Send
        sends: list[Send] = []
        if self.rbc.receive(envelope.sender, payload, sends):
            self._on_rbc_delivery(payload.tag, payload.value, sends)
        return sends

    def _rbc_broadcast(
        self,
        value: int,
        marked: bool,
        justifiers: Optional[frozenset[int]],
    ) -> list[Send]:
        tag: Tag = (self.pid, self.round, self.round_step)
        return self._broadcast(RbcSend((value, marked, justifiers), tag))

    def _on_rbc_delivery(self, tag: Tag, content: Content, sends: list[Send]) -> None:
        """Park one delivered message and judge what it unblocks."""
        self._parked[tag] = content
        self._resolve_and_advance(sends)

    # ------------------------------------------------------------------ #
    # Validation (objective verdicts over RBC-consistent content)
    # ------------------------------------------------------------------ #

    def _resolve_and_advance(self, sends: list[Send]) -> None:
        """Run verdicts to a fixpoint, then any enabled round steps."""
        changed = True
        while changed:
            changed = False
            for tag in list(self._parked):
                verdict = self._judge(tag, self._parked[tag])
                if verdict is None:
                    continue
                origin, msg_round, msg_step = tag
                value, marked, _justifiers = self._parked.pop(tag)
                if verdict:
                    bucket = self._valid.setdefault((msg_round, msg_step), {})
                    bucket.setdefault(origin, (value, marked))
                else:
                    self._invalid.setdefault((msg_round, msg_step), set()).add(
                        origin
                    )
                changed = True
        self._advance(sends)

    def _judge(self, tag: Tag, content: Content) -> Optional[bool]:
        """True = valid, False = invalid, None = justifiers still pending."""
        origin, msg_round, msg_step = tag
        value, marked, justifiers = content
        if msg_step not in (1, 2, 3) or msg_round < 0:
            return False
        if marked and msg_step != 3:
            return False
        if msg_step == 1 and msg_round == 0:
            return justifiers is None or len(justifiers) == 0
        if justifiers is None or len(justifiers) < self.n - self.t:
            return False
        if not justifiers <= set(range(self.n)):
            return False
        dependency = (
            (msg_round - 1, 3) if msg_step == 1 else (msg_round, msg_step - 1)
        )
        valid_bucket = self._valid.get(dependency, {})
        invalid_bucket = self._invalid.get(dependency, set())
        if justifiers & invalid_bucket:
            return False  # cites garbage: guilty by citation
        if not justifiers <= set(valid_bucket):
            return None  # justification still arriving
        cited = [valid_bucket[o] for o in sorted(justifiers)]
        ones = sum(v for v, _m in cited)
        zeros = len(cited) - ones
        if msg_step == 1:
            candidates = {v for v, m in cited if m}
            if candidates:
                (candidate,) = candidates
                return value == candidate
            return True  # no candidate cited: the value is a coin, free
        if msg_step == 2:
            return value == majority_value(zeros, ones)
        # Step 3.
        count = ones if value == 1 else zeros
        if marked:
            return count * 2 > self.n
        if max(ones, zeros) * 2 > self.n:
            return False  # saw a quorum but failed to mark it: a lie
        return value == majority_value(zeros, ones)

    # ------------------------------------------------------------------ #
    # The round logic (over validated deliveries)
    # ------------------------------------------------------------------ #

    def _advance(self, sends: list[Send]) -> None:
        """Run as many (round, step) completions as valid messages allow."""
        while not self.exited:
            bucket = self._valid.get((self.round, self.round_step), {})
            if len(bucket) < self.n - self.t:
                return
            used_items = list(bucket.items())[: self.n - self.t]
            used = frozenset(origin for origin, _content in used_items)
            self._used[(self.round, self.round_step)] = used
            sample = [content for _origin, content in used_items]
            ones = sum(v for v, _m in sample)
            zeros = len(sample) - ones
            if self.round_step == 1:
                self.value = majority_value(zeros, ones)
                self.round_step = 2
                sends.extend(
                    self._rbc_broadcast(self.value, marked=False, justifiers=used)
                )
            elif self.round_step == 2:
                marked = False
                for candidate, count in ((1, ones), (0, zeros)):
                    if count * 2 > self.n:  # strict majority of n
                        self.value = candidate
                        marked = True
                self.round_step = 3
                sends.extend(
                    self._rbc_broadcast(self.value, marked=marked, justifiers=used)
                )
            else:
                candidates = {v for v, m in sample if m}
                if len(candidates) > 1:
                    raise InvariantViolation(
                        f"process {self.pid} saw validated D-marks for both "
                        f"values in round {self.round} — two step-2 majority "
                        "quorums of n cannot coexist"
                    )
                d_count = sum(1 for _v, m in sample if m)
                if candidates:
                    (candidate,) = candidates
                    if d_count > 2 * self.t:
                        self._decide(candidate)
                    # A validated mark proves a real step-2 quorum: adopt.
                    self.value = candidate
                else:
                    self.value = self._flip_coin()
                self.round += 1
                self.round_step = 1
                # Decided processes keep participating (like Figure 2 as
                # printed); with validation in force, unanimity among the
                # correct is absorbing, so they never waver again.
                sends.extend(
                    self._rbc_broadcast(self.value, marked=False, justifiers=used)
                )

    def _flip_coin(self) -> int:
        self.coin_flips += 1
        return self._coin_rng().randrange(2)
