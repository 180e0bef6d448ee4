"""Ben-Or's randomized consensus protocol ([BenO83]).

The comparison baseline discussed in the paper's introduction and
conclusion: "The protocols are similar to those given in this paper, but
randomization is incorporated in the protocol itself.  They have an
exponential expected termination time in the fail-stop case, and, in the
malicious case, they can overcome up to n/5 malicious processes."

Each round r has two steps:

1. *Report*: broadcast ``(R, r, value)``; collect n−t round-r reports.
   If more than the report threshold carry the same value v, propose v;
   otherwise propose ⊥.
2. *Proposal*: broadcast ``(P, r, proposal)``; collect n−t round-r
   proposals.  If more than ``decide_quota`` proposals carry the same
   value v ≠ ⊥, decide v.  If more than ``adopt_quota`` do, adopt v.
   Otherwise flip a fair local coin.

Thresholds by fault model (the standard instantiations):

* fail-stop, t < n/2: report threshold n/2, decide quota t, adopt
  quota 0 (any single v-proposal is safe because two different non-⊥
  proposals cannot coexist in a round);
* malicious, t < n/5: report threshold (n+t)/2, decide quota 2t, adopt
  quota t (quotas must exceed what t liars can fabricate).

Like Figure 2 as printed, decided processes keep participating with
their decided value, which keeps laggards live; simulations halt when
every correct process has decided.

The local coin is drawn from the simulation's seeded RNG (the kernel
injects it), so Ben-Or runs replay deterministically by seed too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.core.messages import payload
from repro.errors import ConfigurationError, InvariantViolation
from repro.net.message import Envelope
from repro.procs.base import Process, Send

#: Sentinel for the "no proposal" value ⊥.
BOTTOM = None


@payload
@dataclass(frozen=True, slots=True)
class BenOrReport:
    """Step-1 message ``(R, round, value)``."""

    round: int
    value: int


@payload
@dataclass(frozen=True, slots=True)
class BenOrProposal:
    """Step-2 message ``(P, round, proposal)``; ``value is None`` means ⊥."""

    round: int
    value: Optional[int]


class BenOrConsensus(Process):
    """One process running Ben-Or's protocol.

    Args:
        pid: this process's id.
        n: total number of processes.
        t: fault tolerance parameter.
        input_value: initial value in {0, 1}.
        fault_model: ``"fail-stop"`` (t < n/2) or ``"malicious"``
            (t < n/5); selects the standard thresholds.
        seed: optional private RNG seed; by default the simulation kernel
            injects its run RNG for reproducibility.
    """

    def __init__(
        self,
        pid: int,
        n: int,
        t: int,
        input_value: int,
        fault_model: str = "fail-stop",
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(pid, n)
        if input_value not in (0, 1):
            raise InvariantViolation(
                f"input value must be 0 or 1, got {input_value!r}"
            )
        if t < 0:
            raise ConfigurationError(f"t must be >= 0, got {t}")
        if fault_model == "fail-stop":
            if 2 * t >= n:
                raise ConfigurationError(
                    f"fail-stop Ben-Or needs t < n/2; got n={n}, t={t}"
                )
            self.report_quota = n // 2  # strictly more than n/2 reports
            self.adopt_quota = 0  # any single non-⊥ proposal
            self.decide_quota = t  # more than t proposals
        elif fault_model == "malicious":
            if 5 * t >= n:
                raise ConfigurationError(
                    f"malicious Ben-Or needs t < n/5; got n={n}, t={t}"
                )
            self.report_quota = (n + t) // 2  # strictly more than (n+t)/2
            self.adopt_quota = t  # more than t proposals
            self.decide_quota = 2 * t  # more than 2t proposals
        else:
            raise ConfigurationError(f"unknown fault model {fault_model!r}")
        self.t = t
        self.fault_model = fault_model
        self.input_value = input_value
        self.value = input_value
        self.round = 0
        self.stage = "report"  # "report" | "proposal"
        self.rng: Optional[random.Random] = (
            random.Random(seed) if seed is not None else None
        )
        self._report_counts = [0, 0]
        self._report_senders: set[int] = set()
        self._proposal_counts: dict[Optional[int], int] = {0: 0, 1: 0, BOTTOM: 0}
        self._proposal_senders: set[int] = set()
        self._deferred: list[tuple[int, object]] = []
        self.coin_flips = 0

    # Expose a phase number so shared tooling (results, metrics) can
    # compare rounds with the Bracha–Toueg protocols' phases.
    @property
    def phaseno(self) -> int:
        """Current round (alias used by the shared metrics)."""
        return self.round

    # ------------------------------------------------------------------ #
    # Atomic steps
    # ------------------------------------------------------------------ #

    def start(self) -> list[Send]:
        """Open round 0 with a report broadcast."""
        return self._broadcast(BenOrReport(round=0, value=self.value))

    def step(self, envelope: Optional[Envelope]) -> list[Send]:
        if envelope is None or self.exited:
            return []
        sends: list[Send] = []
        self._dispatch(envelope.sender, envelope.payload, sends)
        return sends

    # ------------------------------------------------------------------ #
    # Message handling
    # ------------------------------------------------------------------ #

    def _dispatch(self, sender: int, payload: object, sends: list[Send]) -> None:
        if isinstance(payload, BenOrReport):
            if payload.value not in (0, 1):
                return
            if payload.round == self.round and self.stage == "report":
                self._count_report(sender, payload)
                if self._reports_complete():
                    self._finish_report_stage(sends)
            elif payload.round > self.round:
                self._deferred.append((sender, payload))
            # Same-round reports arriving during the proposal stage are
            # surplus (we already have our n−t view); stale ones dropped.
        elif isinstance(payload, BenOrProposal):
            if payload.value not in (0, 1, BOTTOM):
                return
            if payload.round == self.round and self.stage == "proposal":
                self._count_proposal(sender, payload)
                if self._proposals_complete():
                    self._finish_proposal_stage(sends)
            elif payload.round > self.round or (
                payload.round == self.round and self.stage == "report"
            ):
                self._deferred.append((sender, payload))

    def _count_report(self, sender: int, report: BenOrReport) -> None:
        if sender in self._report_senders:
            return
        self._report_senders.add(sender)
        self._report_counts[report.value] += 1

    def _count_proposal(self, sender: int, proposal: BenOrProposal) -> None:
        if sender in self._proposal_senders:
            return
        self._proposal_senders.add(sender)
        self._proposal_counts[proposal.value] += 1

    def _reports_complete(self) -> bool:
        return len(self._report_senders) >= self.n - self.t

    def _proposals_complete(self) -> bool:
        return len(self._proposal_senders) >= self.n - self.t

    # ------------------------------------------------------------------ #
    # Stage transitions
    # ------------------------------------------------------------------ #

    def _finish_report_stage(self, sends: list[Send]) -> None:
        proposal_value: Optional[int] = BOTTOM
        for candidate in (0, 1):
            if self._report_counts[candidate] > self.report_quota:
                proposal_value = candidate
        self.stage = "proposal"
        self._proposal_counts = {0: 0, 1: 0, BOTTOM: 0}
        self._proposal_senders = set()
        sends.extend(
            self._broadcast(BenOrProposal(round=self.round, value=proposal_value))
        )
        self._drain_deferred(sends)

    def _finish_proposal_stage(self, sends: list[Send]) -> None:
        decided_value: Optional[int] = None
        adopted: Optional[int] = None
        for candidate in (0, 1):
            count = self._proposal_counts[candidate]
            if count > self.decide_quota:
                decided_value = candidate
            if count > self.adopt_quota:
                adopted = candidate
        if decided_value is not None:
            self._decide(decided_value)
            self.value = decided_value
        elif adopted is not None:
            self.value = adopted
        else:
            self.value = self._flip_coin()
        self.round += 1
        self.stage = "report"
        self._report_counts = [0, 0]
        self._report_senders = set()
        sends.extend(self._broadcast(BenOrReport(round=self.round, value=self.value)))
        self._drain_deferred(sends)

    def _flip_coin(self) -> int:
        """The protocol-internal randomness Ben-Or is famous for."""
        self.coin_flips += 1
        if self.metrics is not None:
            self.metrics.inc("benor.coin_flips")
        return self._coin_rng().randrange(2)

    def _drain_deferred(self, sends: list[Send]) -> None:
        """Feed deferred messages matching the current (round, stage).

        Completing a stage emits the next stage's broadcast, which may in
        turn be completable from deferred input, so the stage finishers
        and this drain recurse into each other; depth is bounded by the
        number of buffered future stages.
        """
        while True:
            index = self._find_applicable()
            if index is None:
                return
            sender, payload = self._deferred.pop(index)
            if isinstance(payload, BenOrReport):
                self._count_report(sender, payload)
                if self._reports_complete():
                    self._finish_report_stage(sends)
                    return
            else:
                self._count_proposal(sender, payload)
                if self._proposals_complete():
                    self._finish_proposal_stage(sends)
                    return

    def _find_applicable(self) -> Optional[int]:
        """Index of a deferred message for the current (round, stage).

        Prunes entries that went stale (earlier rounds) along the way.
        """
        fresh = [
            (sender, payload)
            for sender, payload in self._deferred
            if payload.round >= self.round
        ]
        self._deferred = fresh
        for index, (sender, payload) in enumerate(self._deferred):
            if payload.round != self.round:
                continue
            if isinstance(payload, BenOrReport) and self.stage == "report":
                return index
            if isinstance(payload, BenOrProposal) and self.stage == "proposal":
                return index
        return None
