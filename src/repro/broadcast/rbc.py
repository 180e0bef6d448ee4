"""Bracha reliable broadcast: the lineage of Figure 2's echo mechanism.

The initial/echo pattern of Figure 2 is the direct ancestor of Bracha's
reliable broadcast (Bracha 1987, "Asynchronous Byzantine agreement
protocols"), which adds a *ready* amplification layer and is the
building block of modern asynchronous BFT systems (HoneyBadgerBFT and
its descendants).  This module is the one home of that echo/ready
machine, :class:`ReliableBroadcast`; every instance is keyed by a tag:

* the tag's origin sends ``Send(v)`` to all;
* on the first ``Send`` of a tag: send ``Echo(v)`` to all;
* on ⌈(n+t+1)/2⌉ ``Echo(v)``, or t+1 ``Ready(v)``, of one tag and one
  value: send ``Ready(v)`` to all (once per tag);
* on 2t+1 ``Ready(v)`` of one tag and one value: *deliver* v (once per
  tag).

Guarantees with n > 3t (the same bound as Theorem 3/4), per tag:

* validity — a correct origin's value is delivered by all correct
  processes;
* agreement — no two correct processes deliver different values;
* totality — if any correct process delivers, every correct process
  eventually delivers.

A Byzantine origin can equivocate; the echo quorum intersection then
guarantees at most one value can ever gather a ready quorum — either
nobody delivers, or everybody delivers the same value.

Two protocols drive the engine.  :class:`ReliableBroadcastProcess` is
the single-shot broadcast (one instance, tag ``None``);
:class:`~repro.broadcast.agreement.BrachaAgreementProcess` runs one
instance per (origin, round, step).  Each authenticates a ``Send`` (only
the tag's origin may open an instance) before the engine sees it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional

from repro.core.messages import payload
from repro.errors import ConfigurationError
from repro.net.message import Envelope
from repro.procs.base import Process, Send


@payload
@dataclass(frozen=True, slots=True)
class RbcSend:
    """The origin's message opening instance ``tag``: ``Send(value)``."""

    value: Any
    tag: Any = None


@payload
@dataclass(frozen=True, slots=True)
class RbcEcho:
    """First-tier relay: "I received ``Send(value)`` for ``tag``"."""

    value: Any
    tag: Any = None


@payload
@dataclass(frozen=True, slots=True)
class RbcReady:
    """Second-tier amplification: "a quorum stands behind ``value``"."""

    value: Any
    tag: Any = None


#: The three message kinds, for ``isinstance`` filters.
RBC_MESSAGES = (RbcSend, RbcEcho, RbcReady)


class ReliableBroadcast:
    """One process's echo/ready state for every instance, keyed by tag.

    The caller authenticates ``Send`` messages and drops ill-formed
    values; :meth:`receive` does the rest.  Senders are counted per
    (tag, value), so neither instances nor values ever pool.

    Args:
        n: total number of processes.
        t: maximum number of Byzantine processes; requires n > 3t.
    """

    def __init__(self, n: int, t: int) -> None:
        if t < 0 or n <= 3 * t:
            raise ConfigurationError(
                f"reliable broadcast needs n > 3t; got n={n}, t={t}"
            )
        self.n = n
        self.echo_quorum = math.ceil((n + t + 1) / 2)
        self.ready_amplify = t + 1
        self.ready_deliver = 2 * t + 1
        #: tag → delivered value.
        self.delivered: dict[Any, Any] = {}
        self._echoed: set[Any] = set()
        self._readied: set[Any] = set()
        #: (message kind, tag, value) → the pids that sent it.
        self._senders: dict[tuple[type, Any, Any], set[int]] = {}

    def receive(
        self, sender: int, message: RbcSend | RbcEcho | RbcReady, sends: list[Send]
    ) -> bool:
        """Count ``message`` from ``sender`` and append the sends it
        triggers; True iff it delivers ``message.value`` for its tag."""
        tag, value = message.tag, message.value
        if isinstance(message, RbcSend):
            if tag not in self._echoed:
                self._echoed.add(tag)
                sends.extend(self._to_all(RbcEcho(value, tag)))
            return False
        senders = self._senders.setdefault((type(message), tag, value), set())
        senders.add(sender)
        echo = isinstance(message, RbcEcho)
        quorum = self.echo_quorum if echo else self.ready_amplify
        if len(senders) >= quorum and tag not in self._readied:
            self._readied.add(tag)
            sends.extend(self._to_all(RbcReady(value, tag)))
        if echo or len(senders) < self.ready_deliver or tag in self.delivered:
            return False
        self.delivered[tag] = value
        return True

    def _to_all(self, payload: Any) -> list[Send]:
        return [Send(recipient, payload) for recipient in range(self.n)]


class ReliableBroadcastProcess(Process):
    """One correct participant in a single-shot reliable broadcast.

    Args:
        pid: this process's id.
        n: total number of processes.
        t: maximum number of Byzantine processes; requires n > 3t.
        broadcaster: pid of the designated sender.
        value: the value to broadcast (only used when
            ``pid == broadcaster``); hashable, like every value received.
    """

    def __init__(
        self,
        pid: int,
        n: int,
        t: int,
        broadcaster: int,
        value: Any = None,
    ) -> None:
        super().__init__(pid, n)
        self.rbc = ReliableBroadcast(n, t)
        if not 0 <= broadcaster < n:
            raise ConfigurationError(f"broadcaster {broadcaster} out of range")
        try:
            hash(value)
        except TypeError as exc:
            raise ConfigurationError(f"unhashable broadcast value {value!r}") from exc
        self.broadcaster = broadcaster
        self.value = value
        self.input_value = value if isinstance(value, int) and value in (0, 1) else 0
        self.delivered: Any = None
        self.has_delivered = False

    @property
    def echo_quorum(self) -> int:
        """Echoes of one value that make this process ready."""
        return self.rbc.echo_quorum

    def start(self) -> list[Send]:
        if self.pid == self.broadcaster:
            return self._broadcast(RbcSend(self.value))
        return []

    def step(self, envelope: Optional[Envelope]) -> list[Send]:
        if envelope is None or self.exited:
            return []
        payload = envelope.payload
        if not isinstance(payload, RBC_MESSAGES) or payload.tag is not None:
            return []
        try:
            hash(payload.value)  # the engine counts senders per value
        except TypeError:
            return []
        if isinstance(payload, RbcSend) and envelope.sender != self.broadcaster:
            return []
        sends: list[Send] = []
        if self.rbc.receive(envelope.sender, payload, sends):
            self.delivered = payload.value
            self.has_delivered = True
            if payload.value in (0, 1):
                # Reuse the decision register for binary payloads so the
                # standard result validation applies.
                self._decide(payload.value)
            self.exited = True
        return sends


class EquivocatingBroadcaster(Process):
    """A Byzantine broadcaster that sends different values to each half.

    Used by the tests to check the agreement/totality guarantees: with
    n > 3t, either no correct process delivers, or all deliver the same
    one of the two values — never a split.
    """

    is_correct = False

    def __init__(
        self,
        pid: int,
        n: int,
        value_low: Any = 0,
        value_high: Any = 1,
        split_at: int | None = None,
    ) -> None:
        super().__init__(pid, n)
        self.value_low = value_low
        self.value_high = value_high
        # Where the lie changes: recipients below get value_low, the rest
        # value_high.  An even split starves both echo quorums (nobody
        # delivers); a lopsided one lets the bigger camp's value win and
        # totality carries it to everyone.
        self.split_at = n // 2 if split_at is None else split_at
        self.input_value = 0

    def start(self) -> list[Send]:
        sends = [
            Send(
                recipient,
                RbcSend(
                    self.value_low
                    if recipient < self.split_at
                    else self.value_high
                ),
            )
            for recipient in range(self.n)
        ]
        self.exited = True
        return sends

    def step(self, envelope: Optional[Envelope]) -> list[Send]:
        return []
