"""Byzantine (malicious) process implementations.

Section 3.1: "A malicious process can send false and contradictory
messages (even according to some malicious design), can fail to send
messages, and can change its internal state to any other state."

Two families live here:

* Standalone adversaries (:class:`SilentByzantine`,
  :class:`RandomNoiseByzantine`) that ignore protocol structure entirely.
* Protocol-aware adversaries built by subclassing the correct protocols
  and overriding the ``_phase_open_sends`` hook: they run the honest
  machinery (so they stay engaged, echo, and keep phase-synchronised —
  maximally influential, as Section 4 assumes) but lie about their value:

  - :class:`BalancingEchoByzantine` — the Section 4 worst case: "they
    will try to balance the number of 1 and 0 messages in the system."
  - :class:`EquivocatingEchoByzantine` — sends value 0 to half the
    processes and 1 to the other half, the attack that Figure 2's echo
    quorums neutralise (and that demonstrably breaks the echo-less
    Section 4.1 variant — see the adversarial tests).
  - :class:`AntiMajorityEchoByzantine` — always advertises the opposite
    of its honestly computed value, pulling against convergence.

All Byzantine classes set ``is_correct = False`` so the kernel excludes
them from agreement/termination accounting, and none of them can make a
run's transport layer lie: the message system stamps their true sender
id on every envelope.

:data:`BYZANTINE_STRATEGIES` is the one place a Byzantine behaviour's
name is bound to its class; fault plans, the cluster's
``byzantine_kind`` and the experiments all name strategies from it, and
:func:`build_byzantine` constructs them.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.malicious import MaliciousConsensus
from repro.core.messages import EchoMessage, InitialMessage, SimpleMessage
from repro.core.simple_majority import SimpleMajorityConsensus
from repro.errors import ConfigurationError
from repro.net.message import Envelope
from repro.procs.base import Process, Send


class SilentByzantine(Process):
    """A malicious process that never sends anything.

    Operationally identical to an initially dead fail-stop process — the
    weakest Byzantine behaviour, useful as a liveness stressor (correct
    processes must complete phases with only n−k participants).
    """

    is_correct = False

    def __init__(self, pid: int, n: int, input_value: int = 0) -> None:
        super().__init__(pid, n)
        self.input_value = input_value

    def start(self) -> list[Send]:
        # Exit immediately: silence forever.  Marking exited lets the
        # scheduler skip the (pointless) delivery of mail to this process.
        self.exited = True
        return []

    def step(self, envelope: Optional[Envelope]) -> list[Send]:
        return []


class RandomNoiseByzantine(Process):
    """Sprays random well-formed messages of a protocol family.

    Every step it emits a few syntactically valid messages with random
    values and phases to random recipients.  This stresses input
    validation and the first-receipt deduplication: random noise must
    never be able to corrupt safety, only (slightly) waste steps.

    Args:
        family: ``"echo"`` (Figure 2 messages), ``"simple"`` (Section 4.1
            messages), or ``"failstop"`` (Figure 1 messages).
        phase_horizon: phases ahead of 0 the noise may claim.
        messages_per_step: how many messages to emit per atomic step.
    """

    is_correct = False

    def __init__(
        self,
        pid: int,
        n: int,
        family: str = "echo",
        input_value: int = 0,
        phase_horizon: int = 6,
        messages_per_step: int = 2,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(pid, n)
        if family not in ("echo", "simple", "failstop"):
            raise ValueError(f"unknown message family {family!r}")
        self.family = family
        self.input_value = input_value
        self.phase_horizon = phase_horizon
        self.messages_per_step = messages_per_step
        # Kernel injects the run RNG if this stays None.
        self.rng: Optional[random.Random] = random.Random(seed) if seed is not None else None

    def _random_payload(self, rng: random.Random):
        value = rng.randrange(2)
        phase = rng.randrange(self.phase_horizon)
        if self.family == "simple":
            return SimpleMessage(phaseno=phase, value=value)
        if self.family == "failstop":
            from repro.core.messages import FailStopMessage

            return FailStopMessage(
                phaseno=phase, value=value, cardinality=rng.randrange(self.n + 1)
            )
        if rng.random() < 0.5:
            # Forged initial: claims a random origin.  Correct receivers
            # drop it unless the origin matches this process's real id.
            origin = rng.randrange(self.n)
            return InitialMessage(origin=origin, value=value, phaseno=phase)
        return EchoMessage(
            origin=rng.randrange(self.n), value=value, phaseno=phase
        )

    def _noise(self) -> list[Send]:
        rng = self._coin_rng()
        return [
            Send(rng.randrange(self.n), self._random_payload(rng))
            for _ in range(self.messages_per_step)
        ]

    def start(self) -> list[Send]:
        return self._noise()

    def step(self, envelope: Optional[Envelope]) -> list[Send]:
        return self._noise()


class _ValueObservingEchoMixin:
    """Tracks correct initials per phase so adversaries can aim.

    Mixed into :class:`MaliciousConsensus` subclasses: records the values
    of the initial messages it sees, keyed by phase, before the honest
    handling runs.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._observed: dict[int, list[int]] = {}

    def _handle_initial(self, sender, message, sends) -> None:
        if (
            isinstance(message.phaseno, int)
            and sender == message.origin
            and sender != self.pid
            and message.value in (0, 1)
        ):
            counts = self._observed.setdefault(message.phaseno, [0, 0])
            counts[message.value] += 1
        super()._handle_initial(sender, message, sends)

    def _minority_value(self) -> int:
        """The value currently under-represented, per the freshest phase seen."""
        for phase in (self.phaseno, self.phaseno - 1):
            counts = self._observed.get(phase)
            if counts and counts != [0, 0]:
                return 0 if counts[0] < counts[1] else 1
        return 1 - self.value


class BalancingEchoByzantine(_ValueObservingEchoMixin, MaliciousConsensus):
    """Section 4's worst-case adversary against the Figure 2 protocol.

    Runs the honest Figure 2 machinery (echoes faithfully, completes
    phases) but each phase advertises the *minority* value among the
    correct initials it has observed, trying to keep the system balanced
    between 0 and 1 — "the worst that the malicious processes can do is
    to try to balance the number of 1- and 0-messages" (§4.2).
    """

    is_correct = False

    def _phase_open_sends(self) -> list[Send]:
        lie = self._minority_value()
        return self._broadcast(
            InitialMessage(origin=self.pid, value=lie, phaseno=self.phaseno)
        )


class EquivocatingEchoByzantine(MaliciousConsensus):
    """Tells half the processes 0 and the other half 1, every phase.

    Against Figure 2 this is futile by design: correct processes echo
    only the first initial they receive from this process per phase, and
    no value can gather more than (n+k)/2 echoes unless a quorum of
    correct processes echoed the *same* one — so at most one of the two
    lies is ever accepted, system-wide.
    """

    is_correct = False

    def _phase_open_sends(self) -> list[Send]:
        half = self.n // 2
        return [
            Send(
                recipient,
                InitialMessage(
                    origin=self.pid,
                    value=0 if recipient < half else 1,
                    phaseno=self.phaseno,
                ),
            )
            for recipient in range(self.n)
        ]


class AntiMajorityEchoByzantine(MaliciousConsensus):
    """Advertises the opposite of its honestly computed value each phase."""

    is_correct = False

    def _phase_open_sends(self) -> list[Send]:
        return self._broadcast(
            InitialMessage(
                origin=self.pid, value=1 - self.value, phaseno=self.phaseno
            )
        )


class BalancingSimpleByzantine(SimpleMajorityConsensus):
    """Balancing adversary for the echo-less Section 4.1 variant."""

    is_correct = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._observed: dict[int, list[int]] = {}

    def _count(self, sender: int, message: SimpleMessage) -> None:
        if sender != self.pid:
            counts = self._observed.setdefault(message.phaseno, [0, 0])
            counts[message.value] += 1
        super()._count(sender, message)

    def _phase_open_sends(self) -> list[Send]:
        lie = 1 - self.value
        for phase in (self.phaseno, self.phaseno - 1):
            counts = self._observed.get(phase)
            if counts and counts != [0, 0]:
                lie = 0 if counts[0] < counts[1] else 1
                break
        return self._broadcast(SimpleMessage(phaseno=self.phaseno, value=lie))


class EquivocatingSimpleByzantine(SimpleMajorityConsensus):
    """Equivocator against the echo-less variant — the attack that works.

    Without the echo layer nothing stops different correct processes from
    counting different values from this process in the same phase.  The
    adversarial tests use it (with a cooperating schedule) to produce an
    actual agreement violation in the Section 4.1 variant, demonstrating
    why Figure 2 needs its initial/echo machinery.
    """

    is_correct = False

    def _phase_open_sends(self) -> list[Send]:
        half = self.n // 2
        return [
            Send(
                recipient,
                SimpleMessage(
                    phaseno=self.phaseno, value=0 if recipient < half else 1
                ),
            )
            for recipient in range(self.n)
        ]


#: The Byzantine registry: strategy name → (protocols whose message
#: grammar the strategy speaks, class).
BYZANTINE_STRATEGIES: dict[str, tuple[tuple[str, ...], type[Process]]] = {
    "silent": (("malicious", "simple", "naive"), SilentByzantine),
    "noise": (("malicious", "simple", "naive"), RandomNoiseByzantine),
    "balancing_echo": (("malicious",), BalancingEchoByzantine),
    "equivocating_echo": (("malicious",), EquivocatingEchoByzantine),
    "anti_majority_echo": (("malicious",), AntiMajorityEchoByzantine),
    "balancing_simple": (("simple", "naive"), BalancingSimpleByzantine),
    "equivocating_simple": (("simple", "naive"), EquivocatingSimpleByzantine),
}


def check_strategy(strategy: str, protocol: str) -> type[Process]:
    """The class registered as ``strategy``, checked against ``protocol``."""
    protocols, cls = BYZANTINE_STRATEGIES.get(strategy, ((), None))
    if cls is None:
        raise ConfigurationError(
            f"unknown Byzantine strategy {strategy!r}; "
            f"choose from {sorted(BYZANTINE_STRATEGIES)}"
        )
    if protocol not in protocols:
        raise ConfigurationError(
            f"strategy {strategy!r} does not speak the "
            f"{protocol!r} message grammar"
        )
    return cls


def build_byzantine(
    strategy: str,
    protocol: str,
    pid: int,
    n: int,
    k: int,
    input_value: int,
    seed: int = 0,
    allow_excessive_k: bool = False,
) -> Process:
    """Construct the ``strategy`` stand-in for process ``pid``.

    The noise adversary gets its own RNG seed derived from ``seed`` and
    its pid, never the run's RNG, so a scripted replay (which consumes
    no randomness) reproduces it.
    """
    cls = check_strategy(strategy, protocol)
    if cls is SilentByzantine:
        return cls(pid, n, input_value)
    if cls is RandomNoiseByzantine:
        return cls(
            pid,
            n,
            family="echo" if protocol == "malicious" else "simple",
            input_value=input_value,
            seed=seed * 9973 + pid + 1,
        )
    return cls(pid, n, k, input_value, allow_excessive_k=allow_excessive_k)
