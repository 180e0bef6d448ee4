"""The process abstraction: atomic-step state machines.

Section 2.1 defines an atomic step as: try to receive a message, perform
an arbitrarily long local computation, then send a finite set of messages.
:class:`Process` captures exactly this shape:

* :meth:`Process.start` is the process's very first atomic step, taken
  before any message exists (its receive returns φ by construction); every
  protocol uses it to send its phase-0 messages.
* :meth:`Process.step` is every subsequent atomic step; it is handed the
  envelope chosen by the scheduler (or ``None`` for a φ step) and returns
  the finite set of sends the step produces.

Processes never touch the message system directly — the simulation kernel
routes the returned sends — which is what lets the kernel authenticate
transport senders even for Byzantine processes.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Any, NamedTuple, Optional

from repro.net.message import Envelope
from repro.procs.registers import DecisionRegister


class Send(NamedTuple):
    """One outgoing message produced by an atomic step (a tuple record)."""

    recipient: int
    payload: Any


class Process(ABC):
    """Base class for every process, correct or faulty.

    Attributes:
        pid: this process's id in ``0 .. n-1``.
        n: total number of processes in the system.
        decision: the write-once ``d_p`` register.
        exited: True once the process has voluntarily left the protocol
            (e.g. the Fig. 1 protocol exits after deciding and sending its
            two final broadcasts).  Exited processes take no more steps.
        crashed: True once fail-stop death occurred.  Set by fault
            wrappers, never by correct protocol code.
        steps_taken: number of atomic steps this process has performed.
        decided_at_phase: the protocol phase during which the decision was
            made, if the protocol tracks phases (``None`` otherwise).
        decided_at_step: this process's step count when it decided.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`
            bound through :meth:`bind_metrics` when metrics are enabled.
            ``None`` (the default) disables protocol-level
            instrumentation; protocol code guards every record with a
            single ``self.metrics is not None`` check.

    The class-level attributes below, together with :attr:`core` and
    :meth:`bind_metrics`, are the contract every harness (simulator,
    oracles, cluster node, SMR) reads with a plain attribute access
    (DESIGN.md §2 has the who-writes/who-reads table).  A fault wrapper
    forwards each of them to the process it wraps.
    """

    #: Subclasses representing Byzantine processes set this to False; the
    #: kernel and result validators use it to scope correctness checks.
    is_correct: bool = True
    #: Current protocol phase.  Protocols that run in phases overwrite it
    #: per instance; ``None`` marks a process without phases, which the
    #: harnesses count under phase 0 and which decides with
    #: ``decided_at_phase`` left ``None``.
    phaseno: Optional[int] = None
    #: The initial value x_p; processes constructed with one overwrite it.
    input_value: int = 0
    #: Source of local coin flips.  ``None`` until a process is seeded;
    #: the simulator hands its run RNG to every process still at ``None``.
    rng: Optional[random.Random] = None

    def __init__(self, pid: int, n: int) -> None:
        self.pid = pid
        self.n = n
        self.decision = DecisionRegister()
        self.exited = False
        self.crashed = False
        self.steps_taken = 0
        self.decided_at_phase: Optional[int] = None
        self.decided_at_step: Optional[int] = None
        self.metrics = None

    # ------------------------------------------------------------------ #
    # The two atomic-step entry points
    # ------------------------------------------------------------------ #

    @abstractmethod
    def start(self) -> list[Send]:
        """First atomic step: return the sends that open the protocol."""

    @abstractmethod
    def step(self, envelope: Optional[Envelope]) -> list[Send]:
        """One atomic step: consume ``envelope`` (φ if None), return sends."""

    # ------------------------------------------------------------------ #
    # State helpers
    # ------------------------------------------------------------------ #

    @property
    def alive(self) -> bool:
        """True while the process can still take steps."""
        return not (self.crashed or self.exited)

    @property
    def decided(self) -> bool:
        """True once ``d_p`` has been written."""
        return self.decision.is_set

    @property
    def core(self) -> "Process":
        """The protocol state machine itself: this process, or — for a
        fault wrapper — the core of the process it wraps."""
        return self

    def bind_metrics(self, registry) -> None:
        """Point this process (a wrapper: and all it wraps) at ``registry``."""
        self.metrics = registry

    def _decide(self, value: int) -> None:
        """Write the decision register and record when it happened.

        Subclasses call this instead of touching ``decision`` directly so
        that the phase/step bookkeeping used by the benchmarks is uniform.
        """
        already = self.decision.is_set
        self.decision.set(value)
        if not already:
            self.decided_at_phase = self.phaseno
            self.decided_at_step = self.steps_taken

    def _coin_rng(self) -> random.Random:
        """The local coin's source: ``rng``, which an unseeded process
        stepped outside the simulator sets to ``Random(pid)`` once."""
        if self.rng is None:
            self.rng = random.Random(self.pid)
        return self.rng

    def _broadcast(self, payload: Any) -> list[Send]:
        """Sends of ``payload`` to all n processes, self included."""
        return [Send(recipient, payload) for recipient in range(self.n)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "crashed" if self.crashed else ("exited" if self.exited else "live")
        return (
            f"{type(self).__name__}(pid={self.pid}, {state}, "
            f"decision={self.decision.get()!r})"
        )
