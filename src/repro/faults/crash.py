"""Fail-stop fault injection.

Section 2.1: "A fail-stop process may die during the execution of the
protocol, i.e., it may stop participating in the protocol.  The death of
a process occurs without warning messages."

:class:`CrashableProcess` wraps any correct protocol process and kills it
according to a trigger.  Deaths are silent — the wrapper simply stops
producing sends and marks itself crashed so the scheduler stops stepping
it; nothing announces the death, and undelivered messages from the victim
remain in flight (a dead process is indistinguishable from a slow one).

Deaths can also be *partial*: the paper's atomic step sends a finite set
of messages, and the adversarially hardest crash point is mid-set, where
only a prefix of a broadcast escapes.  ``keep_sends`` controls how many
sends of the fatal step survive.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.net.message import Envelope
from repro.procs.base import Process, Send


class CrashableProcess(Process):
    """A process that fail-stops when its trigger fires.

    The wrapper is transparent: it forwards atomic steps to the wrapped
    protocol process and mirrors its decision/exit state, so results and
    halting predicates see one coherent process.  It forwards the whole
    harness contract of :class:`~repro.procs.base.Process` too —
    ``phaseno``, ``input_value``, ``core``, ``bind_metrics`` and
    ``is_correct`` are the wrapped process's, so a crashing Byzantine
    process is still a Byzantine one.

    Args:
        inner: the protocol process to wrap (a correct core, a Byzantine
            stand-in, or another wrapper).
        crash_at_step: die when about to take this own-step index
            (0 = die before even starting, so the process never sends
            anything at all).
        crash_at_phase: die at the first step taken at or beyond this
            protocol phase (evaluated before the step executes).
        keep_sends: number of sends of the fatal step that still escape.
            Only meaningful for ``crash_at_step``; the canonical
            "crashed mid-broadcast" scenario uses 0 < keep_sends < n.
    """

    def __init__(
        self,
        inner: Process,
        crash_at_step: Optional[int] = None,
        crash_at_phase: Optional[int] = None,
        keep_sends: int = 0,
    ) -> None:
        super().__init__(inner.pid, inner.n)
        if crash_at_step is None and crash_at_phase is None:
            raise ConfigurationError(
                "CrashableProcess needs crash_at_step or crash_at_phase; "
                "wrap nothing if the process should never crash"
            )
        if crash_at_step is not None and crash_at_step < 0:
            raise ConfigurationError("crash_at_step must be >= 0")
        if crash_at_phase is not None and crash_at_phase < 0:
            raise ConfigurationError("crash_at_phase must be >= 0")
        if keep_sends < 0:
            raise ConfigurationError("keep_sends must be >= 0")
        self.inner = inner
        self.crash_at_step = crash_at_step
        self.crash_at_phase = crash_at_phase
        self.keep_sends = keep_sends
        # Fixed for the wrapped process's lifetime, so copied: the halting
        # predicates read ``is_correct`` on every step.
        self.input_value = inner.input_value
        self.is_correct = inner.is_correct
        # Own step counter for the trigger: ``steps_taken`` is maintained
        # by the simulation kernel, but the wrapper must also work when
        # driven directly (unit tests, the model checker).
        self._steps_seen = 0

    # ------------------------------------------------------------------ #
    # State mirroring
    # ------------------------------------------------------------------ #

    @property
    def phaseno(self) -> Optional[int]:
        """The wrapped protocol's phase (frozen once crashed)."""
        return self.inner.phaseno

    @property
    def core(self) -> Process:
        """The wrapped process's protocol core."""
        return self.inner.core

    def bind_metrics(self, registry) -> None:
        """Bind this wrapper and everything it wraps to ``registry``."""
        self.metrics = registry
        self.inner.bind_metrics(registry)

    def _mirror(self) -> None:
        inner = self.inner
        if inner.decided and not self.decided:
            self.decision.set(inner.decision.value)
            self.decided_at_phase = inner.decided_at_phase
            self.decided_at_step = inner.decided_at_step
        if inner.exited:
            self.exited = True

    # ------------------------------------------------------------------ #
    # Atomic steps with the trigger applied
    # ------------------------------------------------------------------ #

    def start(self) -> list[Send]:
        return self._guarded(lambda: self.inner.start())

    def step(self, envelope: Optional[Envelope]) -> list[Send]:
        return self._guarded(lambda: self.inner.step(envelope))

    def _guarded(self, take_step) -> list[Send]:
        if self.crashed:
            return []
        fatal = False
        if (
            self.crash_at_phase is not None
            and (self.inner.phaseno or 0) >= self.crash_at_phase
        ):
            # Phase trigger: silent death before the step executes.
            self.crashed = True
            return []
        if (
            self.crash_at_step is not None
            and self._steps_seen >= self.crash_at_step
        ):
            fatal = True
            if self.keep_sends == 0:
                self.crashed = True
                return []
        sends = take_step()
        self._steps_seen += 1
        self.inner.steps_taken += 1
        self._mirror()
        if fatal:
            self.crashed = True
            return sends[: self.keep_sends]
        return sends

    def state_key(self) -> tuple:
        """Hashable snapshot (wrapper trigger state + wrapped protocol).

        Lets crash-injected configurations run through the exhaustive
        schedule explorer.
        """
        inner_key = getattr(self.inner, "state_key", None)
        return (
            "crashable",
            self.crashed,
            self._steps_seen,
            self.crash_at_step,
            self.crash_at_phase,
            inner_key() if inner_key is not None else None,
        )

