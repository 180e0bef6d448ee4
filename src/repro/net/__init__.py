"""Asynchronous message-system substrate.

This package implements the communication model of Section 2.1 of the
paper: a fully connected, reliable, completely asynchronous message system
with one unbounded buffer per process and two primitives:

``send(p, m)``
    instantaneously place message ``m`` in process ``p``'s buffer;

``receive(m)``
    remove *some* message from the caller's buffer, or return the null
    value φ — the nondeterministic choice that models arbitrarily long
    transmission delays.

The nondeterminism of ``receive`` is factored out into pluggable
*schedulers* (:mod:`repro.net.schedulers`): a scheduler decides, at every
atomic step, which process steps next and which buffered envelope (if any)
its ``receive`` returns.  The uniform random scheduler realises the paper's
probabilistic assumption that every possible view of a phase has
probability at least ε of being the view actually seen.
"""

from repro.net.message import Envelope
from repro.net.system import AliveView, MessageSystem
from repro.net.schedulers import (
    Scheduler,
    RandomScheduler,
    FifoScheduler,
    ScriptedScheduler,
    BalancingDelayScheduler,
    ExponentialDelayScheduler,
    FilteredRandomScheduler,
)

__all__ = [
    "AliveView",
    "Envelope",
    "MessageSystem",
    "Scheduler",
    "RandomScheduler",
    "FifoScheduler",
    "ScriptedScheduler",
    "BalancingDelayScheduler",
    "ExponentialDelayScheduler",
    "FilteredRandomScheduler",
]
