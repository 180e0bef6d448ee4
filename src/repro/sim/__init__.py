"""Discrete-event simulation kernel for the paper's atomic-step model."""

from repro.sim.events import (
    TraceEvent,
    StartEvent,
    DeliverEvent,
    PhiEvent,
    SendEvent,
    CrashEvent,
    DecideEvent,
    ExitEvent,
)
from repro.sim.results import HaltReason, RunResult
from repro.sim.kernel import Simulation

__all__ = [
    "TraceEvent",
    "StartEvent",
    "DeliverEvent",
    "PhiEvent",
    "SendEvent",
    "CrashEvent",
    "DecideEvent",
    "ExitEvent",
    "HaltReason",
    "RunResult",
    "Simulation",
]
