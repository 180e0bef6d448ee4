"""Trace events emitted by the simulation kernel.

Tracing is opt-in (``Simulation(sink=InMemorySink())``) because full
traces of echo-heavy runs are large.  Every event carries the global step index at
which it occurred, so a trace totally orders the execution — a *schedule*
in the paper's sense.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """Base class for all trace events."""

    step: int
    pid: int


@dataclass(frozen=True, slots=True)
class StartEvent(TraceEvent):
    """Process ``pid`` took its initial atomic step."""


@dataclass(frozen=True, slots=True)
class DeliverEvent(TraceEvent):
    """Process ``pid`` received ``payload`` from ``sender``."""

    sender: int
    payload: Any


@dataclass(frozen=True, slots=True)
class PhiEvent(TraceEvent):
    """Process ``pid`` took a step whose receive returned φ."""


@dataclass(frozen=True, slots=True)
class SendEvent(TraceEvent):
    """Process ``pid`` sent ``payload`` to ``recipient``."""

    recipient: int
    payload: Any


@dataclass(frozen=True, slots=True)
class CrashEvent(TraceEvent):
    """Process ``pid`` died (fail-stop) at this step."""


@dataclass(frozen=True, slots=True)
class DecideEvent(TraceEvent):
    """Process ``pid`` wrote ``value`` into its decision register."""

    value: int


@dataclass(frozen=True, slots=True)
class ExitEvent(TraceEvent):
    """Process ``pid`` voluntarily left the protocol."""
