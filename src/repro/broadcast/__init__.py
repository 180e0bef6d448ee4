"""Reliable broadcast — the follow-on primitive Figure 2 prefigures."""

from repro.broadcast.rbc import (
    RbcSend,
    RbcEcho,
    RbcReady,
    ReliableBroadcast,
    ReliableBroadcastProcess,
    EquivocatingBroadcaster,
)
from repro.broadcast.agreement import BrachaAgreementProcess

__all__ = [
    "RbcSend",
    "RbcEcho",
    "RbcReady",
    "ReliableBroadcast",
    "ReliableBroadcastProcess",
    "EquivocatingBroadcaster",
    "BrachaAgreementProcess",
]
