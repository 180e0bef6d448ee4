"""Fault injection: fail-stop crash plans, Byzantine strategies, fault plans."""

from repro.faults.crash import CrashableProcess, crash_plan
from repro.faults.byzantine import (
    BYZANTINE_STRATEGIES,
    SilentByzantine,
    RandomNoiseByzantine,
    BalancingEchoByzantine,
    EquivocatingEchoByzantine,
    AntiMajorityEchoByzantine,
    BalancingSimpleByzantine,
    EquivocatingSimpleByzantine,
)
from repro.faults.plans import (
    ByzantineSpec,
    CrashSpec,
    FaultPlan,
    PROTOCOLS,
    SCHEDULERS,
)

__all__ = [
    "CrashableProcess",
    "crash_plan",
    "SilentByzantine",
    "RandomNoiseByzantine",
    "BalancingEchoByzantine",
    "EquivocatingEchoByzantine",
    "AntiMajorityEchoByzantine",
    "BalancingSimpleByzantine",
    "EquivocatingSimpleByzantine",
    "FaultPlan",
    "CrashSpec",
    "ByzantineSpec",
    "BYZANTINE_STRATEGIES",
    "PROTOCOLS",
    "SCHEDULERS",
]
