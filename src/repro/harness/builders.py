"""The one place process ensembles are constructed.

Every run — simulator, fuzz plan, cluster instance, SMR slot, lower-bound
scenario — assembles the same shape: n processes of one protocol, some
replaced by a Byzantine stand-in, some wrapped to crash.  This module
owns both halves of that decision:

* :data:`PROTOCOL_CORES` is the only ``protocol name → core class`` table
  (Byzantine names live in :data:`repro.faults.byzantine.
  BYZANTINE_STRATEGIES`, the only such table for stand-ins);
* :func:`build_member` is the only per-member constructor — the core or
  the stand-in, then the optional :class:`~repro.faults.crash.
  CrashableProcess` wrapper — and :func:`build_ensemble` the only loop
  over it, after the ensemble-level input checks.

The four ``build_*_processes`` functions, :meth:`repro.faults.plans.
FaultPlan.build_processes` and the cluster's per-instance factory
(:meth:`repro.cluster.driver.ClusterMesh.open`) all go through them, so
the same description yields the same objects whichever harness asked.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Sequence, Union

from repro.baselines.benor import BenOrConsensus
from repro.core.fail_stop import FailStopConsensus
from repro.core.malicious import MaliciousConsensus
from repro.core.simple_majority import SimpleMajorityConsensus
from repro.errors import ConfigurationError
from repro.faults.byzantine import build_byzantine
from repro.faults.crash import CrashableProcess
from repro.lowerbounds.partition import NaiveQuorumConsensus
from repro.procs.base import Process

#: Protocol name → core class; constructors share the
#: ``(pid, n, k, input_value, **protocol_kwargs)`` shape.
PROTOCOL_CORES: dict[str, type[Process]] = {
    "failstop": FailStopConsensus,
    "malicious": MaliciousConsensus,
    "simple": SimpleMajorityConsensus,
    "naive": NaiveQuorumConsensus,
    "benor": BenOrConsensus,
}

#: A Byzantine stand-in: a strategy name from ``BYZANTINE_STRATEGIES``, or
#: a factory ``(pid, n, k, input_value) → Process`` (the Byzantine classes
#: themselves qualify).
ByzantineFactory = Union[str, Callable[[int, int, int, int], Process]]


def parse_inputs(inputs: Sequence[int] | str, n: int) -> list[int]:
    """Accept ``[0, 1, 1]`` or the string ``"011"``; validate length/domain."""
    if isinstance(inputs, str):
        values: list = [int(ch) if ch in "01" else ch for ch in inputs]
    else:
        values = list(inputs)
    if len(values) != n:
        raise ConfigurationError(
            f"inputs have length {len(values)}, expected n={n}"
        )
    if any(v not in (0, 1) for v in values):
        raise ConfigurationError(f"inputs must be 0/1, got {inputs!r}")
    return values


def build_member(
    pid: int,
    protocol: str,
    n: int,
    k: int,
    inputs: Sequence[int],
    byzantine: Optional[Mapping[int, ByzantineFactory]] = None,
    crashes: Optional[Mapping[int, dict]] = None,
    seed: int = 0,
    **protocol_kwargs,
) -> Process:
    """Member ``pid`` of the ensemble the remaining arguments describe.

    Constructs exactly one core (or one Byzantine stand-in), wrapped in
    a :class:`CrashableProcess` when ``pid`` is a crash victim.  The
    ensemble-level checks are :func:`build_ensemble`'s; ``inputs`` is
    the parsed value list.
    """
    stand_in = byzantine.get(pid) if byzantine else None
    if stand_in is None:
        process = PROTOCOL_CORES[protocol](
            pid, n, k, inputs[pid], **protocol_kwargs
        )
    elif isinstance(stand_in, str):
        process = build_byzantine(
            stand_in, protocol, pid, n, k, inputs[pid], seed=seed,
            allow_excessive_k=protocol_kwargs.get("allow_excessive_k", False),
        )
    else:
        process = stand_in(pid, n, k, inputs[pid])
    crash = crashes.get(pid) if crashes else None
    if crash is not None:
        process = CrashableProcess(process, **crash)
    return process


def build_ensemble(
    protocol: str,
    n: int,
    k: int,
    inputs: Sequence[int] | str,
    byzantine: Optional[Mapping[int, ByzantineFactory]] = None,
    crashes: Optional[Mapping[int, dict]] = None,
    seed: int = 0,
    **protocol_kwargs,
) -> list[Process]:
    """The pid-ordered ensemble of ``protocol`` cores with faults applied.

    Args:
        protocol: a name in :data:`PROTOCOL_CORES`.
        n, k: protocol parameters (each core validates k against its
            theorem unless ``allow_excessive_k`` is in ``protocol_kwargs``).
        inputs: per-process initial values, list or ``"0110"`` string.
        byzantine: pid → stand-in replacing that pid's core.
        crashes: pid → :class:`CrashableProcess` kwargs.  A crash is a
            behaviour any faulty process may show, so a pid may be in
            both maps; it counts once against k.
        seed: base for the derived seeds of randomized stand-ins.

    Raises:
        ConfigurationError: unknown protocol, malformed inputs, a fault
            pid outside ``0 .. n-1``, or more faulty processes than k
            (unless ``allow_excessive_k``) — always before any process
            is constructed.
    """
    if protocol not in PROTOCOL_CORES:
        raise ConfigurationError(
            f"unknown protocol {protocol!r}; choose from {list(PROTOCOL_CORES)}"
        )
    values = parse_inputs(inputs, n)
    faulty = set(byzantine or ()) | set(crashes or ())
    strays = faulty.difference(range(n))
    if strays:
        raise ConfigurationError(
            f"fault pids {sorted(strays)} are outside 0..{n - 1} (n={n})"
        )
    if len(faulty) > k and not protocol_kwargs.get("allow_excessive_k"):
        raise ConfigurationError(
            f"{len(faulty)} faulty processes exceed the resilience k={k}"
        )
    return [
        build_member(
            pid, protocol, n, k, values, byzantine, crashes, seed,
            **protocol_kwargs,
        )
        for pid in range(n)
    ]


def build_failstop_processes(
    n: int,
    k: int,
    inputs: Sequence[int] | str,
    crashes: Optional[dict[int, dict]] = None,
    **protocol_kwargs,
) -> list[Process]:
    """Figure 1 ensemble, with optional crash plans.

    Args:
        n, k: protocol parameters (k ≤ ⌊(n−1)/2⌋ unless overridden via
            ``allow_excessive_k`` in ``protocol_kwargs``).
        inputs: per-process initial values.
        crashes: pid → :class:`~repro.faults.crash.CrashableProcess`
            kwargs; at most k victims is the supported regime.
    """
    return build_ensemble(
        "failstop", n, k, inputs, crashes=crashes, **protocol_kwargs
    )


def build_malicious_processes(
    n: int,
    k: int,
    inputs: Sequence[int] | str,
    byzantine: Optional[dict[int, ByzantineFactory]] = None,
    crashes: Optional[dict[int, dict]] = None,
    **protocol_kwargs,
) -> list[Process]:
    """Figure 2 ensemble with Byzantine processes substituted in.

    Args:
        byzantine: pid → stand-in (a strategy name, or e.g. the classes
            in :mod:`repro.faults.byzantine`); at most k of them is the
            supported regime.
        crashes: additionally crash some processes (a crash is a legal
            malicious behaviour, so victims count against k too).
    """
    return build_ensemble(
        "malicious", n, k, inputs, byzantine, crashes, **protocol_kwargs
    )


def build_simple_majority_processes(
    n: int,
    k: int,
    inputs: Sequence[int] | str,
    byzantine: Optional[dict[int, ByzantineFactory]] = None,
    crashes: Optional[dict[int, dict]] = None,
    **protocol_kwargs,
) -> list[Process]:
    """Section 4.1 variant ensemble (same shape as the Figure 2 builder)."""
    return build_ensemble(
        "simple", n, k, inputs, byzantine, crashes, **protocol_kwargs
    )


def build_benor_processes(
    n: int,
    t: int,
    inputs: Sequence[int] | str,
    fault_model: str = "fail-stop",
    crashes: Optional[dict[int, dict]] = None,
    byzantine: Optional[dict[int, ByzantineFactory]] = None,
) -> list[Process]:
    """Ben-Or baseline ensemble ([BenO83])."""
    return build_ensemble(
        "benor", n, t, inputs, byzantine, crashes, fault_model=fault_model
    )
