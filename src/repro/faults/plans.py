"""Declarative fault plans: serializable recipes for one adversarial run.

A :class:`FaultPlan` pins down everything the fuzzer varies about a run —
protocol, (n, k), inputs, crash schedules, Byzantine cohort, scheduler,
seed — as one frozen, JSON-round-trippable value.  The campaign engine
(:mod:`repro.check.campaign`) samples plans, the shrinker
(:mod:`repro.check.shrink`) mutates them (dropping crash/Byzantine specs),
and counterexample artifacts embed them, so a violation found today can be
rebuilt and replayed bit-identically later.

Determinism note: processes built from a plan must not draw from the
simulation RNG, or a :class:`~repro.net.schedulers.ScriptedScheduler`
replay (which consumes no RNG) would diverge from the recorded run.  The
one randomized adversary, :class:`~repro.faults.byzantine.
RandomNoiseByzantine`, is therefore constructed with its own seed derived
from the plan seed and its pid.  Ben-Or (whose coin flips share the run
RNG) is deliberately not a plan protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.common import (
    max_failstop_resilience,
    max_malicious_resilience,
)
from repro.errors import ConfigurationError
# BYZANTINE_STRATEGIES is re-exported: a plan's JSON ``strategy`` strings
# are that registry's keys.
from repro.faults.byzantine import BYZANTINE_STRATEGIES, check_strategy
from repro.net.schedulers import (
    BalancingDelayScheduler,
    ExponentialDelayScheduler,
    FifoScheduler,
    RandomScheduler,
    ScheduleRecorder,
    Scheduler,
)
from repro.procs.base import Process

#: Plan protocols.  Ben-Or is excluded: its local coin draws from the
#: simulation RNG, which a scripted replay cannot reproduce.
PROTOCOLS = ("failstop", "malicious", "simple", "naive")

#: Scheduler registry: name → zero-arg factory.  All of these draw any
#: randomness from the ``rng`` handed to ``choose``, so a plan's seed
#: fully determines the run.
SCHEDULERS: dict[str, Callable[[], Scheduler]] = {
    "random": RandomScheduler,
    "random_phi": lambda: RandomScheduler(phi_probability=0.15),
    "random_unweighted": lambda: RandomScheduler(weight_by_buffer=False),
    "fifo": FifoScheduler,
    "exp_delay": lambda: ExponentialDelayScheduler(mean_delay=2.0),
    "balancing": BalancingDelayScheduler,
}


@dataclass(frozen=True)
class CrashSpec:
    """One fail-stop victim: pid plus its CrashableProcess trigger."""

    pid: int
    crash_at_step: Optional[int] = None
    crash_at_phase: Optional[int] = None
    keep_sends: int = 0

    def kwargs(self) -> dict:
        """Keyword arguments for :class:`~repro.faults.crash.CrashableProcess`."""
        out: dict = {"keep_sends": self.keep_sends}
        if self.crash_at_step is not None:
            out["crash_at_step"] = self.crash_at_step
        if self.crash_at_phase is not None:
            out["crash_at_phase"] = self.crash_at_phase
        return out

    def to_dict(self) -> dict:
        """JSON-ready payload (inverse of :meth:`from_dict`)."""
        return {
            "pid": self.pid,
            "crash_at_step": self.crash_at_step,
            "crash_at_phase": self.crash_at_phase,
            "keep_sends": self.keep_sends,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CrashSpec":
        return cls(
            pid=payload["pid"],
            crash_at_step=payload.get("crash_at_step"),
            crash_at_phase=payload.get("crash_at_phase"),
            keep_sends=payload.get("keep_sends", 0),
        )


@dataclass(frozen=True)
class ByzantineSpec:
    """One malicious process: pid plus a strategy name from the registry."""

    pid: int
    strategy: str

    def to_dict(self) -> dict:
        """JSON-ready payload (inverse of :meth:`from_dict`)."""
        return {"pid": self.pid, "strategy": self.strategy}

    @classmethod
    def from_dict(cls, payload: dict) -> "ByzantineSpec":
        return cls(pid=payload["pid"], strategy=payload["strategy"])


@dataclass(frozen=True)
class FaultPlan:
    """Everything that pins down one adversarial run.

    Attributes:
        protocol: ``failstop`` (Fig. 1), ``malicious`` (Fig. 2),
            ``simple`` (§4.1 echo-less variant), or ``naive`` (the
            deliberately unsound n−k quorum strawman used to exhibit
            Theorem 1 style splits).
        n, k: protocol parameters.
        inputs: per-process initial values.
        crashes: fail-stop victims (legal in every fault model — a crash
            is a behaviour any faulty process may exhibit).
        byzantine: malicious cohort (empty for ``failstop``).
        scheduler: name in :data:`SCHEDULERS`.
        seed: simulation seed; also the base for derived adversary seeds.
        exit_after_decide: Fig. 2 wildcard exit device (malicious only).
    """

    protocol: str
    n: int
    k: int
    inputs: tuple[int, ...]
    crashes: tuple[CrashSpec, ...] = ()
    byzantine: tuple[ByzantineSpec, ...] = ()
    scheduler: str = "random"
    seed: int = 0
    exit_after_decide: bool = False

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ConfigurationError(f"unknown protocol {self.protocol!r}")
        if self.scheduler not in SCHEDULERS:
            raise ConfigurationError(f"unknown scheduler {self.scheduler!r}")
        if len(self.inputs) != self.n:
            raise ConfigurationError(
                f"{len(self.inputs)} inputs for n={self.n}"
            )
        pids = [spec.pid for spec in self.crashes] + [
            spec.pid for spec in self.byzantine
        ]
        if len(set(pids)) != len(pids):
            raise ConfigurationError(f"overlapping fault pids in {pids}")
        if any(not 0 <= pid < self.n for pid in pids):
            raise ConfigurationError(f"fault pid out of range in {pids}")
        if self.byzantine and self.protocol == "failstop":
            raise ConfigurationError(
                "the fail-stop model has no Byzantine processes"
            )
        for spec in self.byzantine:
            check_strategy(spec.strategy, self.protocol)

    # ------------------------------------------------------------------ #
    # Classification
    # ------------------------------------------------------------------ #

    @property
    def fault_count(self) -> int:
        """Total faulty processes (crash victims count in every model)."""
        return len(self.crashes) + len(self.byzantine)

    @property
    def resilience_bound(self) -> int:
        """The paper's bound for this plan's fault model.

        Fail-stop tolerates k ≤ ⌊(n−1)/2⌋ (Theorems 1/2); the malicious
        model — which both echo-full and echo-less variants live in —
        tolerates k ≤ ⌊(n−1)/3⌋ (Theorems 3/4).
        """
        if self.protocol == "failstop":
            return max_failstop_resilience(self.n)
        return max_malicious_resilience(self.n)

    @property
    def over_bound(self) -> bool:
        """True when the plan exceeds the paper's resilience theorems.

        The ``naive`` strawman is always over-bound by construction: its
        n−k decision quorum ignores the intersection argument entirely,
        which is exactly the Theorem 1 failure mode it exists to exhibit.
        The ``simple`` §4.1 variant only claims resilience against
        fail-stop faults — any Byzantine cohort puts it past its
        guarantees (equivocation demonstrably splits it; that is why
        Figure 2 has the echo layer).
        """
        if self.protocol == "naive":
            return True
        if self.protocol == "simple" and self.byzantine:
            return True
        bound = self.resilience_bound
        return self.k > bound or self.fault_count > max(self.k, 0)

    # ------------------------------------------------------------------ #
    # Materialisation
    # ------------------------------------------------------------------ #

    def build_processes(self) -> list[Process]:
        """Construct the pid-ordered process ensemble this plan describes.

        Every member comes from the one constructor in
        :mod:`repro.harness.builders`; an over-bound plan lifts the
        cores' resilience checks (``allow_excessive_k``), which is what
        lets the fuzzer run past the theorems on purpose.
        """
        from repro.harness.builders import build_ensemble

        extra: dict = {"allow_excessive_k": True} if self.over_bound else {}
        if self.protocol == "malicious":
            extra["exit_after_decide"] = self.exit_after_decide
        return build_ensemble(
            self.protocol,
            self.n,
            self.k,
            self.inputs,
            byzantine={spec.pid: spec.strategy for spec in self.byzantine},
            crashes={spec.pid: spec.kwargs() for spec in self.crashes},
            seed=self.seed or 0,
            **extra,
        )

    def build_scheduler(self, record: bool = False) -> Scheduler:
        """Construct the plan's scheduler, optionally recording for replay."""
        scheduler = SCHEDULERS[self.scheduler]()
        return ScheduleRecorder(scheduler) if record else scheduler

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        """JSON-ready payload (inverse of :meth:`from_dict`)."""
        return {
            "protocol": self.protocol,
            "n": self.n,
            "k": self.k,
            "inputs": list(self.inputs),
            "crashes": [spec.to_dict() for spec in self.crashes],
            "byzantine": [spec.to_dict() for spec in self.byzantine],
            "scheduler": self.scheduler,
            "seed": self.seed,
            "exit_after_decide": self.exit_after_decide,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        return cls(
            protocol=payload["protocol"],
            n=payload["n"],
            k=payload["k"],
            inputs=tuple(payload["inputs"]),
            crashes=tuple(
                CrashSpec.from_dict(item) for item in payload["crashes"]
            ),
            byzantine=tuple(
                ByzantineSpec.from_dict(item) for item in payload["byzantine"]
            ),
            scheduler=payload.get("scheduler", "random"),
            seed=payload.get("seed", 0),
            exit_after_decide=payload.get("exit_after_decide", False),
        )

    def describe(self) -> str:
        """One-line digest for reports and artifacts."""
        faults = []
        if self.crashes:
            faults.append(
                "crash["
                + ",".join(str(spec.pid) for spec in self.crashes)
                + "]"
            )
        for spec in self.byzantine:
            faults.append(f"{spec.strategy}[{spec.pid}]")
        fault_part = "+".join(faults) if faults else "fault-free"
        bound_part = "over-bound" if self.over_bound else "at-bound"
        return (
            f"{self.protocol} n={self.n} k={self.k} {fault_part} "
            f"sched={self.scheduler} seed={self.seed} ({bound_part})"
        )
