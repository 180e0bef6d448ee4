"""Counterexample shrinking: delta-debug a violating run to a minimal replay.

A violating campaign run arrives as its plan alone: campaigns record no
schedules, so the shrinker first re-runs the plan from its seed under a
recording scheduler.  It then reduces the (plan, schedule) pair —
dropping Byzantine cohort members, crash specs, and delivery-schedule
entries — while preserving the property
"replaying this pair still trips an oracle", then canonicalises the
result: the final replay re-records the schedule (impossible/skipped
entries drop out) and is verified to reproduce the *identical* violation
(same oracle, step, pid, description) bit-for-bit through
:class:`~repro.net.schedulers.ScriptedScheduler`.

Replays are deterministic because a scripted run consumes no RNG and no
plan protocol draws from the simulation RNG (see
:mod:`repro.faults.plans`); the schedule alone pins down every step.

The shrunk artifact serialises to JSON — plan, schedule, expected
violation, reduction stats — so a falsified claim can be committed to a
repo, attached to a bug report, and replayed exactly, forever.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.check.oracles import OracleSuite
from repro.errors import ConfigurationError
from repro.faults.plans import FaultPlan
from repro.net.schedulers import ScheduleRecorder, ScriptedScheduler
from repro.obs.metrics import MetricsRegistry, PERCENT_BOUNDS
from repro.sim.kernel import Simulation
from repro.sim.results import RunResult, Violation

#: Schedule entry: (recipient, sender-or-None-for-φ, same-sender rank).
ScheduleEntry = tuple

_DEFAULT_MAX_STEPS = 50_000


def replay_plan(
    plan: FaultPlan,
    schedule: Optional[Sequence[ScheduleEntry]] = None,
    max_steps: int = _DEFAULT_MAX_STEPS,
    record: bool = False,
) -> RunResult:
    """Run ``plan`` with oracles armed.

    With ``schedule`` the run replays exactly those deliveries through a
    :class:`ScriptedScheduler` (no fallback: the run goes quiescent when
    the script ends); without it the plan's own scheduler runs under the
    plan seed.  ``record=True`` re-captures the delivery schedule into
    ``RunResult.schedule``.
    """
    processes = plan.build_processes()
    if schedule is None:
        scheduler = plan.build_scheduler(record=record)
    else:
        scripted = ScriptedScheduler([tuple(e) for e in schedule])
        scheduler = ScheduleRecorder(scripted) if record else scripted
    simulation = Simulation(
        processes,
        scheduler=scheduler,
        seed=plan.seed,
        observer=OracleSuite(),
    )
    return simulation.run(max_steps=max_steps)


@dataclass(frozen=True)
class Counterexample:
    """A minimal, replayable falsification artifact."""

    plan: FaultPlan
    schedule: tuple[ScheduleEntry, ...]
    violation: Violation
    original_schedule_len: int
    original_fault_count: int

    @property
    def schedule_len(self) -> int:
        """Length of the shrunk delivery schedule."""
        return len(self.schedule)

    @property
    def reduction_percent(self) -> float:
        """Schedule size reduction achieved by shrinking, in percent."""
        if self.original_schedule_len == 0:
            return 0.0
        return 100.0 * (
            1 - len(self.schedule) / self.original_schedule_len
        )

    def to_dict(self) -> dict:
        """JSON-ready payload (inverse of :meth:`from_dict`)."""
        return {
            "plan": self.plan.to_dict(),
            "schedule": [list(entry) for entry in self.schedule],
            "violation": self.violation.to_dict(),
            "original_schedule_len": self.original_schedule_len,
            "original_fault_count": self.original_fault_count,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Counterexample":
        return cls(
            plan=FaultPlan.from_dict(payload["plan"]),
            schedule=tuple(
                tuple(entry) for entry in payload["schedule"]
            ),
            violation=Violation.from_dict(payload["violation"]),
            original_schedule_len=payload["original_schedule_len"],
            original_fault_count=payload["original_fault_count"],
        )

    def save(self, path: str) -> None:
        """Write the artifact to ``path`` as deterministic JSON.

        Parent directories are created so nested artifact paths work.
        """
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "Counterexample":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def replay_artifact(
    artifact: Counterexample, max_steps: int = _DEFAULT_MAX_STEPS
) -> tuple[RunResult, bool]:
    """Replay a counterexample; report whether it reproduces exactly.

    Returns ``(result, exact)`` where ``exact`` means the replay flagged
    a violation identical — oracle, step, pid, description — to the one
    recorded in the artifact.
    """
    result = replay_plan(
        artifact.plan, schedule=artifact.schedule, max_steps=max_steps
    )
    return result, result.violation == artifact.violation


# ---------------------------------------------------------------------- #
# Reduction
# ---------------------------------------------------------------------- #


def _violates(
    plan: FaultPlan, schedule: Sequence[ScheduleEntry], max_steps: int
) -> bool:
    return (
        replay_plan(plan, schedule=schedule, max_steps=max_steps).violation
        is not None
    )


def _shrink_faults(
    plan: FaultPlan, schedule: Sequence[ScheduleEntry], max_steps: int
) -> FaultPlan:
    """Greedily drop Byzantine cohort members and crash specs."""
    changed = True
    while changed:
        changed = False
        for spec in plan.byzantine:
            candidate = FaultPlan.from_dict(
                {
                    **plan.to_dict(),
                    "byzantine": [
                        s.to_dict() for s in plan.byzantine if s != spec
                    ],
                }
            )
            if _violates(candidate, schedule, max_steps):
                plan = candidate
                changed = True
                break
        if changed:
            continue
        for spec in plan.crashes:
            candidate = FaultPlan.from_dict(
                {
                    **plan.to_dict(),
                    "crashes": [
                        s.to_dict() for s in plan.crashes if s != spec
                    ],
                }
            )
            if _violates(candidate, schedule, max_steps):
                plan = candidate
                changed = True
                break
    return plan


def _ddmin_schedule(
    plan: FaultPlan, schedule: list[ScheduleEntry], max_steps: int
) -> list[ScheduleEntry]:
    """Classic delta debugging over schedule entries."""
    granularity = 2
    while len(schedule) >= 2:
        chunk = max(1, len(schedule) // granularity)
        reduced = False
        start = 0
        while start < len(schedule):
            candidate = schedule[:start] + schedule[start + chunk :]
            if candidate and _violates(plan, candidate, max_steps):
                schedule = candidate
                reduced = True
                # Re-test from the same offset: the next chunk slid in.
            else:
                start += chunk
        if reduced:
            granularity = max(granularity - 1, 2)
        elif chunk == 1:
            break
        else:
            granularity = min(granularity * 2, len(schedule))
    return schedule


def shrink(
    plan: FaultPlan,
    max_steps: int = _DEFAULT_MAX_STEPS,
    metrics: Optional[MetricsRegistry] = None,
) -> Counterexample:
    """Reduce a violating plan to a verified minimal artifact.

    Args:
        plan: the violating fault plan; it is re-run from its seed,
            recording, for the schedule the reduction works on.
        max_steps: replay step budget.
        metrics: optional registry fed ``fuzz.shrink.*`` stats.

    Raises:
        ConfigurationError: if the plan does not violate, its recorded
            schedule does not replay to a violation, or the final
            canonical artifact fails to replay identically (which would
            indicate nondeterminism — a bug worth hearing about loudly).
    """
    first = replay_plan(plan, record=True, max_steps=max_steps)
    if first.violation is None:
        raise ConfigurationError(
            f"plan does not violate, nothing to shrink: {plan.describe()}"
        )
    schedule = list(first.schedule)
    original_len = len(schedule)
    original_faults = plan.fault_count

    # 1. Truncate past the violating step: replaying stops at the first
    #    violation anyway, so everything after it is dead weight.
    probe = replay_plan(plan, schedule=schedule, max_steps=max_steps)
    if probe.violation is None:
        raise ConfigurationError(
            "the plan's recorded schedule does not replay to a violation"
        )
    keep = max(0, probe.violation.step - plan.n + 1)
    if keep < len(schedule) and _violates(plan, schedule[:keep], max_steps):
        schedule = schedule[:keep]

    # 2. Shrink the fault cohort, then the schedule, then the cohort
    #    again (a smaller schedule can make more faults droppable).
    plan = _shrink_faults(plan, schedule, max_steps)
    schedule = _ddmin_schedule(plan, schedule, max_steps)
    plan = _shrink_faults(plan, schedule, max_steps)

    # 3. Canonicalise: re-record the shrunk replay so skipped/impossible
    #    entries drop out, then verify the artifact reproduces exactly.
    final = replay_plan(plan, schedule=schedule, max_steps=max_steps, record=True)
    if final.violation is None:
        raise ConfigurationError(
            "shrunk schedule stopped violating during canonicalisation"
        )
    canonical = tuple(final.schedule or ())
    artifact = Counterexample(
        plan=plan,
        schedule=canonical,
        violation=final.violation,
        original_schedule_len=original_len,
        original_fault_count=original_faults,
    )
    _result, exact = replay_artifact(artifact, max_steps=max_steps)
    if not exact:
        raise ConfigurationError(
            "counterexample failed bit-identical replay verification: "
            f"{artifact.violation} vs {_result.violation}"
        )
    if metrics is not None:
        metrics.inc("fuzz.shrink.counterexamples")
        metrics.observe(
            "fuzz.shrink.reduction_percent",
            artifact.reduction_percent,
            bounds=PERCENT_BOUNDS,
        )
        metrics.observe(
            "fuzz.shrink.schedule_len", len(artifact.schedule)
        )
        metrics.inc(
            "fuzz.shrink.faults_removed",
            original_faults - artifact.plan.fault_count,
        )
    return artifact
