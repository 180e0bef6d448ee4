"""Fault-campaign engine: sample fault plans, run them, aggregate verdicts.

A *campaign* is a batch of :class:`~repro.faults.plans.FaultPlan` runs,
each executed with an armed :class:`~repro.check.oracles.OracleSuite` under
the plan's own, unrecorded scheduler (a plan and its seed pin the run
down; :func:`~repro.check.shrink.shrink` re-records a violating one),
fanned out through the existing parallel
:meth:`~repro.harness.runner.ExperimentRunner.iter_runs` machinery.  The
sampler has two modes matching the paper's two-sided claims:

* **at-bound** (default): every sampled plan respects the resilience
  theorems — k ≤ ⌊(n−1)/2⌋ fail-stop victims for Figure 1, k ≤ ⌊(n−1)/3⌋
  malicious processes for Figure 2 — so a sound implementation must
  produce *zero* oracle violations, however hard the fault/scheduler
  combination hammers it.
* **over-bound**: plans deliberately exceed the bounds (Theorem 1's
  fail-stop majorities, Theorem 3's n ≤ 3k malicious cohorts, the naive
  n−k quorum strawman, and equivocators against the echo-less §4.1
  variant), where violations are expected and get shrunk into replayable
  counterexamples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import monotonic
from typing import Optional, Sequence

from repro.check.oracles import OracleSuite
from repro.check.shrink import replay_plan
from repro.errors import ConfigurationError
from repro.faults.byzantine import BYZANTINE_STRATEGIES
from repro.faults.plans import (
    ByzantineSpec,
    CrashSpec,
    FaultPlan,
    SCHEDULERS,
)
from repro.harness.runner import ExperimentRunner, default_workers
from repro.obs.metrics import MetricsRegistry
from repro.sim.results import Outcome, RunResult, Violation

#: Campaign scheduler pool: every registered scheduler takes its turn.
_SCHEDULER_NAMES = tuple(sorted(SCHEDULERS))

#: Echo-protocol strategies for at-bound malicious sampling.
_ECHO_STRATEGIES = tuple(
    sorted(
        name
        for name, (protocols, _) in BYZANTINE_STRATEGIES.items()
        if "malicious" in protocols
    )
)

#: Simple-variant strategies (over-bound only — see FaultPlan.over_bound).
_SIMPLE_STRATEGIES = tuple(
    sorted(
        name
        for name, (protocols, _) in BYZANTINE_STRATEGIES.items()
        if "simple" in protocols
    )
)


@dataclass(frozen=True)
class PlanVerdict:
    """One plan's outcome under the oracles; no schedule (see :meth:`reproduce`)."""

    plan: FaultPlan
    outcome: Outcome
    violation: Optional[Violation]
    steps: int

    @property
    def violated(self) -> bool:
        """True when the run tripped a safety oracle."""
        return self.violation is not None

    def reproduce(self, max_steps: int) -> None:
        """Re-run the plan from its seed; raise unless it trips this violation.

        Checked before shrinking, which re-records the schedule from the
        seed: a re-run that ends differently is replay nondeterminism — a
        bug, so a ``ConfigurationError`` naming the seed, not a statistic.
        """
        again = replay_plan(self.plan, max_steps=max_steps).violation
        if again != self.violation:
            raise ConfigurationError(
                f"plan seed={self.plan.seed} is not reproducible: the "
                f"campaign saw {self.violation}, a re-run saw {again}"
            )


@dataclass(frozen=True)
class CampaignReport:
    """Aggregate of one campaign: verdicts plus outcome accounting."""

    verdicts: tuple[PlanVerdict, ...]

    @property
    def plans(self) -> int:
        """Number of plans the campaign ran."""
        return len(self.verdicts)

    @property
    def violations(self) -> tuple[PlanVerdict, ...]:
        """Verdicts whose run tripped an oracle."""
        return tuple(v for v in self.verdicts if v.violated)

    def outcome_counts(self) -> dict[str, int]:
        """Verdict tally keyed by outcome name."""
        counts: dict[str, int] = {}
        for verdict in self.verdicts:
            key = verdict.outcome.value
            counts[key] = counts.get(key, 0) + 1
        return counts

    def render(self) -> str:
        """Human-readable campaign summary."""
        lines = [f"campaign: {self.plans} plans"]
        for outcome, count in sorted(self.outcome_counts().items()):
            lines.append(f"  {outcome:>18}: {count}")
        for verdict in self.violations:
            violation = verdict.violation
            lines.append(
                f"  VIOLATION {violation.oracle}@step{violation.step} "
                f"pid={violation.pid}: {verdict.plan.describe()}"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------- #
# Plan sampling
# ---------------------------------------------------------------------- #


def _sample_crash(rng: random.Random, pid: int, n: int) -> CrashSpec:
    """A random crash trigger; half the time a mid-broadcast partial one."""
    if rng.random() < 0.5:
        return CrashSpec(
            pid=pid,
            crash_at_step=rng.randrange(0, 12),
            keep_sends=rng.randrange(0, n),
        )
    return CrashSpec(pid=pid, crash_at_phase=rng.randrange(0, 4))


def _draw_seed(rng: random.Random, used: set) -> int:
    while True:
        seed = rng.randrange(2**31)
        if seed not in used:
            used.add(seed)
            return seed


def _sample_at_bound(
    rng: random.Random, used_seeds: set, protocols: Sequence[str]
) -> FaultPlan:
    protocol = protocols[rng.randrange(len(protocols))]
    n = rng.randrange(4, 10)
    if protocol == "failstop":
        bound = (n - 1) // 2
    else:
        bound = (n - 1) // 3
    k = rng.randrange(0, bound + 1)
    inputs = tuple(rng.randrange(2) for _ in range(n))
    fault_pids = rng.sample(range(n), rng.randrange(0, k + 1))
    crashes: list[CrashSpec] = []
    byzantine: list[ByzantineSpec] = []
    for pid in fault_pids:
        if protocol == "malicious" and rng.random() < 0.7:
            strategy = _ECHO_STRATEGIES[rng.randrange(len(_ECHO_STRATEGIES))]
            byzantine.append(ByzantineSpec(pid=pid, strategy=strategy))
        else:
            crashes.append(_sample_crash(rng, pid, n))
    return FaultPlan(
        protocol=protocol,
        n=n,
        k=k,
        inputs=inputs,
        crashes=tuple(crashes),
        byzantine=tuple(byzantine),
        scheduler=_SCHEDULER_NAMES[rng.randrange(len(_SCHEDULER_NAMES))],
        seed=_draw_seed(rng, used_seeds),
        exit_after_decide=(protocol == "malicious" and rng.random() < 0.3),
    )


def _sample_over_bound(rng: random.Random, used_seeds: set) -> FaultPlan:
    """A plan past the paper's bounds, biased toward fast falsification.

    The mix leans on the two regimes that demonstrably break within a
    seconds-scale budget — the naive n−k quorum under partition-prone
    random scheduling (Theorem 1's failure mode) and equivocators
    against the echo-less variant (the §4.1 attack) — with a side of
    over-bound Figure 2 cohorts (n ≤ 3k, Theorem 3's regime) for
    coverage.
    """
    dice = rng.random()
    scheduler = _SCHEDULER_NAMES[rng.randrange(len(_SCHEDULER_NAMES))]
    if dice < 0.4:
        # Naive quorum, k = ⌊n/2⌋: two disjoint (n−k)-views can both be
        # unanimous; mixed inputs make them disagree.
        n = rng.randrange(4, 9)
        k = n // 2
        inputs = tuple((pid + rng.randrange(2)) % 2 for pid in range(n))
        return FaultPlan(
            protocol="naive",
            n=n,
            k=k,
            inputs=inputs,
            scheduler=scheduler,
            seed=_draw_seed(rng, used_seeds),
        )
    if dice < 0.75:
        # Echo-less variant vs an equivocator: the §4.1 attack.
        n = rng.randrange(4, 7)
        k = max(1, (n - 1) // 3)
        inputs = tuple(pid % 2 for pid in range(n))
        byz_pid = rng.randrange(n)
        return FaultPlan(
            protocol="simple",
            n=n,
            k=k,
            inputs=inputs,
            byzantine=(
                ByzantineSpec(pid=byz_pid, strategy="equivocating_simple"),
            ),
            scheduler=scheduler,
            seed=_draw_seed(rng, used_seeds),
        )
    # Figure 2 past Theorem 3's bound: n ≤ 3k malicious cohort.
    n = rng.randrange(4, 8)
    k = max((n - 1) // 3 + 1, -(-n // 3))
    cohort = rng.sample(range(n), min(k, n - 1))
    byzantine = tuple(
        ByzantineSpec(
            pid=pid,
            strategy=_ECHO_STRATEGIES[rng.randrange(len(_ECHO_STRATEGIES))],
        )
        for pid in cohort
    )
    inputs = tuple(pid % 2 for pid in range(n))
    return FaultPlan(
        protocol="malicious",
        n=n,
        k=k,
        inputs=inputs,
        byzantine=byzantine,
        scheduler=scheduler,
        seed=_draw_seed(rng, used_seeds),
    )


def sample_plans(
    count: int,
    campaign_seed: int = 0,
    over_bound: bool = False,
    protocols: Optional[Sequence[str]] = None,
) -> list[FaultPlan]:
    """Deterministically sample ``count`` fault plans.

    Args:
        count: number of plans.
        campaign_seed: seed of the sampling RNG — the same
            (count, campaign_seed, over_bound, protocols) always yields
            the same plan list, so campaigns are replayable end to end.
        over_bound: sample past the resilience theorems instead of
            within them.
        protocols: at-bound protocol pool (default: failstop, malicious,
            simple); ignored for over-bound sampling, whose mix is
            falsification-biased by design.
    """
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    pool = tuple(protocols) if protocols else ("failstop", "malicious", "simple")
    rng = random.Random(campaign_seed)
    used_seeds: set = set()
    if over_bound:
        return [_sample_over_bound(rng, used_seeds) for _ in range(count)]
    return [_sample_at_bound(rng, used_seeds, pool) for _ in range(count)]


# ---------------------------------------------------------------------- #
# Execution
# ---------------------------------------------------------------------- #


def run_campaign(
    plans: Sequence[FaultPlan],
    max_steps: int = 20_000,
    workers: Optional[int] = None,
    metrics: Optional[MetricsRegistry] = None,
    deadline: Optional[float] = None,
) -> CampaignReport:
    """Run every plan with oracles armed; aggregate per-plan verdicts.

    Plans are keyed by their (unique) seeds so the parallel seed fan-out
    can dispatch them; each run gets a fresh process ensemble, scheduler
    and :class:`~repro.check.oracles.OracleSuite`.

    Args:
        plans: the campaign, e.g. from :func:`sample_plans`.  Seeds must
            be unique across the list.
        max_steps: per-run step budget (budget exhaustion is a verdict,
            not an error).
        workers: parallel fan-out width (None → REPRO_WORKERS, else 1).
        metrics: optional registry fed campaign counters
            (``fuzz.plans``, ``fuzz.outcome.*``, ``fuzz.violations.*``).
        deadline: ``time.monotonic()`` timestamp after which the
            campaign stops taking results.  The clock is checked after
            every worker-count of results, so a time budget is respected
            inside one plan list rather than only at its end; the first
            worker-count of plans is always reported.  Stopping cancels the
            chunks no worker has started — the returned report simply
            covers fewer plans than were passed.
    """
    plans = list(plans)
    plan_by_seed = {plan.seed: plan for plan in plans}
    if len(plan_by_seed) != len(plans):
        raise ConfigurationError(
            "campaign plans must carry unique seeds (use sample_plans or "
            "renumber them)"
        )
    runner = ExperimentRunner(
        process_factory=lambda seed: plan_by_seed[seed].build_processes(),
        scheduler_factory=lambda seed: plan_by_seed[seed].build_scheduler(),
        observer_factory=lambda seed: OracleSuite(),
        max_steps=max_steps,
        validate=False,
        require_termination=False,
        metrics=False,
    )
    # The clock is consulted every `slice_size` results, not once per
    # call.  Closing the iterator on the way out cancels the chunks no
    # worker has started and joins the workers.
    slice_size = max(1, workers if workers is not None else default_workers())
    results: list[RunResult] = []
    runs = runner.iter_runs([plan.seed for plan in plans], workers)
    try:
        for result in runs:
            results.append(result)
            if (
                deadline is not None
                and len(results) % slice_size == 0
                and monotonic() >= deadline
            ):
                break
    finally:
        runs.close()
    report = CampaignReport(
        verdicts=tuple(
            PlanVerdict(plan, result.outcome, result.violation, result.steps)
            for plan, result in zip(plans, results)
        )
    )
    if metrics is not None:
        metrics.inc("fuzz.plans", report.plans)
        for outcome, count in report.outcome_counts().items():
            metrics.inc(f"fuzz.outcome.{outcome}", count)
        for verdict in report.violations:
            metrics.inc(f"fuzz.violations.{verdict.violation.oracle}")
        metrics.gauge_max("fuzz.max_steps_observed", max(
            (v.steps for v in report.verdicts), default=0
        ))
    return report

