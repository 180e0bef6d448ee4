"""Tests for the fault-campaign engine (repro.check.campaign)."""

from dataclasses import replace
from time import monotonic

import pytest

from repro.check.campaign import run_campaign, sample_plans
from repro.check.shrink import replay_plan
from repro.errors import ConfigurationError
from repro.faults.plans import SCHEDULERS
from repro.net.schedulers import ScheduleRecorder
from repro.obs.metrics import MetricsRegistry
from repro.sim.results import Outcome


class TestSampling:
    def test_sampling_is_deterministic(self):
        first = sample_plans(25, campaign_seed=5)
        second = sample_plans(25, campaign_seed=5)
        assert first == second
        assert first != sample_plans(25, campaign_seed=6)

    def test_sampled_seeds_are_unique(self):
        plans = sample_plans(200, campaign_seed=1)
        assert len({plan.seed for plan in plans}) == len(plans)

    def test_at_bound_plans_respect_the_theorems(self):
        for plan in sample_plans(100, campaign_seed=2):
            assert not plan.over_bound, plan.describe()

    def test_over_bound_plans_exceed_the_theorems(self):
        for plan in sample_plans(100, campaign_seed=2, over_bound=True):
            assert plan.over_bound, plan.describe()

    def test_protocol_pool_is_honoured(self):
        plans = sample_plans(40, campaign_seed=3, protocols=("failstop",))
        assert {plan.protocol for plan in plans} == {"failstop"}

    def test_count_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            sample_plans(0)


class TestCampaign:
    def test_at_bound_campaign_is_violation_free(self):
        plans = sample_plans(40, campaign_seed=7)
        report = run_campaign(plans, max_steps=20_000)
        assert report.plans == 40
        assert report.violations == ()

    def test_over_bound_campaign_finds_violations_with_schedules(self):
        # Campaigns record no schedules: every violating verdict must
        # re-run from its seed, recording, to the identical violation —
        # the shrinker's raw material — serially and through the pool.
        for campaign_seed in (1, 7, 11):
            plans = sample_plans(40, campaign_seed=campaign_seed, over_bound=True)
            serial = run_campaign(plans, max_steps=20_000, workers=1)
            pooled = run_campaign(plans, max_steps=20_000, workers=2)
            assert pooled.verdicts == serial.verdicts
            assert len(serial.violations) >= 1
            for verdict in serial.violations:
                assert verdict.outcome is Outcome.VIOLATION
                rerun = replay_plan(verdict.plan, record=True, max_steps=20_000)
                assert rerun.violation == verdict.violation
                assert rerun.schedule

    def test_reproduce_rejects_a_different_violation(self):
        plans = sample_plans(40, campaign_seed=7, over_bound=True)
        verdict = run_campaign(plans, max_steps=20_000).violations[0]
        verdict.reproduce(20_000)  # the campaign's own violation re-runs
        shifted = replace(
            verdict,
            violation=replace(verdict.violation, step=verdict.violation.step + 1),
        )
        with pytest.raises(ConfigurationError, match=f"seed={verdict.plan.seed}"):
            shifted.reproduce(20_000)
        with pytest.raises(ConfigurationError, match=f"seed={verdict.plan.seed}"):
            replace(verdict, violation=None).reproduce(20_000)

    def test_campaign_constructs_no_schedule_recorder(self, monkeypatch):
        built = []
        original = ScheduleRecorder.__init__

        def counting_init(self, inner):
            built.append(inner)
            original(self, inner)

        monkeypatch.setattr(ScheduleRecorder, "__init__", counting_init)
        report = run_campaign(sample_plans(20, campaign_seed=3), workers=1)
        assert report.plans == 20
        assert built == []
        # The counter sees a recording run, so the zero above is real.
        replay_plan(sample_plans(1, campaign_seed=3)[0], record=True)
        assert len(built) == 1

    def test_duplicate_seeds_rejected(self):
        plans = sample_plans(2, campaign_seed=1)
        clone = [plans[0], plans[0]]
        with pytest.raises(ConfigurationError):
            run_campaign(clone)

    def test_metrics_are_fed(self):
        metrics = MetricsRegistry()
        plans = sample_plans(10, campaign_seed=9)
        report = run_campaign(plans, max_steps=20_000, metrics=metrics)
        snapshot = metrics.snapshot()
        assert snapshot.counters["fuzz.plans"] == 10
        total_outcomes = sum(
            count for name, count in snapshot.counters.items()
            if name.startswith("fuzz.outcome.")
        )
        assert total_outcomes == report.plans

    def test_expired_deadline_stops_after_first_slice(self):
        # Regression: --time-budget used to be checked only around the
        # whole run_campaign call, so one long plan list blew straight
        # through the budget.  The deadline now cuts inside the list.
        plans = sample_plans(12, campaign_seed=13)
        report = run_campaign(
            plans, max_steps=20_000, workers=2, deadline=monotonic() - 1.0
        )
        # One worker-sized slice always runs; nothing after it starts.
        assert report.plans == 2

    def test_future_deadline_covers_every_plan(self):
        plans = sample_plans(6, campaign_seed=13)
        report = run_campaign(
            plans, max_steps=20_000, workers=2, deadline=monotonic() + 3600.0
        )
        assert report.plans == 6

    def test_deadline_slices_preserve_verdicts(self):
        # A sliced campaign must reach the same verdicts as one batch.
        plans = sample_plans(8, campaign_seed=7, over_bound=True)
        whole = run_campaign(plans, max_steps=20_000)
        sliced = run_campaign(
            plans, max_steps=20_000, workers=2, deadline=monotonic() + 3600.0
        )
        assert [v.outcome for v in sliced.verdicts] == [
            v.outcome for v in whole.verdicts
        ]
        assert len(sliced.violations) == len(whole.violations)

    def test_render_mentions_every_violation(self):
        plans = sample_plans(40, campaign_seed=7, over_bound=True)
        report = run_campaign(plans, max_steps=20_000)
        text = report.render()
        assert f"campaign: {report.plans} plans" in text
        assert text.count("VIOLATION") == len(report.violations)


class TestOutcomes:
    def test_budget_exhaustion_is_first_class(self):
        plan = sample_plans(1, campaign_seed=11)[0]
        starved = replay_plan(plan, max_steps=plan.n + 2)
        assert starved.outcome is Outcome.BUDGET_EXHAUSTED

    def test_truncated_script_goes_quiescent(self):
        plan = sample_plans(1, campaign_seed=11)[0]
        recorded = replay_plan(plan, record=True, max_steps=50_000)
        assert recorded.outcome is Outcome.DECIDED
        starved = replay_plan(
            plan, schedule=recorded.schedule[:2], max_steps=50_000
        )
        assert starved.outcome is Outcome.QUIESCENT


class TestRecordReplay:
    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_recorded_schedule_replays_to_identical_run(self, scheduler):
        # one at-bound plan under every scheduler: record, replay, re-record
        plan = replace(sample_plans(1, campaign_seed=11)[0], scheduler=scheduler)
        recorded = replay_plan(plan, record=True, max_steps=50_000)
        replayed = replay_plan(
            plan, schedule=recorded.schedule, record=True, max_steps=50_000
        )
        assert replayed.steps == recorded.steps
        assert replayed.consensus_value == recorded.consensus_value
        assert replayed.violation == recorded.violation
        assert replayed.schedule == recorded.schedule
        if scheduler != "fifo":  # out-of-seq deliveries need non-zero ranks
            assert any(rank for _pid, _sender, rank in recorded.schedule)
