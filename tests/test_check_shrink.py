"""Tests for counterexample shrinking and replay (repro.check.shrink)."""

import os

import pytest

from repro.check.campaign import run_campaign, sample_plans
from repro.check.shrink import Counterexample, replay_artifact, shrink
from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry


def _first_violation(over_bound_seed=7):
    plans = sample_plans(40, campaign_seed=over_bound_seed, over_bound=True)
    report = run_campaign(plans, max_steps=20_000)
    assert report.violations, "over-bound campaign found nothing to shrink"
    return report.violations[0]


class TestShrink:
    def test_shrink_reduces_and_replays_bit_identically(self):
        verdict = _first_violation()
        artifact = shrink(verdict.plan, max_steps=20_000)
        assert artifact.schedule_len <= artifact.original_schedule_len
        assert artifact.plan.fault_count <= verdict.plan.fault_count
        result, exact = replay_artifact(artifact)
        assert exact
        assert result.violation == artifact.violation
        # replay determinism: a second replay is identical too
        again, exact_again = replay_artifact(artifact)
        assert exact_again
        assert again.steps == result.steps

    def test_shrink_feeds_metrics(self):
        verdict = _first_violation()
        metrics = MetricsRegistry()
        shrink(verdict.plan, max_steps=20_000, metrics=metrics)
        snapshot = metrics.snapshot()
        assert snapshot.counters["fuzz.shrink.counterexamples"] == 1
        assert "fuzz.shrink.reduction_percent" in snapshot.histograms

    def test_shrink_rejects_non_violating_plan(self):
        plan = sample_plans(1, campaign_seed=13)[0]  # at-bound: must decide
        with pytest.raises(ConfigurationError):
            shrink(plan, max_steps=50_000)


class TestArtifactSerialisation:
    def test_json_round_trip_is_identity(self, tmp_path):
        verdict = _first_violation()
        artifact = shrink(verdict.plan, max_steps=20_000)
        path = os.path.join(tmp_path, "counterexample.json")
        artifact.save(path)
        loaded = Counterexample.load(path)
        assert loaded == artifact
        _result, exact = replay_artifact(loaded)
        assert exact
