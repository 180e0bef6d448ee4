"""End-to-end observability: runner fan-out, kernel hot path, CLI."""

import json

import pytest

from repro.harness.builders import build_failstop_processes
from repro.harness.cli import main
from repro.harness.runner import ExperimentRunner
from repro.harness.workloads import balanced_inputs
from repro.procs.base import Process
from repro.sim import kernel
from repro.sim.kernel import Simulation, StepObserver

pytestmark = pytest.mark.obs

SEEDS = list(range(6))


def _runner(**kwargs):
    return ExperimentRunner(
        lambda seed: build_failstop_processes(5, 2, balanced_inputs(5)),
        metrics=True,
        **kwargs,
    )


class TestParallelDeterminism:
    def test_run_many_parallel_metrics_identical_to_serial(self):
        """Golden check: worker fan-out must not change any metric."""
        serial = _runner().run_many(SEEDS, workers=1)
        parallel = _runner().run_many(SEEDS, workers=2)
        for left, right in zip(serial.results, parallel.results):
            assert left.metrics is not None and right.metrics is not None
            assert left.metrics == right.metrics
        assert serial.merged_metrics() == parallel.merged_metrics()

    def test_merged_metrics_has_expected_names(self):
        runs = _runner().run_many(SEEDS[:2])
        merged = runs.merged_metrics()
        assert merged.counters["decisions"] > 0
        # Lazily created: present only if a φ step actually occurred.
        assert merged.counters.get("kernel.phi_steps", 0) >= 0
        assert any(
            name.startswith("messages.sent.") for name in merged.counters
        )
        assert any(
            name.startswith("failstop.witnesses.phase.")
            for name in merged.counters
        )
        assert merged.histograms["decision.latency_phases"].count > 0

    def test_metrics_off_leaves_result_metrics_none(self):
        runner = ExperimentRunner(
            lambda seed: build_failstop_processes(5, 2, balanced_inputs(5)),
            metrics=False,
        )
        runs = runner.run_many(SEEDS[:2])
        assert all(r.metrics is None for r in runs.results)
        assert runs.merged_metrics() is None


class TestZeroOverheadPath:
    def test_disabled_hot_path_makes_no_sink_calls(self, monkeypatch):
        """Tier-1 guard for the overhead budget: with metrics off and
        ``sink=None``, no event object is constructed — recording is a
        single flag check, not a suppressed call.  Every event class the
        kernel can build raises here, and the run still completes."""

        def refuse(*args, **kwargs):
            raise AssertionError("event built with recording off")

        for name in (
            "CrashEvent", "DecideEvent", "DeliverEvent", "ExitEvent",
            "PhiEvent", "SendEvent", "StartEvent",
        ):
            monkeypatch.setattr(kernel, name, refuse)
        sim = Simulation(
            build_failstop_processes(
                5, 2, balanced_inputs(5),
                crashes={0: {"crash_at_step": 3, "keep_sends": 2}},
            ),
            seed=0,
        )
        result = sim.run(max_steps=300_000)
        assert sim.sink is None
        assert result.metrics is None
        assert result.decisions.count(None) < 5


class TestExceptionPathFold:
    def test_raising_step_keeps_its_captures(self):
        """The step loop folds its buffered captures from ``finally``: a
        correct process whose ``step`` raises (metrics on, no observer)
        still leaves that step's phase / delivery counts in the
        registry."""

        class Boom(Exception):
            pass

        class RaisesOnSecondStep(Process):
            input_value = 0
            phaseno = 4

            def start(self):
                self.stepped = 0
                return self._broadcast("tick")

            def step(self, envelope):
                self.stepped += 1
                if self.stepped == 2:
                    raise Boom
                return []

        n = 3
        sim = Simulation(
            [RaisesOnSecondStep(pid, n) for pid in range(n)],
            seed=3,
            metrics=True,
        )
        with pytest.raises(Boom):
            sim.run(max_steps=1_000)
        completed = sim.steps - n  # loop steps before the raising one
        assert completed >= 1
        snapshot = sim.metrics.snapshot()
        counters = snapshot.counters
        assert counters["kernel.steps.phase.4"] == completed + 1
        assert (
            counters.get("messages.delivered.str", 0)
            + counters.get("kernel.phi_steps", 0)
            == completed + 1
        )
        assert counters["messages.sent.str"] == n * n


class TestMidRunSnapshot:
    def test_snapshot_during_run_drops_no_histogram_samples(self):
        """An observer (or a ``halt_when`` predicate) may read
        ``sim.metrics.snapshot()`` mid-run.  The step loop holds
        ``pending.append`` of its per-step histograms, so flushing them
        must empty the deferred list in place: every loop step still
        records one ``scheduler.pending_messages`` sample."""

        class SnapshotAtStep(StepObserver):
            def __init__(self, at):
                self.at = at
                self.taken = None

            def on_step(self, sim, pid, envelope, sends):
                if sim.steps == self.at:
                    self.taken = sim.metrics.snapshot()

        def run(observer):
            n = 5
            sim = Simulation(
                build_failstop_processes(n, 2, balanced_inputs(n)),
                seed=0,
                metrics=True,
                observer=observer,
            )
            result = sim.run(max_steps=300_000)
            return result, result.steps - n  # loop steps after the starts

        plain, plain_loop_steps = run(None)
        probe = SnapshotAtStep(at=50)
        observed, loop_steps = run(probe)
        assert probe.taken is not None
        assert loop_steps == plain_loop_steps > 50
        for name in (
            "scheduler.pending_messages", "scheduler.candidate_processes",
        ):
            assert observed.metrics.histograms[name].count == loop_steps
        assert observed.metrics == plain.metrics


class TestCli:
    def test_metrics_check_passes(self, capsys):
        assert main(["metrics", "--check"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "PASS" in out

    def test_run_with_metrics_prints_witnesses_and_latency(self, capsys):
        assert main(["run", "e1", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "instrumented runs" in out
        assert "failstop.witness" in out
        assert "phase" in out
        assert "decision.latency_phases" in out
        assert "decision.latency_steps" in out

    def test_metrics_subcommand_writes_json_and_traces(self, tmp_path):
        out_path = tmp_path / "metrics.json"
        trace_dir = tmp_path / "traces"
        assert (
            main(
                [
                    "metrics",
                    "--seeds", "2",
                    "--out", str(out_path),
                    "--trace-out", str(trace_dir),
                ]
            )
            == 0
        )
        payload = json.loads(out_path.read_text())
        assert payload["format"] == "repro-metrics/2"
        assert set(payload["snapshots"]) == {
            "failstop-n7k3", "malicious-n7k2",
        }
        for snapshot in payload["snapshots"].values():
            assert snapshot["counters"]["decisions"] > 0
        jsonl_files = sorted(trace_dir.rglob("trace-seed*.jsonl"))
        assert len(jsonl_files) == 4  # 2 configs x 2 seeds
        assert all(f.stat().st_size > 0 for f in jsonl_files)
