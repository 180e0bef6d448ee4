"""End-to-end observability: runner fan-out, kernel hot path, CLI."""

import json

import pytest

from repro.harness.builders import build_failstop_processes
from repro.harness.cli import main
from repro.harness.runner import ExperimentRunner
from repro.harness.workloads import balanced_inputs
from repro.obs.sinks import CountingSink
from repro.procs.base import Process
from repro.sim.kernel import Simulation

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
            # Timers are wall-clock and differ; everything else must not.
            assert left.metrics.stable() == right.metrics.stable()
        merged_serial = serial.merged_metrics()
        merged_parallel = parallel.merged_metrics()
        assert merged_serial.stable() == merged_parallel.stable()

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
        assert runs.metrics_histogram("decision.latency_phases") is not None
        assert runs.metrics_histogram("no.such.histogram") is None

    def test_metrics_off_leaves_result_metrics_none(self):
        runner = ExperimentRunner(
            lambda seed: build_failstop_processes(5, 2, balanced_inputs(5)),
            metrics=False,
        )
        runs = runner.run_many(SEEDS[:2])
        assert all(r.metrics is None for r in runs.results)
        assert runs.merged_metrics() is None

    def test_env_var_enables_metrics(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "1")
        runner = ExperimentRunner(
            lambda seed: build_failstop_processes(5, 2, balanced_inputs(5)),
        )
        result = runner.run_one(0)
        assert result.metrics is not None


class TestZeroOverheadPath:
    def test_disabled_hot_path_makes_no_sink_calls(self):
        """Tier-1 guard for the overhead budget: with metrics off and an
        inactive sink, the kernel must never call ``emit`` — recording is
        a single flag check, not a suppressed call."""
        probe = CountingSink(active=False)
        sim = Simulation(
            build_failstop_processes(5, 2, balanced_inputs(5)),
            seed=0,
            sink=probe,
        )
        result = sim.run(max_steps=300_000)
        assert probe.emitted == 0
        assert result.metrics is None


class TestExceptionPathFold:
    def test_raising_step_keeps_its_captures(self):
        """The step loop folds its buffered captures from ``finally``: a
        correct process whose ``step`` raises (metrics on, no observer)
        still leaves that step's phase / delivery counts and exact
        timer call counts in the registry."""

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
        assert snapshot.timers["time.routing"].calls == n + completed
        assert snapshot.timers["time.scheduler_pick"].calls == completed + 1
        assert snapshot.timers["time.protocol_step"].calls == completed


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
        assert payload["format"] == "repro-metrics/1"
        assert set(payload["snapshots"]) == {
            "failstop-n7k3", "malicious-n7k2",
        }
        for snapshot in payload["snapshots"].values():
            assert snapshot["counters"]["decisions"] > 0
        jsonl_files = sorted(trace_dir.rglob("trace-seed*.jsonl"))
        assert len(jsonl_files) == 4  # 2 configs x 2 seeds
        assert all(f.stat().st_size > 0 for f in jsonl_files)
