"""End-to-end determinism: every entry point replays bit-identically by seed.

The simulator's whole value as a research artifact rests on replay: a
(processes, scheduler, seed) triple must reproduce the same execution,
trace, and statistics on every run and every entry point.
"""

import ast
import subprocess
import sys

import pytest

from repro.faults.byzantine import BalancingEchoByzantine
from repro.harness.builders import (
    build_failstop_processes,
    build_malicious_processes,
)
from repro.harness.runner import ExperimentRunner
from repro.harness.workloads import balanced_inputs
from repro.obs.sinks import InMemorySink
from repro.sim.kernel import Simulation


class TestRunReplay:
    def test_traces_replay_identically(self):
        def run():
            processes = build_failstop_processes(
                5, 2, balanced_inputs(5),
                crashes={0: {"crash_at_step": 3, "keep_sends": 1}},
            )
            sim = Simulation(processes, seed=11, sink=InMemorySink())
            sim.run(max_steps=300_000)
            return sim.sink.events

        first, second = run(), run()
        assert len(first) == len(second)
        assert first == second

    def test_byzantine_runs_replay(self):
        def run():
            processes = build_malicious_processes(
                7, 2, balanced_inputs(7),
                byzantine={6: BalancingEchoByzantine},
            )
            result = Simulation(processes, seed=5).run(max_steps=3_000_000)
            return (result.decisions, result.steps, result.messages_sent)

        assert run() == run()

    def test_experiment_runner_replays(self):
        def aggregate():
            runner = ExperimentRunner(
                lambda seed: build_failstop_processes(7, 3, balanced_inputs(7))
            )
            runs = runner.run_many(range(5))
            return (
                runs.consensus_values(),
                [r.steps for r in runs.results],
            )

        assert aggregate() == aggregate()


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0
        assert "E1" in completed.stdout
        assert "E10" in completed.stdout

    def test_importing_the_runtime_leaves_scipy_unloaded(self):
        """numpy and scipy are the §4 analysis layer's alone: the
        package and the suite's runtime entry points (kernel,
        schedulers, fuzzer, SMR service, CLI) import without either."""
        assert _numeric_modules_after(
            "import repro, repro.sim.kernel, repro.net.schedulers, "
            "repro.check.campaign, repro.cluster.smr, repro.harness.cli"
        ) == []

    @pytest.mark.parametrize("argv", [["list"], ["smr", "--help"]])
    def test_cli_commands_leave_numpy_and_scipy_unloaded(self, argv):
        """``python -m repro list`` and ``smr --help`` load neither."""
        assert _numeric_modules_after(
            "import runpy\n"
            f"sys.argv = ['repro', *{argv!r}]\n"
            "try:\n"
            "    runpy.run_module('repro', run_name='__main__')\n"
            "except SystemExit as exit:\n"
            "    assert not exit.code, exit.code\n"
        ) == []

    def test_probe_sees_the_lockstep_simulator_load_numpy(self):
        """Positive control: the probe does see numpy when the lockstep
        Monte Carlo (an analysis path) is imported."""
        assert "numpy" in _numeric_modules_after("import repro.sim.lockstep")


def _numeric_modules_after(code: str) -> list:
    """Top-level numpy/scipy modules loaded by ``code`` in a fresh
    interpreter (the probe prints them on the last stdout line)."""
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys\n"
            + code
            + "\nprint(sorted({m.split('.')[0] for m in sys.modules}"
            " & {'numpy', 'scipy'}))",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return ast.literal_eval(completed.stdout.splitlines()[-1])


class TestScale:
    def test_failstop_at_n_25(self):
        """A larger configuration stays correct and fast (Theorem 2's
        flatness claim at a size no other test touches)."""
        n, k = 25, 12
        processes = build_failstop_processes(
            n, k, balanced_inputs(n),
            crashes={pid: {"crash_at_step": 4 + pid} for pid in range(6)},
        )
        result = Simulation(processes, seed=0).run(max_steps=2_000_000)
        result.check_agreement()
        assert result.all_correct_decided
        assert max(result.phases_to_decide()) <= 10
