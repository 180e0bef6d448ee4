"""Determinism, fallback and pool lifetime of the parallel ``run_many``."""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import ConfigurationError
from repro.harness.builders import build_failstop_processes
from repro.harness.runner import ExperimentRunner, default_workers
from repro.harness.workloads import balanced_inputs


def make_runner(**kwargs):
    return ExperimentRunner(
        lambda seed: build_failstop_processes(5, 2, balanced_inputs(5)),
        **kwargs,
    )


SEEDS = list(range(100, 112))


class TestParallelDeterminism:
    def test_parallel_matches_serial_exactly(self):
        serial = make_runner().run_many(SEEDS, workers=1)
        parallel = make_runner().run_many(SEEDS, workers=4)
        # Full per-run equality in seed order — not just aggregates.
        assert serial.results == parallel.results

    def test_aggregate_stats_identical(self):
        serial = make_runner().run_many(SEEDS, workers=1)
        parallel = make_runner().run_many(SEEDS, workers=3)
        assert serial.decision_phase_stats() == parallel.decision_phase_stats()
        assert serial.steps_stats() == parallel.steps_stats()
        assert serial.messages_stats() == parallel.messages_stats()
        assert serial.consensus_values() == parallel.consensus_values()

    def test_worker_count_does_not_change_results(self):
        baseline = make_runner().run_many(SEEDS, workers=2)
        assert make_runner().run_many(SEEDS, workers=5).results == baseline.results

    def test_more_workers_than_seeds(self):
        few = SEEDS[:2]
        serial = make_runner().run_many(few, workers=1)
        parallel = make_runner().run_many(few, workers=16)
        assert serial.results == parallel.results


class TestWorkersPlumbing:
    def test_workers_1_is_serial_fallback(self, monkeypatch):
        # The serial path must never touch multiprocessing.
        import multiprocessing

        def boom(*args, **kwargs):
            raise AssertionError("pool used for workers=1")

        monkeypatch.setattr(multiprocessing, "get_context", boom)
        results = make_runner().run_many(SEEDS[:3], workers=1)
        assert results.count == 3

    def test_forkless_platform_warns_once_and_runs_serially(self, monkeypatch):
        # Regression: when fork is unavailable, run_many used to drop to
        # the serial path without a word — workers=4 silently meant
        # workers=1.  The degradation must now be announced (once).
        import multiprocessing
        import warnings

        import repro.harness.runner as runner_module

        def no_fork(method=None):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        monkeypatch.setattr(runner_module, "_FORK_FALLBACK_WARNED", False)
        with pytest.warns(RuntimeWarning, match="fork"):
            first = make_runner().run_many(SEEDS, workers=4)
        # Results are still correct and seed-ordered, just serial.
        assert first.results == make_runner().run_many(SEEDS, workers=1).results
        # The second degradation is silent: warn once per process.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            second = make_runner().run_many(SEEDS[:3], workers=4)
        assert second.count == 3

    def test_get_context_valueerror_triggers_fallback(self, monkeypatch):
        import multiprocessing

        import repro.harness.runner as runner_module

        def no_fork_context(method=None):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(
            multiprocessing, "get_context", no_fork_context
        )
        monkeypatch.setattr(runner_module, "_FORK_FALLBACK_WARNED", False)
        with pytest.warns(RuntimeWarning, match="serially"):
            runs = make_runner().run_many(SEEDS[:4], workers=2)
        assert runs.count == 4

    def test_invalid_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            make_runner().run_many(SEEDS[:2], workers=0)

    def test_constructor_workers_used_by_default(self):
        runner = make_runner(workers=2)
        assert runner.run_many(SEEDS[:4]).count == 4

    def test_default_workers_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert default_workers() == 1
        monkeypatch.setenv("REPRO_WORKERS", "6")
        assert default_workers() == 6
        monkeypatch.setenv("REPRO_WORKERS", "zero")
        with pytest.raises(ConfigurationError):
            default_workers()
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ConfigurationError):
            default_workers()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)
class TestPoolLifetime:
    """One pool per call: no worker outlives it, and no failure hangs it."""

    @staticmethod
    def _runner_failing_in_workers(fail):
        parent = os.getpid()

        def factory(seed):
            if os.getpid() != parent:
                fail(seed)
            return build_failstop_processes(5, 2, balanced_inputs(5))

        return ExperimentRunner(factory)

    def test_no_children_after_run_many_returns(self):
        make_runner().run_many(SEEDS, workers=2)
        assert multiprocessing.active_children() == []

    def test_worker_exception_reraises_and_leaves_no_children(self):
        def fail(seed):
            raise RuntimeError(f"seed {seed} failed in a worker")

        runner = self._runner_failing_in_workers(fail)
        with pytest.raises(RuntimeError, match="failed in a worker"):
            runner.run_many(SEEDS, workers=2)
        assert multiprocessing.active_children() == []

    def test_dying_worker_raises_instead_of_hanging(self):
        runner = self._runner_failing_in_workers(lambda seed: os._exit(3))
        started = time.monotonic()
        with pytest.raises(BrokenProcessPool):
            runner.run_many(SEEDS, workers=2)
        assert time.monotonic() - started < 10.0
        assert multiprocessing.active_children() == []

    def test_closing_iter_runs_early_returns_promptly(self):
        started = time.monotonic()
        runs = make_runner().iter_runs(range(40), workers=2)
        first = next(runs)
        runs.close()
        assert time.monotonic() - started < 10.0
        assert multiprocessing.active_children() == []
        assert first == make_runner().run_one(0)


class TestWorkerEnvelopeDeterminism:
    def test_seed_chunk_resets_the_envelope_counter(self):
        """Chunk results are independent of the inherited counter state.

        Forked workers inherit the parent's envelope counter wherever it
        happens to stand, and a reused pool worker carries the previous
        chunk's count forward; ``_run_seed_chunk`` resets the counter so
        trace envelope ids are a deterministic function of the chunk.
        """
        from repro.harness import runner as runner_module
        from repro.net.message import Envelope, reset_envelope_sequence

        def run_chunk_with_polluted_counter(pollution: int) -> int:
            reset_envelope_sequence()
            for _ in range(pollution):
                Envelope(0, 0, None)  # advance the global counter
            runner_module._POOL_RUNNER = make_runner(metrics=True)
            try:
                results = runner_module._run_seed_chunk([0, 1])
            finally:
                runner_module._POOL_RUNNER = None
            assert all(
                result.consensus_value is not None for result in results
            )
            # The counter position after the chunk is the observable:
            # it summarises every envelope id the chunk assigned.
            return Envelope(0, 0, None).seq

        baseline = run_chunk_with_polluted_counter(0)
        assert run_chunk_with_polluted_counter(1_000) == baseline
        assert run_chunk_with_polluted_counter(37) == baseline
