"""Replicated experiment execution.

:class:`ExperimentRunner` runs one configuration across many seeds,
validates every run (agreement + unanimous validity, unless the
experiment deliberately breaks the model), and aggregates the metrics
the paper talks about: phases to decision, steps, messages.

Seed fan-out can run in parallel: ``iter_runs`` (and ``run_many`` on
top of it) accepts a ``workers`` count and maps contiguous seed chunks
over a ``concurrent.futures.ProcessPoolExecutor`` that lives only for
the call (fork start method, so the runner's factories — often
closures — need no pickling).  No worker outlives the call, so a pool
never runs a stale configuration.  Every seed gets its own
``random.Random(seed)``, so per-seed results are identical whether
computed serially or by any worker: the parallel path only changes
*where* a seed runs, never what it computes, and results come back in
seed order.  ``workers=1`` (the default) never imports
:mod:`multiprocessing`.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from repro.errors import ConfigurationError, SimulationLimitError
from repro.harness.stats import SummaryStats, summarize
from repro.net.message import reset_envelope_sequence
from repro.net.schedulers import Scheduler
from repro.obs import collector
from repro.obs.metrics import MetricsSnapshot, merge_snapshots
from repro.obs.sinks import JsonlTraceSink
from repro.procs.base import Process
from repro.sim.kernel import HaltPredicate, Simulation, StepObserver
from repro.sim.results import HaltReason, RunResult

#: The runner being executed by the current pool's workers.  Set (in the
#: parent) while the pool forks; workers inherit it via fork, which is
#: what lets lambda/closure factories cross the process boundary without
#: pickling.
_POOL_RUNNER: Optional["ExperimentRunner"] = None

#: Whether the fork-unavailable fallback warning has fired this process.
_FORK_FALLBACK_WARNED = False


def _warn_fork_unavailable() -> None:
    """Warn (once per process) that run_many is degrading to serial."""
    global _FORK_FALLBACK_WARNED
    if _FORK_FALLBACK_WARNED:
        return
    _FORK_FALLBACK_WARNED = True
    warnings.warn(
        "the 'fork' multiprocessing start method is unavailable on this "
        "platform; run_many is executing seeds serially despite "
        "workers > 1",
        RuntimeWarning,
        stacklevel=3,
    )


def default_workers() -> int:
    """Default parallelism for ``run_many``: the REPRO_WORKERS env var, else 1.

    Serial by default: experiments are often small, and serial runs keep
    tracebacks and debugging simple.  Set ``REPRO_WORKERS=8`` (or pass
    ``--workers`` on the CLI) to opt into the pool.
    """
    raw = os.environ.get("REPRO_WORKERS", "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigurationError(
            f"REPRO_WORKERS={raw!r} is not an integer"
        ) from exc
    if value < 1:
        raise ConfigurationError(f"REPRO_WORKERS must be >= 1, got {value}")
    return value


def _run_seed_chunk(seeds: Sequence[int]) -> list[RunResult]:
    """Worker body: run a contiguous chunk of seeds on the inherited runner."""
    # Envelope ids are tracing metadata, but forked workers inherit the
    # parent's counter wherever it happens to stand (and pools may be
    # reused across chunks).  Resetting per chunk makes trace envelope
    # ids a deterministic function of the chunk alone.
    reset_envelope_sequence()
    runner = _POOL_RUNNER
    assert runner is not None, "worker forked without a pool runner"
    return [runner.run_one(seed) for seed in seeds]

#: Builds a fresh process list for a given seed.
ProcessFactory = Callable[[int], Sequence[Process]]
#: Builds a fresh scheduler for a given seed (schedulers keep state).
SchedulerFactory = Callable[[int], Scheduler]
#: Builds a fresh per-run safety observer for a given seed.
ObserverFactory = Callable[[int], StepObserver]


@dataclass
class ReplicatedRuns:
    """Results of one configuration across seeds, plus aggregate views."""

    results: list[RunResult] = field(default_factory=list)

    @property
    def count(self) -> int:
        """Number of recorded runs."""
        return len(self.results)

    def decision_phase_stats(self) -> SummaryStats:
        """Stats over each run's *last* decision phase (system latency)."""
        return summarize([max(r.phases_to_decide()) for r in self.results])

    def steps_stats(self) -> SummaryStats:
        """Stats over total atomic steps per run."""
        return summarize([r.steps for r in self.results])

    def messages_stats(self) -> SummaryStats:
        """Stats over messages sent per run."""
        return summarize([r.messages_sent for r in self.results])

    def consensus_values(self) -> list[Optional[int]]:
        """Each run's agreed value (None when a run reached no consensus)."""
        return [r.consensus_value for r in self.results]

    def agreement_rate(self) -> float:
        """Fraction of runs with no agreement violation (should be 1.0)."""
        return sum(r.agreement_holds for r in self.results) / len(self.results)

    # ------------------------------------------------------------------ #
    # Cross-run observability views
    # ------------------------------------------------------------------ #

    def merged_metrics(self) -> Optional[MetricsSnapshot]:
        """All runs' metrics folded together, in recorded (seed) order.

        ``None`` when no run collected metrics.  The fold is associative
        and performed on the seed-ordered result list, so the merged
        snapshot compares equal (``==``) whether the runs executed
        serially or on a worker pool.
        """
        return merge_snapshots(r.metrics for r in self.results)


class ExperimentRunner:
    """Runs a (factory, scheduler, seeds) configuration with validation.

    Args:
        process_factory: seed → fresh processes.
        scheduler_factory: seed → fresh scheduler, or None for the
            default uniform random scheduler.
        max_steps: per-run step budget.
        validate: check agreement and unanimous validity on every run
            (disable only for deliberate out-of-bounds experiments).
        require_termination: raise if a run fails to reach its goal
            within ``max_steps``.
        workers: default parallelism for :meth:`iter_runs` and
            :meth:`run_many`; ``None`` means :func:`default_workers` (the
            REPRO_WORKERS env var, else 1).
        metrics: collect per-run metrics snapshots
            (``RunResult.metrics``).  ``None`` (the default) defers to an
            open :mod:`repro.obs.collector` window, so
            ``repro-consensus run <id> --metrics`` reaches runners the
            experiment registry constructs internally.
        observer_factory: seed → fresh per-run safety observer (e.g. an
            :class:`~repro.check.oracles.OracleSuite`); a flagged
            violation ends the run early and lands in
            ``RunResult.violation`` instead of raising, so fuzz
            campaigns aggregate it like any other outcome.
    """

    def __init__(
        self,
        process_factory: ProcessFactory,
        scheduler_factory: Optional[SchedulerFactory] = None,
        max_steps: int = 1_000_000,
        validate: bool = True,
        require_termination: bool = True,
        halt_when: Optional[HaltPredicate] = None,
        workers: Optional[int] = None,
        metrics: Optional[bool] = None,
        observer_factory: Optional[ObserverFactory] = None,
    ) -> None:
        self.process_factory = process_factory
        self.scheduler_factory = scheduler_factory
        self.max_steps = max_steps
        self.validate = validate
        self.require_termination = require_termination
        self.halt_when = halt_when
        self.workers = workers
        self.metrics = metrics
        self.observer_factory = observer_factory

    def _metrics_enabled(self) -> bool:
        return collector.is_active() if self.metrics is None else self.metrics

    def run_one(self, seed: int) -> RunResult:
        """Execute a single seeded run, with validation."""
        scheduler = (
            self.scheduler_factory(seed) if self.scheduler_factory else None
        )
        sink = None
        trace_dir = collector.trace_out_dir()
        if trace_dir is not None:
            # One JSONL file per seed: parallel workers each own their
            # seeds' files, so streaming traces stay fan-out safe.
            sink = JsonlTraceSink(
                os.path.join(trace_dir, f"trace-seed{seed}.jsonl"),
                extra={"seed": seed},
            )
        observer = (
            self.observer_factory(seed) if self.observer_factory else None
        )
        try:
            simulation = Simulation(
                self.process_factory(seed),
                scheduler=scheduler,
                seed=seed,
                halt_when=self.halt_when,
                metrics=self._metrics_enabled(),
                sink=sink,
                observer=observer,
            )
            result = simulation.run(max_steps=self.max_steps)
        finally:
            if sink is not None:
                sink.close()
        if result.violation is not None:
            # An oracle deliberately ended this run; the violation *is*
            # the result — validation/termination raising would hide it.
            return result
        if self.validate:
            result.check_agreement()
            result.check_unanimous_validity()
        if (
            self.require_termination
            and result.halt_reason is not HaltReason.GOAL_REACHED
            and not result.all_correct_decided
        ):
            # GOAL_REACHED means the configured halting predicate held —
            # a custom halt_when (e.g. all_correct_exited) legitimately
            # ends runs where `all_correct_decided` is beside the point,
            # so only non-goal halts (budget, quiescence) count as
            # failures to terminate.
            raise SimulationLimitError(
                f"seed {seed}: run ended ({result.halt_reason.value}) with "
                f"undecided correct processes after {result.steps} steps"
            )
        return result

    def iter_runs(
        self, seeds: Sequence[int], workers: Optional[int] = None
    ) -> Iterator[RunResult]:
        """Yield each seed's validated result, in seed order.

        With ``workers > 1`` and at least two seeds, contiguous chunks of
        ⌈len/(4·workers)⌉ seeds are mapped over a fork-context
        ``ProcessPoolExecutor`` that lives only as long as this
        iterator.  Each seed's execution depends only on its own
        ``random.Random(seed)``, so the results equal the serial loop's.
        Closing the iterator early (a campaign deadline) cancels the
        chunks no worker has started and joins the workers.  An
        exception in a worker re-raises here; a worker that dies raises
        ``BrokenProcessPool``.  Runs serially when ``workers`` resolves
        to 1, fewer than two seeds are given, or the platform cannot
        fork.
        """
        global _POOL_RUNNER
        if workers is None:
            workers = self.workers if self.workers is not None else default_workers()
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        seeds = list(seeds)
        context = None
        if workers > 1 and len(seeds) > 1:
            import multiprocessing

            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # non-POSIX platforms (or tests) without fork
                # The caller asked for parallelism it silently would not
                # get; say so once, then degrade gracefully.
                _warn_fork_unavailable()
        if context is None:
            for seed in seeds:
                yield self.run_one(seed)
            return
        from concurrent.futures import ProcessPoolExecutor

        size = -(-len(seeds) // (4 * workers))
        chunks = [seeds[i : i + size] for i in range(0, len(seeds), size)]
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            # Workers fork as chunks are submitted — all at the first
            # submit on Python 3.11+, one per submit on 3.10 — so the
            # runner stays published until every chunk is queued.
            previous, _POOL_RUNNER = _POOL_RUNNER, self
            try:
                chunk_results = pool.map(_run_seed_chunk, chunks)
            finally:
                _POOL_RUNNER = previous
            try:
                for chunk in chunk_results:
                    yield from chunk
            finally:
                # The with block's shutdown would run every queued chunk
                # first; after an early close or a failed chunk, cancel
                # the ones no worker has started, then join.
                pool.shutdown(cancel_futures=True)

    def run_many(
        self, seeds: Sequence[int], workers: Optional[int] = None
    ) -> ReplicatedRuns:
        """Execute every seed through :meth:`iter_runs`; return the aggregate.

        Results are in seed order, so the aggregate is identical to a
        serial run of the same seed list for any worker count.
        """
        runs = ReplicatedRuns(list(self.iter_runs(seeds, workers)))
        if collector.is_active():
            # Fold snapshots in seed order, in the parent only, so the
            # collected aggregate is identical for any worker count.
            for result in runs.results:
                collector.record(result.metrics)
        return runs
