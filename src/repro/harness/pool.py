"""Persistent warm worker pool for parallel seed fan-out.

PR 1's ``run_many`` forked a fresh ``multiprocessing.Pool`` for every
call, so each batch of seeds paid the whole pool spin-up (forking,
pipe setup, interpreter page faults) before the first seed ran.  On a
24-seed batch that overhead exceeded the work itself: parallel
``run_many`` measured *0.44x of serial*.  Every fan-out in the repo —
the fuzzer's sliced campaigns, the experiment registry — goes through
``run_many``, so the fix is structural: fork once, keep the workers
warm, and feed them over a queue.  The repository benchmark tracks the
result as ``harness.pool.parallel_plans_per_s``
(``python3 benchmarks/suite/run.py``).

A :class:`WorkerPool` holds N forked worker processes consuming
``(task_id, seed_chunk)`` tuples from a shared task queue and pushing
``(task_id, ok, payload, seconds)`` results back.  Workers inherit the
parent's address space at fork time (the runner, its closures, the
collector state), which is what lets lambda factories cross the process
boundary without pickling — the same trick the per-call pool used, made
durable.  The parent reorders results by task id, so chunk completion
order never affects the aggregate: the serial-identical guarantee of
``run_many`` is preserved verbatim.

Lifecycle: pools register in a module-level weak set and are reaped at
interpreter exit (``atexit``); the owning
:class:`~repro.harness.runner.ExperimentRunner` additionally closes its
pool via ``close()``/``with`` or a ``weakref.finalize`` when the runner
is garbage collected.  Workers are daemonic, so even an unclosed pool
cannot keep the interpreter alive.

Chunking is *cost-aware*: :func:`plan_chunks` sizes chunks from a
measured per-seed cost estimate (a parent-side calibration run or the
previous batch's worker-side timings) so each dispatch carries
:data:`TARGET_CHUNK_SECONDS` of work, instead of the static
``nworkers * 4`` split that made tiny cheap seeds pay per-chunk
round-trips.
"""

from __future__ import annotations

import atexit
import time
import traceback
import weakref
from typing import Callable, Optional, Sequence

from repro.errors import ConfigurationError

#: Seconds of work one dispatched chunk should aim to carry.  Queue
#: round-trips cost ~0.1 ms, so 50 ms chunks keep dispatch overhead
#: well under 1% while still giving the pool load-balancing slack.
TARGET_CHUNK_SECONDS = 0.05

#: Seconds between dead-worker checks while the parent awaits results.
_POLL_SECONDS = 0.25

#: Open pools, reaped at interpreter exit.
_LIVE_POOLS: "weakref.WeakSet[WorkerPool]" = weakref.WeakSet()


def _reap_all_pools() -> None:
    for pool in list(_LIVE_POOLS):
        pool.close()


atexit.register(_reap_all_pools)


def fork_context():
    """The ``fork`` multiprocessing context, or None when unavailable.

    Looked up per call (not cached) so platforms and tests that disable
    fork are observed immediately.
    """
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # non-POSIX platforms (or tests) without fork
        return None


def plan_chunks(
    seeds: Sequence[int],
    nworkers: int,
    est_seconds_per_seed: Optional[float],
) -> list[list[int]]:
    """Split ``seeds`` into contiguous dispatch chunks.

    With a cost estimate, the chunk size targets
    :data:`TARGET_CHUNK_SECONDS` of work per dispatch, clamped so there
    are still at least ~2 chunks per worker (load balance beats
    amortisation once chunks are big enough).  Without an estimate (the
    first batch ever), the static ``nworkers * 4`` heuristic applies.
    Either way the chunk count never exceeds ``len(seeds)``: every chunk
    is non-empty, so a 2-seed batch on a 16-worker pool dispatches 2
    single-seed chunks, not 16 mostly-empty ones.
    """
    seeds = list(seeds)
    if not seeds:
        return []
    if nworkers < 1:
        raise ConfigurationError(f"nworkers must be >= 1, got {nworkers}")
    balanced_cap = max(1, -(-len(seeds) // (2 * nworkers)))
    if est_seconds_per_seed is None or est_seconds_per_seed <= 0:
        chunk_size = max(1, -(-len(seeds) // (nworkers * 4)))
    else:
        by_cost = max(1, int(TARGET_CHUNK_SECONDS / est_seconds_per_seed))
        chunk_size = min(by_cost, balanced_cap)
    chunk_size = min(chunk_size, len(seeds))
    return [
        seeds[start : start + chunk_size]
        for start in range(0, len(seeds), chunk_size)
    ]


def _worker_main(tasks, results, chunk_fn) -> None:
    """Worker loop: drain the task queue until the ``None`` sentinel.

    Every outcome — results or an exception from ``chunk_fn`` — is
    reported back tagged with the task id and the chunk's wall-clock
    seconds (the parent's per-seed cost estimator).  ``SimpleQueue.put``
    pickles synchronously in this process, so an unpicklable payload
    surfaces here (and is reported as an error) instead of vanishing in
    a feeder thread and deadlocking the parent.
    """
    while True:
        task = tasks.get()
        if task is None:
            return
        task_id, chunk = task
        started = time.perf_counter()
        try:
            payload = chunk_fn(chunk)
        except BaseException as exc:  # noqa: BLE001 - reported to parent
            elapsed = time.perf_counter() - started
            try:
                results.put((task_id, False, exc, elapsed))
            except Exception:
                results.put(
                    (
                        task_id,
                        False,
                        RuntimeError(
                            "worker exception was not picklable:\n"
                            + traceback.format_exc()
                        ),
                        elapsed,
                    )
                )
        else:
            elapsed = time.perf_counter() - started
            try:
                results.put((task_id, True, payload, elapsed))
            except Exception as exc:
                results.put(
                    (
                        task_id,
                        False,
                        RuntimeError(f"worker result was not picklable: {exc}"),
                        elapsed,
                    )
                )


class WorkerPool:
    """N warm forked workers behind a shared task queue.

    Args:
        nworkers: processes to fork.
        chunk_fn: the worker body, ``seed_chunk -> payload``.  Captured
            by fork, so it (and anything it closes over) needs no
            pickling; only task tuples and result payloads cross the
            process boundary.
        context: a ``fork`` multiprocessing context (see
            :func:`fork_context`); resolved automatically when None.

    Raises:
        ConfigurationError: when ``nworkers < 1`` or fork is
            unavailable and no context was supplied.
    """

    def __init__(
        self,
        nworkers: int,
        chunk_fn: Callable[[Sequence[int]], object],
        context=None,
    ) -> None:
        if nworkers < 1:
            raise ConfigurationError(f"nworkers must be >= 1, got {nworkers}")
        if context is None:
            context = fork_context()
            if context is None:
                raise ConfigurationError(
                    "the 'fork' start method is unavailable on this platform"
                )
        self._tasks = context.SimpleQueue()
        self._results = context.SimpleQueue()
        self._closed = False
        self._workers = []
        for _ in range(nworkers):
            worker = context.Process(
                target=_worker_main,
                args=(self._tasks, self._results, chunk_fn),
                daemon=True,
            )
            worker.start()
            self._workers.append(worker)
        _LIVE_POOLS.add(self)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def nworkers(self) -> int:
        """Number of forked workers."""
        return len(self._workers)

    @property
    def closed(self) -> bool:
        """True once the pool has been shut down (pools do not reopen)."""
        return self._closed

    def worker_pids(self) -> list[int]:
        """OS pids of the workers (for lifecycle tests)."""
        return [worker.pid for worker in self._workers]

    def workers_alive(self) -> bool:
        """True while every worker process is alive."""
        return all(worker.is_alive() for worker in self._workers)

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #

    def map_chunks(
        self, chunks: Sequence[Sequence[int]]
    ) -> tuple[list, float]:
        """Run every chunk; return (payloads in chunk order, busy seconds).

        Busy seconds sum the workers' own per-chunk wall-clock spans —
        the numerator of the parent's per-seed cost estimate.  A chunk
        exception is re-raised here (like ``Pool.map``) after the
        remaining in-flight results are drained, so the pool stays
        usable for the next call.
        """
        if self._closed:
            raise ConfigurationError("worker pool is closed")
        chunks = list(chunks)
        for task_id, chunk in enumerate(chunks):
            self._tasks.put((task_id, chunk))
        payloads: list = [None] * len(chunks)
        busy = 0.0
        received = 0
        failure: Optional[BaseException] = None
        while received < len(chunks):
            task_id, ok, payload, elapsed = self._next_result()
            received += 1
            busy += elapsed
            if ok:
                payloads[task_id] = payload
            elif failure is None:
                # Keep draining so queued tasks' results don't pollute
                # the next map_chunks call, then raise the first error.
                failure = payload
        if failure is not None:
            raise failure
        return payloads, busy

    def _next_result(self):
        """Blocking result read that notices dead workers instead of hanging."""
        reader = getattr(self._results, "_reader", None)
        while reader is not None and not reader.poll(_POLL_SECONDS):
            if not self.workers_alive():
                self.close()
                raise ConfigurationError(
                    "a pool worker died with results outstanding"
                )
        return self._results.get()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self, join_timeout: float = 5.0) -> None:
        """Shut the workers down (idempotent).

        Sends one sentinel per worker, joins with a timeout, and
        terminates stragglers (e.g. a worker wedged mid-chunk).
        """
        if self._closed:
            return
        self._closed = True
        _LIVE_POOLS.discard(self)
        try:
            for _ in self._workers:
                self._tasks.put(None)
        except Exception:  # queue already broken: fall through to terminate
            pass
        for worker in self._workers:
            worker.join(timeout=join_timeout)
        for worker in self._workers:
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=1.0)
        for queue in (self._tasks, self._results):
            try:
                queue.close()
            except Exception:
                pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
