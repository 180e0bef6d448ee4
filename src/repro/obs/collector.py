"""Process-wide observability collection for the experiment harness.

The experiment registry (E1–E11) constructs its own
:class:`~repro.harness.runner.ExperimentRunner` instances internally, so
the CLI cannot hand a metrics flag down the call chain.  This module is
the narrow waist that makes ``repro-consensus run e1 --metrics`` work:
the CLI calls :func:`begin` before invoking an experiment, every
``ExperimentRunner`` consults :func:`is_active` /
:func:`trace_out_dir` when configuring a run, and ``run_many`` folds the
per-seed snapshots back in with :func:`record`.

Fork-safety: ``begin`` runs in the parent before any worker pool is
created, so forked workers inherit the active flag (enabling metrics on
their runs); only the *parent* calls :func:`record` — once per seed, in
seed order, on the results it re-assembled — so the merged snapshot is
byte-identical regardless of worker count.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import MetricsSnapshot, merge_snapshots

_active: bool = False
_trace_out: Optional[str] = None
_merged: Optional[MetricsSnapshot] = None
_runs: int = 0


def begin(trace_out: Optional[str] = None) -> None:
    """Start collecting: enable metrics on harness runs from now on."""
    global _active, _trace_out, _merged, _runs
    _active = True
    _trace_out = trace_out
    _merged = None
    _runs = 0


def is_active() -> bool:
    """True while a collection window is open."""
    return _active


def trace_out_dir() -> Optional[str]:
    """Directory for per-seed JSONL traces, when requested (else None)."""
    return _trace_out if _active else None


def record(snapshot: Optional[MetricsSnapshot]) -> None:
    """Fold one run's snapshot into the window (``None`` ignored)."""
    global _merged, _runs
    if not _active or snapshot is None:
        return
    _merged = merge_snapshots((_merged, snapshot))
    _runs += 1


def finish() -> tuple[Optional[MetricsSnapshot], int]:
    """Close the window; return (merged snapshot or None, runs recorded)."""
    global _active, _trace_out, _merged, _runs
    snapshot, runs = _merged, _runs
    _active = False
    _trace_out = None
    _merged = None
    _runs = 0
    return snapshot, runs
