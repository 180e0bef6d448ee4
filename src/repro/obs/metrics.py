"""Low-overhead metrics: counters, gauges, and fixed-bucket histograms.

The paper's claims are quantitative — expected phases to decision,
witness/echo message complexity (Section 4), convergence under the
fair-views assumption — so the simulation stack needs cheap per-step
measurement.  A :class:`MetricsRegistry` is the mutable collection point
the kernel, message system, and protocols feed while a run executes; a
:class:`MetricsSnapshot` is the immutable value object a finished run
carries in ``RunResult.metrics``.

Design rules:

* **Zero cost when disabled.**  Simulator-side instrumentation sites
  hold a reference to the registry (or ``None``) and guard every record
  with a single ``is not None`` check; no metric names are formatted
  and no objects are allocated on the disabled path.  (Cluster layers
  always have a registry — the mesh's, or a private one.)
* **Determinism.**  A snapshot holds only counters, gauges, and
  histograms of values derived from the simulated execution, never
  wall-clock time, so two runs of the same (processes, scheduler, seed)
  triple produce snapshots that compare equal with ``==`` — across
  processes and machines too.  Wall-clock timing of the layers is the
  benchmark suite's job (``benchmarks/suite``), not the registry's.
* **Mergeability.**  ``MetricsSnapshot.merge`` is associative, so
  ``run_many`` workers can return per-seed snapshots that the parent
  folds together in seed order with a result identical to a serial run.

Histograms use *fixed* bucket boundaries (shared by every run of a
configuration), which is what makes cross-run and cross-worker merging
a plain element-wise sum.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.errors import ConfigurationError

#: Default histogram bucket boundaries: roughly logarithmic, wide enough
#: for phase counts (units) through step/message counts (tens of
#: thousands).  A bucket ``i`` counts observations ``v`` with
#: ``bounds[i-1] < v <= bounds[i]``; one overflow bucket catches the rest.
DEFAULT_BOUNDS: tuple[float, ...] = (
    0, 1, 2, 5, 10, 20, 50, 100, 200, 500,
    1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
)

#: Percentage-scale bounds for ratio histograms (e.g. the fuzz
#: shrinker's size-reduction percentages in [0, 100]).
PERCENT_BOUNDS: tuple[float, ...] = (
    0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100,
)


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable state of one histogram: fixed bounds plus bucket counts."""

    bounds: tuple[float, ...]
    counts: tuple[int, ...]
    count: int
    total: float
    minimum: Optional[float]
    maximum: Optional[float]

    @property
    def mean(self) -> float:
        """Mean of the observed values (0.0 for an empty histogram)."""
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        """Element-wise sum; both sides must share bucket boundaries."""
        if self.bounds != other.bounds:
            raise ConfigurationError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds} vs {other.bounds}"
            )
        minimum = (
            other.minimum if self.minimum is None
            else self.minimum if other.minimum is None
            else min(self.minimum, other.minimum)
        )
        maximum = (
            other.maximum if self.maximum is None
            else self.maximum if other.maximum is None
            else max(self.maximum, other.maximum)
        )
        return HistogramSnapshot(
            bounds=self.bounds,
            counts=tuple(a + b for a, b in zip(self.counts, other.counts)),
            count=self.count + other.count,
            total=self.total + other.total,
            minimum=minimum,
            maximum=maximum,
        )

    def nonzero_buckets(self) -> list[tuple[str, int]]:
        """(label, count) per non-empty bucket, in boundary order."""
        rows: list[tuple[str, int]] = []
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if index < len(self.bounds):
                lower = self.bounds[index - 1] if index else None
                label = (
                    f"<= {self.bounds[index]:g}" if lower is None
                    else f"({lower:g}, {self.bounds[index]:g}]"
                )
            else:
                label = f"> {self.bounds[-1]:g}"
            rows.append((label, bucket_count))
        return rows

    def to_dict(self) -> dict:
        """JSON-ready form."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
        }


class Histogram:
    """Mutable fixed-bucket histogram (the registry's working form)."""

    __slots__ = ("bounds", "counts", "count", "total", "minimum", "maximum")

    def __init__(self, bounds: Iterable[float] = DEFAULT_BOUNDS) -> None:
        self.bounds: tuple[float, ...] = tuple(bounds)
        if not self.bounds:
            raise ConfigurationError("a histogram needs at least one boundary")
        if any(
            earlier >= later
            for earlier, later in zip(self.bounds, self.bounds[1:])
        ):
            raise ConfigurationError(
                f"histogram bounds must be strictly increasing: {self.bounds}"
            )
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value: float, times: int = 1) -> None:
        """Record ``value`` as ``times`` identical observations."""
        self.counts[bisect_left(self.bounds, value)] += times
        self.count += times
        self.total += value * times
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def snapshot(self) -> HistogramSnapshot:
        """Freeze the current state into an immutable snapshot."""
        return HistogramSnapshot(
            bounds=self.bounds,
            counts=tuple(self.counts),
            count=self.count,
            total=self.total,
            minimum=self.minimum,
            maximum=self.maximum,
        )


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable metrics of one run (or a merge of several).

    ``counters``/``gauges``/``histograms`` are deterministic functions of
    the simulated execution, so equality is the determinism check: the
    snapshots of one seed compare equal across runs, processes and
    machines.
    """

    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, HistogramSnapshot] = field(default_factory=dict)

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Associative fold: sum counters/histograms, max gauges.

        Gauges record per-run peaks (e.g. maximum pending messages), so
        the cross-run aggregate takes the maximum — the only reduction
        that stays order-independent without retaining per-run values.
        """
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0) + value
        gauges = dict(self.gauges)
        for name, value in other.gauges.items():
            gauges[name] = max(gauges[name], value) if name in gauges else value
        histograms = dict(self.histograms)
        for name, hist in other.histograms.items():
            histograms[name] = (
                histograms[name].merge(hist) if name in histograms else hist
            )
        return MetricsSnapshot(
            counters=counters, gauges=gauges, histograms=histograms
        )

    def to_dict(self) -> dict:
        """JSON-ready form (keys sorted for byte-stable serialisation)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: hist.to_dict()
                for name, hist in sorted(self.histograms.items())
            },
        }


def merge_snapshots(
    snapshots: Iterable[Optional[MetricsSnapshot]],
) -> Optional[MetricsSnapshot]:
    """Fold snapshots left-to-right (``None`` entries skipped).

    Returns ``None`` when no snapshot was present at all, so callers can
    distinguish "metrics disabled" from "metrics enabled but empty".
    """
    merged: Optional[MetricsSnapshot] = None
    for snapshot in snapshots:
        if snapshot is None:
            continue
        merged = snapshot if merged is None else merged.merge(snapshot)
    return merged


class MetricsRegistry:
    """Mutable collection point for one run's metrics.

    One write method per kind, keyed by metric name: :meth:`inc`,
    :meth:`observe`, :meth:`gauge_set` and :meth:`gauge_max`.  A name
    exists from its first write, so a snapshot holds exactly the metrics
    a run touched.  Sites that fire every step buffer their raw values
    and write once per distinct value (``amount`` / ``times``), as the
    kernel does (DESIGN §7).
    """

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (creating it at 0)."""
        counters = self._counters
        counters[name] = counters.get(name, 0) + amount

    def gauge_set(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self._gauges[name] = value

    def gauge_max(self, name: str, value: float) -> None:
        """Raise gauge ``name`` to ``value`` if larger (peak tracking)."""
        gauges = self._gauges
        if name not in gauges or value > gauges[name]:
            gauges[name] = value

    def observe(
        self,
        name: str,
        value: float,
        bounds: Iterable[float] = DEFAULT_BOUNDS,
        times: int = 1,
    ) -> None:
        """Record ``value`` in histogram ``name``, ``times`` times over.

        The histogram is created with ``bounds`` on first observation;
        later calls reuse the existing boundaries (fixed buckets are what
        keep merges element-wise).
        """
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(bounds)
        histogram.observe(value, times)

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    def snapshot(self) -> MetricsSnapshot:
        """Freeze the current state into an immutable snapshot."""
        return MetricsSnapshot(
            counters=dict(self._counters),
            gauges=dict(self._gauges),
            histograms={
                name: hist.snapshot()
                for name, hist in self._histograms.items()
            },
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
        )
