"""Low-overhead metrics: counters, gauges, and fixed-bucket histograms.

The paper's claims are quantitative — expected phases to decision,
witness/echo message complexity (Section 4), convergence under the
fair-views assumption — so the simulation stack needs cheap per-step
measurement.  A :class:`MetricsRegistry` is the mutable collection point
the kernel, message system, and protocols feed while a run executes; a
:class:`MetricsSnapshot` is the immutable value object a finished run
carries in ``RunResult.metrics``.

Design rules:

* **Zero cost when disabled.**  Instrumentation sites hold a reference
  to the registry (or ``None``) and guard every record with a single
  ``is not None`` check; no metric names are formatted and no objects
  are allocated on the disabled path.
* **Determinism.**  Counters, gauges, and histograms record only values
  derived from the simulated execution, never wall-clock time, so two
  runs of the same (processes, scheduler, seed) triple produce identical
  snapshots.  Wall-clock profiling lives in a separate ``timers``
  section that :meth:`MetricsSnapshot.stable` strips.
* **Mergeability.**  ``MetricsSnapshot.merge`` is associative, so
  ``run_many`` workers can return per-seed snapshots that the parent
  folds together in seed order with a result identical to a serial run.

Histograms use *fixed* bucket boundaries (shared by every run of a
configuration), which is what makes cross-run and cross-worker merging
a plain element-wise sum.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

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


@dataclass(frozen=True)
class TimerSnapshot:
    """Accumulated wall-clock spans of one named timer."""

    calls: int
    seconds: float

    def merge(self, other: "TimerSnapshot") -> "TimerSnapshot":
        """Sum call counts and accumulated seconds."""
        return TimerSnapshot(
            calls=self.calls + other.calls,
            seconds=self.seconds + other.seconds,
        )

    def to_dict(self) -> dict:
        """JSON-ready form."""
        return {"calls": self.calls, "seconds": self.seconds}


class Histogram:
    """Mutable fixed-bucket histogram (the registry's working form).

    Two recording paths: :meth:`observe` buckets immediately;
    ``pending.append`` (a plain C-level list append, the cheapest thing
    Python can do per event) defers bucketing until the histogram is
    read.  The kernel's per-step distributions use the deferred path —
    values are bucketed in recorded order at snapshot time, so the
    resulting snapshot is identical as long as deferred values are
    exact (integers, as every kernel site's are).
    """

    __slots__ = (
        "bounds", "counts", "count", "total", "minimum", "maximum", "pending",
    )

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
        #: Deferred observations, bucketed on flush (hot-path append target).
        self.pending: list = []

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def flush(self) -> None:
        """Bucket every deferred ``pending`` observation.

        Large batches collapse through a :class:`collections.Counter`
        first — the kernel's per-step samples draw from a few dozen
        distinct small integers, so one bisect per *distinct* value
        replaces one per observation.  Bucketing is order-independent
        and ``total`` uses ``sum(pending)`` either way, so the snapshot
        is identical to the element-at-a-time path.
        """
        pending = self.pending
        if not pending:
            return
        self.pending = []
        counts = self.counts
        bounds = self.bounds
        if len(pending) > 64:
            for value, multiplicity in Counter(pending).items():
                counts[bisect_left(bounds, value)] += multiplicity
        else:
            for value in pending:
                counts[bisect_left(bounds, value)] += 1
        self.count += len(pending)
        self.total += sum(pending)
        low, high = min(pending), max(pending)
        if self.minimum is None or low < self.minimum:
            self.minimum = low
        if self.maximum is None or high > self.maximum:
            self.maximum = high

    def snapshot(self) -> HistogramSnapshot:
        """Freeze the current state into an immutable snapshot."""
        self.flush()
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
    the simulated execution; ``timers`` hold wall-clock profiling spans
    and therefore vary between otherwise identical runs.  Equality
    compares everything; use :meth:`stable` before comparing snapshots
    across processes or machines.
    """

    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, HistogramSnapshot] = field(default_factory=dict)
    timers: dict[str, TimerSnapshot] = field(default_factory=dict)

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Associative fold: sum counters/histograms/timers, max gauges.

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
        timers = dict(self.timers)
        for name, timer in other.timers.items():
            timers[name] = timers[name].merge(timer) if name in timers else timer
        return MetricsSnapshot(
            counters=counters,
            gauges=gauges,
            histograms=histograms,
            timers=timers,
        )

    def stable(self) -> "MetricsSnapshot":
        """This snapshot without wall-clock timers.

        Counters, gauges, and histograms are deterministic per seed, so
        the stable view is byte-identical between serial and parallel
        executions of the same seed list.
        """
        return MetricsSnapshot(
            counters=dict(self.counters),
            gauges=dict(self.gauges),
            histograms=dict(self.histograms),
            timers={},
        )

    def counters_with_prefix(self, prefix: str) -> dict[str, int]:
        """Counters whose name starts with ``prefix`` (sorted by name)."""
        return {
            name: value
            for name, value in sorted(self.counters.items())
            if name.startswith(prefix)
        }

    def to_dict(self) -> dict:
        """JSON-ready form (keys sorted for byte-stable serialisation)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: hist.to_dict()
                for name, hist in sorted(self.histograms.items())
            },
            "timers": {
                name: timer.to_dict()
                for name, timer in sorted(self.timers.items())
            },
        }

    @classmethod
    def empty(cls) -> "MetricsSnapshot":
        return cls()


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

    Two write paths coexist:

    * **Named (cold) path** — :meth:`inc` / :meth:`observe` /
      :meth:`gauge_max` / :meth:`time_add`: dictionary upserts keyed by
      the metric name, fine for sites that fire rarely.
    * **Slot (hot) path** — a site registers a counter once with
      :meth:`counter_slot` and receives an integer index into the
      preallocated :attr:`slots` list; per-event updates are then
      ``registry.slots[i] += 1`` with no string hashing or dict lookup.
      :meth:`histogram_handle` and :meth:`timer_cell` are the analogous
      resolve-once handles for histograms and timers.  Slots are created
      lazily at a site's *first* event, so a run's snapshot contains
      exactly the names the named path would have created — snapshots
      are byte-identical between the two implementations, and the
      name→value dict is only materialised at :meth:`snapshot` time.
    """

    __slots__ = (
        "_counters",
        "_gauges",
        "_histograms",
        "_timers",
        "slots",
        "_slot_index",
    )

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}
        self._timers: dict[str, list] = {}  # name -> [calls, seconds]
        #: Array-backed counter values; index via :meth:`counter_slot`.
        self.slots: list[int] = []
        self._slot_index: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (creating it at 0)."""
        counters = self._counters
        counters[name] = counters.get(name, 0) + amount

    def counter_slot(self, name: str) -> int:
        """Register counter ``name`` as an array slot; return its index.

        Idempotent: the same name always maps to the same index for the
        life of the registry.  Hot sites call this once (at their first
        event) and afterwards update ``registry.slots[index]`` directly.
        A name should go through either the slot path or :meth:`inc`,
        not both; if both are used anyway, :meth:`snapshot` sums them.
        """
        index = self._slot_index.get(name)
        if index is None:
            index = self._slot_index[name] = len(self.slots)
            self.slots.append(0)
        return index

    def histogram_handle(
        self, name: str, bounds: Iterable[float] = DEFAULT_BOUNDS
    ) -> Histogram:
        """The mutable histogram for ``name`` (created on first call).

        Hot sites keep the returned object and call ``handle.observe``
        (or batch values through ``handle.pending.append``) without
        re-hashing the name per observation.
        """
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(bounds)
        return histogram

    def timer_cell(self, name: str) -> list:
        """The mutable ``[calls, seconds]`` cell for timer ``name``.

        Hot sites keep the cell and update it in place
        (``cell[0] += 1; cell[1] += dt``) instead of paying
        :meth:`time_add`'s name lookup per span.
        """
        cell = self._timers.get(name)
        if cell is None:
            cell = self._timers[name] = [0, 0.0]
        return cell

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
    ) -> None:
        """Record ``value`` in histogram ``name``.

        The histogram is created with ``bounds`` on first observation;
        later calls reuse the existing boundaries (fixed buckets are what
        keep merges element-wise).
        """
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(bounds)
        histogram.observe(value)

    def time_add(self, name: str, seconds: float) -> None:
        """Accumulate one wall-clock span into timer ``name``."""
        cell = self._timers.get(name)
        if cell is None:
            self._timers[name] = [1, seconds]
        else:
            cell[0] += 1
            cell[1] += seconds

    def timer(self, name: str):
        """Context manager recording a span into timer ``name``."""
        from repro.obs.timing import Timer

        return Timer(self, name)

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented).

        Sums the named and slot-backed paths, so readers need not know
        which write path an instrumentation site uses.
        """
        value = self._counters.get(name, 0)
        index = self._slot_index.get(name)
        if index is not None:
            value += self.slots[index]
        return value

    def snapshot(self) -> MetricsSnapshot:
        """Freeze the current state into an immutable snapshot.

        This is where slot-backed counters materialise into the
        name→value dict — once per run, instead of per increment.
        """
        slots = self.slots
        counters = {
            name: slots[index] for name, index in self._slot_index.items()
        }
        for name, value in self._counters.items():
            if name in counters:
                counters[name] += value
            else:
                counters[name] = value
        return MetricsSnapshot(
            counters=counters,
            gauges=dict(self._gauges),
            histograms={
                name: hist.snapshot()
                for name, hist in self._histograms.items()
            },
            timers={
                name: TimerSnapshot(calls=cell[0], seconds=cell[1])
                for name, cell in self._timers.items()
            },
        )

    def reset(self) -> None:
        """Drop all recorded metrics (the registry stays usable).

        Slot *registrations* are dropped too, so indices (and histogram
        handles / timer cells) resolved before a reset are stale; hot
        sites cache handles per registry identity and no site resets a
        registry mid-run, but direct users of the slot API must
        re-resolve after calling this.
        """
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._timers.clear()
        self.slots.clear()
        self._slot_index.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._histograms)}, "
            f"timers={len(self._timers)})"
        )
