"""Unit tests for the metrics layer: histograms, snapshots, registry."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import (
    DEFAULT_BOUNDS,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
    merge_snapshots,
)

pytestmark = pytest.mark.obs


class TestHistogramBucketing:
    def test_boundary_values_land_in_their_bucket(self):
        # Bucket i counts bounds[i-1] < v <= bounds[i]: a value equal to
        # a boundary belongs to that boundary's bucket, one past it to
        # the next.
        hist = Histogram(bounds=(0, 10, 100))
        for value in (0, 10, 11, 100, 101, 5000):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap.counts == (1, 1, 2, 2)  # <=0, (0,10], (10,100], >100
        assert snap.count == 6
        assert snap.minimum == 0
        assert snap.maximum == 5000
        assert snap.total == 0 + 10 + 11 + 100 + 101 + 5000

    def test_default_bounds_cover_phase_and_step_scales(self):
        hist = Histogram()
        assert hist.bounds == DEFAULT_BOUNDS
        assert len(hist.counts) == len(DEFAULT_BOUNDS) + 1

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram(bounds=())
        with pytest.raises(ConfigurationError):
            Histogram(bounds=(1, 1, 2))
        with pytest.raises(ConfigurationError):
            Histogram(bounds=(5, 1))

    def test_nonzero_buckets_labels(self):
        hist = Histogram(bounds=(1, 10))
        hist.observe(1)
        hist.observe(7)
        hist.observe(99)
        labels = dict(hist.snapshot().nonzero_buckets())
        assert labels == {"<= 1": 1, "(1, 10]": 1, "> 10": 1}

    def test_empty_histogram_mean_is_zero(self):
        snap = Histogram().snapshot()
        assert snap.mean == 0.0
        assert snap.minimum is None and snap.maximum is None


class TestMergeSemantics:
    def _snap(self, values, bounds=(0, 10, 100)):
        hist = Histogram(bounds)
        for value in values:
            hist.observe(value)
        return hist.snapshot()

    def test_histogram_merge_is_elementwise_sum(self):
        merged = self._snap([1, 5]).merge(self._snap([50, 500]))
        assert merged.count == 4
        assert merged.counts == tuple(
            a + b
            for a, b in zip(self._snap([1, 5]).counts, self._snap([50, 500]).counts)
        )
        assert merged.minimum == 1 and merged.maximum == 500

    def test_histogram_merge_rejects_different_bounds(self):
        with pytest.raises(ConfigurationError):
            self._snap([1]).merge(self._snap([1], bounds=(0, 5)))

    def test_histogram_merge_associative(self):
        a, b, c = self._snap([1]), self._snap([17, 20]), self._snap([999])
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    def test_snapshot_merge_associative(self):
        def snap(counter, gauge, values):
            return MetricsSnapshot(
                counters={"c": counter, f"only.{counter}": 1},
                gauges={"peak": gauge},
                histograms={"h": self._snap(values)},
            )

        a, b, c = snap(1, 3.0, [1]), snap(10, 7.0, [50]), snap(100, 5.0, [500])
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left == right
        assert left.counters["c"] == 111
        assert left.gauges["peak"] == 7.0  # gauges merge by max

    def test_sampled_shard_folds_are_byte_identical(self):
        """Associativity over registry-sampled shards, byte-for-byte.

        Three shards populated through the real registry API (counters,
        gauges, histogram observations, plus keys
        present in only some shards) must fold to the same serialised
        bytes whether the parent folds left-to-right or the shards are
        pre-merged pairwise — the property the cluster driver relies on
        when workers ship snapshots in arbitrary groupings.
        """
        import json

        def shard(seed):
            registry = MetricsRegistry()
            for index in range(seed * 3):
                registry.inc("steps")
                registry.observe("latency_ms", float(seed * 10 + index))
            registry.gauge_max("peak", float(seed * 7 % 5))
            registry.inc(f"shard.only.{seed}")
            return registry.snapshot()

        a, b, c = shard(1), shard(2), shard(3)
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        pairwise = merge_snapshots([a, b, c])
        blobs = {
            json.dumps(fold.to_dict(), sort_keys=True)
            for fold in (left, right, pairwise)
        }
        assert len(blobs) == 1
        assert left.counters["steps"] == 18

    def test_merge_snapshots_skips_none(self):
        a = MetricsSnapshot(counters={"x": 1})
        b = MetricsSnapshot(counters={"x": 2})
        merged = merge_snapshots([None, a, None, b])
        assert merged is not None and merged.counters["x"] == 3
        assert merge_snapshots([None, None]) is None
        assert merge_snapshots([]) is None


class TestRegistry:
    def test_counter_gauge_histogram_timer_roundtrip(self):
        reg = MetricsRegistry()
        reg.inc("sends")
        reg.inc("sends", 4)
        reg.gauge_max("peak", 3)
        reg.gauge_max("peak", 9)
        reg.gauge_max("peak", 5)
        reg.gauge_set("final", 2)
        reg.observe("latency", 7, bounds=(1, 10))
        snap = reg.snapshot()
        assert snap.counters["sends"] == 5
        assert snap.gauges["peak"] == 9
        assert snap.gauges["final"] == 2
        assert snap.histograms["latency"].count == 1
        # A snapshot holds the three deterministic sections and nothing else.
        assert set(snap.to_dict()) == {"counters", "gauges", "histograms"}

    def test_observe_times_equals_repeated_observe(self):
        once = MetricsRegistry()
        once.observe("h", 7, times=3)
        repeated = MetricsRegistry()
        for _ in range(3):
            repeated.observe("h", 7)
        assert once.snapshot() == repeated.snapshot()
        assert once.snapshot().histograms["h"].count == 3

    def test_to_dict_is_json_ready_and_sorted(self):
        reg = MetricsRegistry()
        reg.inc("z")
        reg.inc("a")
        reg.observe("h", 3, bounds=(1, 10))
        payload = reg.snapshot().to_dict()
        assert list(payload["counters"]) == ["a", "z"]
        assert payload["histograms"]["h"]["count"] == 1
        assert payload["histograms"]["h"]["mean"] == 3.0
