"""The metrics registry: handles, no-op mode, bucket math, snapshot algebra.

The registry is the PR's load-bearing contract: recording through a handle
must be free when disabled (the replay-determinism posture), bucket
boundaries must follow Prometheus ``le`` semantics exactly, and the
gateway's per-partition aggregation (:func:`merge_snapshots` /
:func:`aggregate_snapshot`) must sum counters and merge histograms
bucket-wise without inventing or losing observations.
"""

import math

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    aggregate_snapshot,
    merge_snapshots,
)


def _enabled():
    return MetricsRegistry(enabled=True)


class TestNoOpMode:
    def test_disabled_recording_changes_nothing(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        gauge = registry.gauge("g")
        histogram = registry.histogram("h", buckets=(1.0, 2.0))
        counter.inc(5)
        gauge.set(3.0)
        gauge.inc()
        histogram.observe(1.5)
        assert counter.value == 0.0
        assert gauge.value == 0.0
        assert histogram.count == 0
        assert histogram.sum == 0.0
        assert all(c == 0 for c in histogram.counts)

    def test_enable_disable_round_trip(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        registry.enable()
        counter.inc()
        registry.disable()
        counter.inc()
        assert counter.value == 1.0


class TestHandles:
    def test_get_or_create_returns_same_handle(self):
        registry = _enabled()
        assert registry.counter("c_total") is registry.counter("c_total")
        assert registry.counter("c_total", role="a") is not registry.counter(
            "c_total", role="b"
        )

    def test_kind_conflict_raises(self):
        registry = _enabled()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered as a counter"):
            registry.gauge("x")

    def test_histogram_bucket_conflict_raises(self):
        registry = _enabled()
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="already registered with buckets"):
            registry.histogram("h", buckets=(1.0, 3.0))

    def test_value_reads_counters_and_gauges(self):
        registry = _enabled()
        registry.counter("c_total", role="a").inc(3)
        registry.gauge("g").set(-2.5)
        assert registry.value("c_total", role="a") == 3.0
        assert registry.value("g") == -2.5
        assert registry.value("never_recorded") == 0.0
        registry.histogram("h")
        with pytest.raises(ValueError, match="is a histogram"):
            registry.value("h")

    def test_reset_zeros_but_keeps_registrations(self):
        registry = _enabled()
        counter = registry.counter("c_total")
        histogram = registry.histogram("h", buckets=(1.0,))
        counter.inc(7)
        histogram.observe(0.5)
        registry.reset()
        assert counter.value == 0.0
        assert histogram.count == 0
        assert registry.counter("c_total") is counter


class TestHistogramBuckets:
    def test_boundary_lands_in_its_bucket(self):
        # Prometheus le semantics: an observation equal to a bound counts
        # in that bound's bucket, not the next one.
        registry = _enabled()
        histogram = registry.histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (1.0, 2.0, 4.0):
            histogram.observe(value)
        assert histogram.counts == [1, 1, 1, 0]

    def test_overflow_lands_in_inf_bucket(self):
        registry = _enabled()
        histogram = registry.histogram("h", buckets=(1.0, 2.0))
        histogram.observe(2.0001)
        histogram.observe(math.inf)
        assert histogram.counts == [0, 0, 2]
        cumulative = histogram.cumulative()
        assert cumulative[-1] == (math.inf, 2)

    def test_cumulative_is_monotone_and_ends_at_count(self):
        registry = _enabled()
        histogram = registry.histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 0.5, 1.5, 3.0, 100.0):
            histogram.observe(value)
        cumulative = histogram.cumulative()
        counts = [c for _, c in cumulative]
        assert counts == sorted(counts)
        assert cumulative == [(1.0, 2), (2.0, 3), (4.0, 4), (math.inf, 5)]
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(105.5)

    def test_invalid_bounds_raise(self):
        registry = _enabled()
        with pytest.raises(ValueError, match="at least one finite"):
            registry.histogram("empty", buckets=())
        with pytest.raises(ValueError, match="strictly increase"):
            registry.histogram("dupes", buckets=(1.0, 1.0))
        with pytest.raises(ValueError, match="implicit"):
            registry.histogram("inf", buckets=(1.0, math.inf))

    def test_default_buckets_are_strictly_increasing(self):
        assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))


class TestSnapshot:
    def test_constant_labels_stamp_every_sample(self):
        registry = _enabled()
        registry.set_constant_labels(role="partition", partition="3")
        registry.counter("c_total", kind="x").inc()
        (metric,) = registry.snapshot()["metrics"]
        (sample,) = metric["samples"]
        assert sample["labels"] == {
            "role": "partition",
            "partition": "3",
            "kind": "x",
        }


class TestMergeSnapshots:
    def _snapshot(self, **label):
        registry = MetricsRegistry(enabled=True, constant_labels=label)
        registry.counter("c_total").inc(2)
        registry.gauge("g").set(5.0)
        histogram = registry.histogram("h", buckets=(1.0, 2.0))
        histogram.observe(0.5)
        histogram.observe(3.0)
        return registry.snapshot()

    def test_identical_labels_sum(self):
        merged = merge_snapshots([self._snapshot(), self._snapshot()])
        by_name = {m["name"]: m for m in merged["metrics"]}
        assert by_name["c_total"]["samples"][0]["value"] == 4.0
        assert by_name["g"]["samples"][0]["value"] == 10.0
        histogram = by_name["h"]["samples"][0]
        assert histogram["count"] == 4
        assert histogram["sum"] == pytest.approx(7.0)
        assert histogram["buckets"] == [[1.0, 2], [2.0, 2], [math.inf, 4]]

    def test_distinct_labels_stay_separate_series(self):
        merged = merge_snapshots(
            [self._snapshot(partition="0"), self._snapshot(partition="1")]
        )
        by_name = {m["name"]: m for m in merged["metrics"]}
        assert len(by_name["c_total"]["samples"]) == 2

    def test_kind_conflict_raises(self):
        a = MetricsRegistry(enabled=True)
        a.counter("x").inc()
        b = MetricsRegistry(enabled=True)
        b.gauge("x").set(1.0)
        with pytest.raises(ValueError, match="counter in one snapshot"):
            merge_snapshots([a.snapshot(), b.snapshot()])

    def test_bucket_mismatch_raises(self):
        a = MetricsRegistry(enabled=True)
        a.histogram("h", buckets=(1.0,)).observe(0.5)
        b = MetricsRegistry(enabled=True)
        b.histogram("h", buckets=(2.0,)).observe(0.5)
        with pytest.raises(ValueError, match="different bucket bounds"):
            merge_snapshots([a.snapshot(), b.snapshot()])

    def test_merge_does_not_mutate_inputs(self):
        first = self._snapshot()
        before = first["metrics"][0]["samples"][0]["value"]
        merge_snapshots([first, self._snapshot()])
        assert first["metrics"][0]["samples"][0]["value"] == before

    def test_aggregate_drops_label_dimension(self):
        merged = merge_snapshots(
            [self._snapshot(partition="0"), self._snapshot(partition="1")]
        )
        totals = aggregate_snapshot(merged, ("partition",))
        by_name = {m["name"]: m for m in totals["metrics"]}
        (counter_sample,) = by_name["c_total"]["samples"]
        assert counter_sample["labels"] == {}
        assert counter_sample["value"] == 4.0
        (histogram_sample,) = by_name["h"]["samples"]
        assert histogram_sample["count"] == 4
