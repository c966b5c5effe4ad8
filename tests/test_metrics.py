"""Unit tests for metric collection and warm-up exclusion.

A run's refresh counts and cost are its network model's counters, which the
cache core restarts at the end of the warm-up (``count_from``).
"""

import pytest

from repro.caching.cache import ApproximateCache
from repro.caching.core import CacheCore
from repro.caching.policies.static import StaticWidthPolicy
from repro.intervals.interval import Interval
from repro.simulation.metrics import MetricsCollector
from repro.simulation.network import NetworkModel


class TestWarmupExclusion:
    def test_refreshes_during_warmup_ignored(self):
        metrics = MetricsCollector(warmup=10.0)
        network = NetworkModel(value_refresh_cost=100.0, query_refresh_cost=1.0)
        core = CacheCore(
            StaticWidthPolicy(1.0), ApproximateCache(), network, count_from=10.0
        )
        core.register("a", 0.0)
        core.refresh("a", 5.0, False)
        assert network.total_cost == 100.0  # the warm-up refresh is charged
        core.refresh("a", 15.0, True)
        result = metrics.finalize(end_time=20.0, network=network)
        assert result.total_cost == 1.0
        assert (result.value_refresh_count, result.query_refresh_count) == (0, 1)

    def test_no_refresh_after_warmup_counts_zero(self):
        network = NetworkModel()
        core = CacheCore(
            StaticWidthPolicy(1.0), ApproximateCache(), network, count_from=10.0
        )
        core.register("a", 0.0)
        core.refresh("a", 5.0, True)
        core.start_count()
        result = MetricsCollector(warmup=10.0).finalize(end_time=20.0, network=network)
        assert (result.total_cost, result.refresh_count) == (0.0, 0)

    def test_queries_during_warmup_ignored(self):
        metrics = MetricsCollector(warmup=10.0)
        metrics.record_query(5.0)
        metrics.record_query(15.0)
        assert metrics.finalize(end_time=20.0, network=NetworkModel()).query_count == 1

    def test_cost_rate_uses_post_warmup_duration(self):
        metrics = MetricsCollector(warmup=10.0)
        network = NetworkModel(query_refresh_cost=20.0)
        network.charge_query_refresh()
        result = metrics.finalize(end_time=20.0, network=network)
        assert result.duration == 10.0
        assert result.cost_rate == pytest.approx(2.0)

    def test_finalize_requires_end_after_warmup(self):
        metrics = MetricsCollector(warmup=10.0)
        with pytest.raises(ValueError):
            metrics.finalize(end_time=10.0, network=NetworkModel())

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError):
            MetricsCollector(warmup=-1.0)


class TestRatesAndResult:
    def test_refresh_rates_split_by_kind(self):
        metrics = MetricsCollector()
        network = NetworkModel(value_refresh_cost=1.0, query_refresh_cost=2.0)
        for _ in range(4):
            network.charge_value_refresh()
        network.charge_query_refresh()
        result = metrics.finalize(end_time=10.0, network=network)
        assert result.value_refresh_rate == pytest.approx(0.4)
        assert result.query_refresh_rate == pytest.approx(0.1)
        assert result.refresh_count == 5

    def test_final_widths_and_hit_rate_passed_through(self):
        metrics = MetricsCollector()
        result = metrics.finalize(
            end_time=1.0,
            network=NetworkModel(),
            final_widths={"a": 3.0},
            cache_hit_rate=0.75,
        )
        assert result.final_widths == {"a": 3.0}
        assert result.cache_hit_rate == 0.75

    def test_empty_run_has_zero_cost(self):
        result = MetricsCollector().finalize(end_time=5.0, network=NetworkModel())
        assert result.cost_rate == 0.0
        assert result.total_cost == 0.0


class TestIntervalSampling:
    def test_tracked_key_samples_recorded(self):
        metrics = MetricsCollector(track_keys=["a"])
        metrics.record_interval_sample("a", 1.0, 10.0, Interval(9.0, 11.0))
        metrics.record_interval_sample("a", 2.0, 12.0, None)
        result = metrics.finalize(end_time=5.0, network=NetworkModel())
        samples = result.interval_samples["a"]
        assert len(samples) == 2
        assert samples[0].interval == Interval(9.0, 11.0)
        assert samples[1].interval is None

    def test_untracked_key_samples_dropped(self):
        metrics = MetricsCollector(track_keys=["a"])
        metrics.record_interval_sample("b", 1.0, 10.0, None)
        result = metrics.finalize(end_time=5.0, network=NetworkModel())
        assert "b" not in result.interval_samples

    def test_samples_kept_during_warmup(self):
        # Time-series figures intentionally include the transient.
        metrics = MetricsCollector(warmup=10.0, track_keys=["a"])
        metrics.record_interval_sample("a", 1.0, 10.0, Interval(9.0, 11.0))
        result = metrics.finalize(end_time=20.0, network=NetworkModel())
        assert len(result.interval_samples["a"]) == 1
