"""Tests for the sharded multi-cache topology.

The load-bearing properties:

* **Partitioning is deterministic** — locked against hard-coded CRC-32
  values so a refactor cannot silently re-partition seeded runs.
* **The coordinator is routing, nothing more** — any operation sequence
  against a coordinator with N shards produces exactly the per-key results,
  evictions and statistics of N hand-partitioned ``ApproximateCache``
  instances, and (with an unbounded capacity) of one single cache.
* **Cross-shard aggregate bounds equal single-cache bounds** — exercised
  with integer-valued endpoints, for which interval SUM/AVG merging is
  exact regardless of float association.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caching.cache import ApproximateCache, CacheStatistics
from repro.intervals.interval import UNBOUNDED, Interval
from repro.queries.aggregates import AggregateKind, aggregate_bound
from repro.queries.refresh_selection import execute_bounded_query
from repro.sharding import (
    ShardedCacheCoordinator,
    execute_sharded_query,
    merge_aggregate_bounds,
    merge_cache_statistics,
    partition_keys,
    shard_index,
    split_capacity,
    stable_key_hash,
)
from repro.simulation.config import SimulationConfig
from repro.simulation.simulator import CacheSimulation
from repro.experiments.workloads import adaptive_policy, random_walk_streams

KEY_POOL = [f"host-{index:02d}" for index in range(12)]

keys_strategy = st.sampled_from(KEY_POOL)
int_endpoints = st.integers(min_value=-1000, max_value=1000)


@st.composite
def integer_intervals(draw):
    low = draw(int_endpoints)
    width = draw(st.integers(min_value=0, max_value=500))
    return Interval(float(low), float(low + width))


@st.composite
def op_sequences(draw):
    """A time-ordered sequence of (op, key, interval, width) tuples."""
    ops = []
    count = draw(st.integers(min_value=1, max_value=40))
    for _ in range(count):
        op = draw(st.sampled_from(["put", "get", "invalidate"]))
        key = draw(keys_strategy)
        interval = draw(integer_intervals()) if op == "put" else None
        width = draw(st.integers(min_value=0, max_value=500)) if op == "put" else None
        ops.append((op, key, interval, width))
    return ops


class TestStableHash:
    def test_values_are_locked(self):
        # These constants pin cross-process / cross-version determinism: a
        # partitioning change would silently re-shard every seeded run.
        assert stable_key_hash("host-00") == 1337073227
        assert stable_key_hash("host-01") == 951398109
        assert stable_key_hash("walk-3") == 2839516580

    def test_string_and_int_keys_do_not_collide(self):
        assert stable_key_hash("1") != stable_key_hash(1)

    def test_numerically_equal_keys_share_a_hash(self):
        # 1, 1.0 and True are the same dict key in a single cache, so the
        # coordinator must route them to the same shard.
        assert stable_key_hash(1) == stable_key_hash(1.0) == stable_key_hash(True)
        assert stable_key_hash(2.5) != stable_key_hash(2)

    def test_numeric_equality_canonicalised_inside_tuples(self):
        assert stable_key_hash((1, "a")) == stable_key_hash((1.0, "a"))
        assert stable_key_hash((1, "a")) != stable_key_hash((2, "a"))
        assert stable_key_hash(((True, 3.0), "b")) == stable_key_hash(((1, 3), "b"))

    def test_numerically_equal_keys_hit_the_same_entry(self):
        coordinator = ShardedCacheCoordinator(4)
        coordinator.put(1, Interval(0.0, 1.0), 1.0, 0.0)
        for alias in (1.0, True):
            entry = coordinator.get(alias, record_stats=False)
            assert entry is not None and entry.interval == Interval(0.0, 1.0)

    def test_shard_index_in_range(self):
        for key in KEY_POOL:
            assert 0 <= shard_index(key, 5) < 5

    def test_shard_index_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            shard_index("a", 0)


class TestSplitCapacity:
    def test_unbounded_stays_unbounded(self):
        assert split_capacity(None, 3) == (None, None, None)

    def test_budgets_sum_to_total_and_spread_at_most_one(self):
        for capacity in range(4, 40):
            for shard_count in range(1, capacity + 1):
                budgets = split_capacity(capacity, shard_count)
                assert sum(budgets) == capacity
                assert max(budgets) - min(budgets) <= 1

    def test_capacity_below_shard_count_rejected(self):
        with pytest.raises(ValueError):
            split_capacity(3, 4)

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            split_capacity(8, 0)


class TestPartitionKeys:
    def test_groups_cover_all_keys_consistently(self):
        groups = partition_keys(KEY_POOL, 4)
        seen = [key for group in groups.values() for key in group]
        assert sorted(seen) == sorted(KEY_POOL)
        for index, group in groups.items():
            for key in group:
                assert shard_index(key, 4) == index


def _apply_ops(cache_for_key, ops):
    """Run an op sequence, returning the observable (get/evict) outcomes."""
    outcomes = []
    time = 0.0
    for op, key, interval, width in ops:
        time += 1.0
        cache = cache_for_key(key)
        if op == "put":
            evicted = cache.put(key, interval, float(width), time)
            outcomes.append(("evicted", sorted(map(str, evicted))))
        elif op == "get":
            entry = cache.get(key, time)
            outcomes.append(
                ("hit", entry.interval, entry.original_width)
                if entry is not None
                else ("miss",)
            )
        else:
            outcomes.append(("invalidated", cache.invalidate(key)))
    return outcomes


class TestCoordinatorMatchesPartitionedCaches:
    @settings(max_examples=60, deadline=None)
    @given(ops=op_sequences(), shard_count=st.integers(min_value=1, max_value=5))
    def test_bounded_ops_match_hand_partitioned_caches(self, ops, shard_count):
        capacity = max(shard_count, 6)
        coordinator = ShardedCacheCoordinator(shard_count, capacity=capacity)
        budgets = split_capacity(capacity, shard_count)
        reference = [ApproximateCache(capacity=budget) for budget in budgets]

        coordinator_outcomes = _apply_ops(coordinator.shard_for, ops)
        reference_outcomes = _apply_ops(
            lambda key: reference[shard_index(key, shard_count)], ops
        )
        assert coordinator_outcomes == reference_outcomes

        for shard, ref in zip(coordinator.shards, reference):
            assert shard.keys() == ref.keys()
            assert shard.statistics == ref.statistics
            assert len(shard) <= (shard.capacity or len(shard))

    @settings(max_examples=60, deadline=None)
    @given(ops=op_sequences(), shard_count=st.integers(min_value=1, max_value=5))
    def test_unbounded_ops_match_one_single_cache(self, ops, shard_count):
        coordinator = ShardedCacheCoordinator(shard_count)
        single = ApproximateCache()
        coordinator_outcomes = _apply_ops(coordinator.shard_for, ops)
        single_outcomes = _apply_ops(lambda key: single, ops)
        assert coordinator_outcomes == single_outcomes
        assert sorted(map(str, coordinator.keys())) == sorted(map(str, single.keys()))
        assert coordinator.statistics == single.statistics
        assert coordinator.widths() == single.widths()


def test_shard_hit_rates_accessor_is_polymorphic():
    assert ApproximateCache().shard_hit_rates() == ()
    coordinator = ShardedCacheCoordinator(shard_count=3)
    assert coordinator.shard_hit_rates() == (0.0, 0.0, 0.0)


def test_merge_cache_statistics_rollup():
    first = CacheStatistics(insertions=3, evictions=1, hits=10, misses=2)
    second = CacheStatistics(insertions=2, evictions=0, hits=5, misses=3)
    merged = merge_cache_statistics([first, second])
    assert merged.insertions == 5
    assert merged.evictions == 1
    assert merged.hits == 15
    assert merged.misses == 5
    assert math.isclose(merged.hit_rate, 15 / 20)
    # The coordinator's statistics property goes through the same rollup.
    coordinator = ShardedCacheCoordinator(shard_count=2)
    assert coordinator.statistics == merge_cache_statistics(
        coordinator.shard_statistics
    )


class TestCrossShardAggregates:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(integer_intervals(), min_size=1, max_size=12),
        shard_count=st.integers(min_value=1, max_value=5),
        kind=st.sampled_from(list(AggregateKind)),
    )
    def test_merged_bounds_equal_single_cache_bounds(self, data, shard_count, kind):
        coordinator = ShardedCacheCoordinator(shard_count)
        keys = KEY_POOL[: len(data)]
        for position, (key, interval) in enumerate(zip(keys, data)):
            coordinator.put(key, interval, interval.width, float(position))
        merged = coordinator.aggregate_bound(kind, keys)
        flat = aggregate_bound(kind, data)
        # Integer endpoints make SUM/AVG merging exact (associativity holds
        # below 2**53), so equality is strict for every kind.
        assert merged == flat

    def test_missing_keys_contribute_unbounded(self):
        coordinator = ShardedCacheCoordinator(3)
        coordinator.put("host-00", Interval(1.0, 2.0), 1.0, 0.0)
        bound = coordinator.aggregate_bound(AggregateKind.SUM, ["host-00", "host-01"])
        assert bound == UNBOUNDED

    def test_avg_merge_requires_counts(self):
        with pytest.raises(ValueError):
            merge_aggregate_bounds(AggregateKind.AVG, [Interval(0.0, 1.0)])

    def test_merge_rejects_empty_partials(self):
        with pytest.raises(ValueError):
            merge_aggregate_bounds(AggregateKind.SUM, [])

    def test_aggregate_bound_does_not_record_stats_by_default(self):
        coordinator = ShardedCacheCoordinator(3)
        coordinator.put("host-00", Interval(1.0, 2.0), 1.0, 0.0)
        coordinator.aggregate_bound(AggregateKind.SUM, KEY_POOL)
        stats = coordinator.statistics
        assert stats.hits == 0 and stats.misses == 0

    def test_bookkeeping_inspection_leaves_hit_rate_untouched(self):
        # The record_stats=False contract of the single cache must survive
        # the routing layer: post-run inspection through the coordinator may
        # not skew per-shard or merged hit rates.
        coordinator = ShardedCacheCoordinator(3)
        coordinator.put("host-00", Interval(1.0, 2.0), 1.0, 0.0)
        coordinator.get("host-00", record_stats=True)
        coordinator.get("host-09", record_stats=True)
        before = coordinator.statistics
        coordinator.get("host-00", record_stats=False)
        coordinator.approximation("host-09", record_stats=False)
        coordinator.entries()
        coordinator.widths()
        coordinator.total_width()
        after = coordinator.statistics
        assert (before.hits, before.misses) == (after.hits, after.misses) == (1, 1)


class TestExecuteShardedQuery:
    def _populated(self, shard_count=4):
        coordinator = ShardedCacheCoordinator(shard_count)
        rng = random.Random(7)
        values = {}
        for position, key in enumerate(KEY_POOL):
            value = float(rng.randrange(0, 100))
            values[key] = value
            interval = Interval(value - 5.0, value + 5.0)
            coordinator.put(key, interval, 10.0, float(position))
        return coordinator, values

    @pytest.mark.parametrize(
        "kind", [AggregateKind.SUM, AggregateKind.MAX, AggregateKind.MIN]
    )
    def test_matches_flat_bounded_query(self, kind):
        coordinator, values = self._populated()
        flat = {
            key: coordinator.approximation(key, record_stats=False)
            for key in KEY_POOL
        }
        expected = execute_bounded_query(kind, flat, 12.0, values.__getitem__)
        result = execute_sharded_query(
            coordinator, kind, KEY_POOL, 12.0, values.__getitem__, time=50.0
        )
        assert result.refreshed_keys == expected.refreshed_keys
        assert result.result_bound == expected.result_bound
        assert result.satisfied

    def test_refreshes_install_exact_on_owning_shard(self):
        coordinator, values = self._populated()
        result = execute_sharded_query(
            coordinator,
            AggregateKind.SUM,
            KEY_POOL,
            0.0,
            values.__getitem__,
            time=50.0,
        )
        assert sorted(result.refreshed_keys) == sorted(KEY_POOL)
        for key in KEY_POOL:
            entry = coordinator.shard_for(key).get(key, record_stats=False)
            assert entry.interval == Interval.exact(values[key])

    def test_empty_key_set_rejected(self):
        coordinator, values = self._populated()
        with pytest.raises(ValueError):
            execute_sharded_query(
                coordinator, AggregateKind.SUM, [], 1.0, values.__getitem__
            )


class TestShardedSimulation:
    def _result(self, shards, capacity=None, seed=17):
        config = SimulationConfig(
            duration=240.0,
            warmup=24.0,
            query_period=2.0,
            query_size=3,
            constraint_average=25.0,
            constraint_variation=1.0,
            cache_capacity=capacity,
            shards=shards,
            seed=seed,
        )
        streams = random_walk_streams(8, seed)
        return CacheSimulation(config, streams, adaptive_policy(seed=seed)).run()

    def test_unbounded_sharded_run_matches_single_cache_run(self):
        single = self._result(shards=1)
        sharded = self._result(shards=4)
        assert sharded.cost_rate == single.cost_rate
        assert sharded.total_cost == single.total_cost
        assert sharded.value_refresh_count == single.value_refresh_count
        assert sharded.query_refresh_count == single.query_refresh_count
        assert sharded.cache_hit_rate == single.cache_hit_rate
        assert sharded.events_processed == single.events_processed

    def test_sharded_result_reports_per_shard_rollups(self):
        single = self._result(shards=1)
        sharded = self._result(shards=4)
        assert single.shard_hit_rates == ()
        assert single.hit_rate_skew == 0.0
        assert len(sharded.shard_hit_rates) == 4
        assert sharded.hit_rate_skew >= 0.0

    def test_capacity_limited_sharded_run_respects_budgets(self):
        config = SimulationConfig(
            duration=120.0,
            query_period=2.0,
            query_size=3,
            constraint_average=25.0,
            cache_capacity=6,
            shards=3,
            seed=3,
        )
        streams = random_walk_streams(10, 3)
        simulation = CacheSimulation(config, streams, adaptive_policy(seed=3))
        simulation.run()
        coordinator = simulation.cache
        assert len(coordinator) <= 6
        for shard in coordinator.shards:
            assert len(shard) <= shard.capacity

    def test_config_rejects_bad_shard_settings(self):
        with pytest.raises(ValueError):
            SimulationConfig(duration=10.0, shards=0)
        with pytest.raises(ValueError):
            SimulationConfig(duration=10.0, cache_capacity=2, shards=4)
