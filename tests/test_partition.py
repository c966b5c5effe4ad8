"""Tests for the gateway's key partitioning and partial-bound merge.

The load-bearing properties:

* **Partitioning is deterministic** — locked against hard-coded CRC-32
  values so a refactor cannot silently re-partition seeded replays.
* **Equal keys route together** — ``1``, ``1.0`` and ``True`` are one dict
  key in a cache, so they must land on one partition.
* **Merged partial bounds equal flat bounds** — per-partition bounds over
  :func:`partition_keys` groups, merged by
  :func:`~repro.serving.execution.merge_aggregate_bounds`, equal the bound
  over all keys at once.  Exercised with integer-valued endpoints, for
  which interval SUM/AVG merging is exact regardless of float association.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.intervals.interval import Interval
from repro.queries.aggregates import AggregateKind, aggregate_bound, sum_bound
from repro.serving.execution import merge_aggregate_bounds
from repro.serving.partition import partition_keys, shard_index, stable_key_hash

KEY_POOL = [f"host-{index:02d}" for index in range(12)]

int_endpoints = st.integers(min_value=-1000, max_value=1000)


@st.composite
def integer_intervals(draw):
    low = draw(int_endpoints)
    width = draw(st.integers(min_value=0, max_value=500))
    return Interval(float(low), float(low + width))


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
        # gateway must route them to the same partition.
        assert stable_key_hash(1) == stable_key_hash(1.0) == stable_key_hash(True)
        assert stable_key_hash(2.5) != stable_key_hash(2)

    def test_numeric_equality_canonicalised_inside_tuples(self):
        assert stable_key_hash((1, "a")) == stable_key_hash((1.0, "a"))
        assert stable_key_hash((1, "a")) != stable_key_hash((2, "a"))
        assert stable_key_hash(((True, 3.0), "b")) == stable_key_hash(((1, 3), "b"))

    def test_numerically_equal_keys_route_to_the_same_partition(self):
        for count in range(1, 9):
            owner = shard_index(1, count)
            assert shard_index(1.0, count) == owner
            assert shard_index(True, count) == owner
            assert shard_index((1, "a"), count) == shard_index((1.0, "a"), count)

    def test_shard_index_in_range(self):
        for key in KEY_POOL:
            assert 0 <= shard_index(key, 5) < 5

    def test_shard_index_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            shard_index("a", 0)


class TestPartitionKeys:
    def test_groups_cover_all_keys_consistently(self):
        groups = partition_keys(KEY_POOL, 4)
        seen = [key for group in groups.values() for key in group]
        assert sorted(seen) == sorted(KEY_POOL)
        for index, group in groups.items():
            for key in group:
                assert shard_index(key, 4) == index


class TestMergeAggregateBounds:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(integer_intervals(), min_size=1, max_size=12),
        partitions=st.integers(min_value=1, max_value=5),
        kind=st.sampled_from(list(AggregateKind)),
    )
    def test_merged_bounds_equal_single_cache_bounds(self, data, partitions, kind):
        intervals = dict(zip(KEY_POOL, data))
        groups = partition_keys(intervals, partitions).values()
        if kind is AggregateKind.AVG:
            # AVG partials are SUM bounds; the merge divides once.
            partials = [
                sum_bound([intervals[key] for key in group]) for group in groups
            ]
        else:
            partials = [
                aggregate_bound(kind, [intervals[key] for key in group])
                for group in groups
            ]
        counts = [len(group) for group in groups]
        merged = merge_aggregate_bounds(kind, partials, counts=counts)
        # Integer endpoints make SUM/AVG merging exact (associativity holds
        # below 2**53), so equality is strict for every kind.
        assert merged == aggregate_bound(kind, data)

    def test_avg_merge_requires_counts(self):
        with pytest.raises(ValueError):
            merge_aggregate_bounds(AggregateKind.AVG, [Interval(0.0, 1.0)])

    def test_avg_merge_requires_parallel_positive_counts(self):
        partials = [Interval(0.0, 1.0), Interval(2.0, 3.0)]
        with pytest.raises(ValueError, match="parallel"):
            merge_aggregate_bounds(AggregateKind.AVG, partials, counts=[1])
        with pytest.raises(ValueError, match="at least one"):
            merge_aggregate_bounds(AggregateKind.AVG, partials, counts=[0, 0])

    def test_merge_rejects_empty_partials(self):
        with pytest.raises(ValueError):
            merge_aggregate_bounds(AggregateKind.SUM, [])

    def test_merge_rejects_unsupported_kind(self):
        with pytest.raises(ValueError, match="unsupported aggregate kind"):
            merge_aggregate_bounds("MEDIAN", [Interval(0.0, 1.0)])
