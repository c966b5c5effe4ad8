"""Sharded multi-cache topology: hash-partitioned shards behind one API.

See :mod:`repro.sharding.coordinator` for the coordinator,
:mod:`repro.sharding.partition` for the deterministic partitioning helpers
and :mod:`repro.sharding.aggregates` for cross-shard bounded aggregates.
"""

from repro.sharding.aggregates import (
    execute_sharded_query,
    merge_aggregate_bounds,
    shard_aggregate_bound,
)
from repro.sharding.coordinator import (
    ShardedCacheCoordinator,
    merge_cache_statistics,
)
from repro.sharding.partition import (
    partition_keys,
    shard_index,
    split_capacity,
    stable_key_hash,
)

__all__ = [
    "ShardedCacheCoordinator",
    "merge_cache_statistics",
    "execute_sharded_query",
    "merge_aggregate_bounds",
    "partition_keys",
    "shard_aggregate_bound",
    "shard_index",
    "split_capacity",
    "stable_key_hash",
]
