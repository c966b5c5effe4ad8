"""A coordinator fronting several hash-partitioned ``ApproximateCache`` shards.

The paper's cache is a single bounded store; the production-scale topology
splits the key space over N shards so that each shard's eviction heap, entry
dict and statistics stay small and independent.  The coordinator exposes the
same ``get`` / ``put`` / ``invalidate`` surface as one ``ApproximateCache``,
so :class:`~repro.simulation.simulator.CacheSimulation` (and any other
caller) can swap between the two without code changes:

* **Partitioning** is deterministic (:func:`~repro.sharding.partition.stable_key_hash`),
  so a key always lives on the same shard in every process and run.
* **Eviction budgets** are per shard: the total capacity is split across the
  shards (:func:`~repro.sharding.partition.split_capacity`) and each shard
  runs its own widest-first eviction heap over its budget, reusing
  :meth:`~repro.caching.eviction.EvictionPolicy.index_priority`.
* **Statistics** are kept per shard and merged on demand, so per-shard hit
  rates (and their skew, the load-balance signal) stay observable.

With an unbounded capacity the coordinator is behaviourally identical to a
single cache — no evictions can occur and every per-key operation is routed
to exactly one shard — which is what lets ``--shards 1`` and sharded runs of
eviction-free experiments produce byte-identical tables.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.caching.cache import ApproximateCache, CacheEntry, CacheStatistics
from repro.caching.eviction import EvictionPolicy
from repro.intervals.interval import Interval
from repro.queries.aggregates import AggregateKind
from repro.sharding.aggregates import merge_aggregate_bounds, shard_aggregate_bound
from repro.sharding.partition import partition_keys, split_capacity, stable_key_hash

#: Builds the eviction policy for one shard (receives the shard index).
#: Returning ``None`` gives the shard the cache's default widest-first rule.
EvictionPolicyFactory = Callable[[int], Optional[EvictionPolicy]]


def merge_cache_statistics(
    statistics: Iterable[CacheStatistics],
) -> CacheStatistics:
    """Fold per-shard counters into one fresh :class:`CacheStatistics`.

    The rollup behind :attr:`ShardedCacheCoordinator.statistics`: all
    counters are additive, so the merged snapshot equals the counters of one
    cache that saw every shard's traffic.
    """
    merged = CacheStatistics()
    for stats in statistics:
        merged.insertions += stats.insertions
        merged.evictions += stats.evictions
        merged.hits += stats.hits
        merged.misses += stats.misses
        merged.rejected_insertions += stats.rejected_insertions
    return merged


class ShardedCacheCoordinator:
    """Hash-partitioned multi-cache with a single-cache compatible API.

    Parameters
    ----------
    shard_count:
        Number of ``ApproximateCache`` shards (at least 1).
    capacity:
        Total capacity across all shards (``None`` = unbounded), split into
        per-shard eviction budgets by :func:`split_capacity`.
    eviction_policy_factory:
        Optional per-shard eviction policy builder.  A factory (rather than
        one shared instance) keeps policies with internal state — random
        eviction's RNG, externally scored eviction — independent per shard;
        stateless policies may safely return the same instance every call.
    """

    def __init__(
        self,
        shard_count: int,
        capacity: Optional[int] = None,
        eviction_policy_factory: Optional[EvictionPolicyFactory] = None,
    ) -> None:
        if shard_count < 1:
            raise ValueError("shard_count must be at least 1")
        budgets = split_capacity(capacity, shard_count)
        self._shard_count = shard_count
        self._capacity = capacity
        self._shards: Tuple[ApproximateCache, ...] = tuple(
            ApproximateCache(
                capacity=budget,
                eviction_policy=(
                    eviction_policy_factory(index)
                    if eviction_policy_factory is not None
                    else None
                ),
            )
            for index, budget in enumerate(budgets)
        )

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        """Number of shards behind the coordinator."""
        return self._shard_count

    @property
    def shards(self) -> Tuple[ApproximateCache, ...]:
        """The shard caches, in shard-index order."""
        return self._shards

    @property
    def capacity(self) -> Optional[int]:
        """Total capacity across shards (``None`` = unbounded)."""
        return self._capacity

    def shard_of(self, key: Hashable) -> int:
        """Return the index of the shard owning ``key``."""
        return stable_key_hash(key) % self._shard_count

    def shard_for(self, key: Hashable) -> ApproximateCache:
        """Return the shard cache owning ``key``."""
        return self._shards[stable_key_hash(key) % self._shard_count]

    # ------------------------------------------------------------------
    # Single-cache compatible surface
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def __contains__(self, key: Hashable) -> bool:
        return key in self.shard_for(key)

    def keys(self) -> List[Hashable]:
        """All cached keys, shard by shard (insertion order within a shard)."""
        result: List[Hashable] = []
        for shard in self._shards:
            result.extend(shard.keys())
        return result

    def entries(self) -> List[CacheEntry]:
        """All cached entries, shard by shard (insertion order within a shard)."""
        result: List[CacheEntry] = []
        for shard in self._shards:
            result.extend(shard.entries())
        return result

    def get(
        self,
        key: Hashable,
        time: Optional[float] = None,
        record_stats: bool = True,
    ) -> Optional[CacheEntry]:
        """Route a lookup to the owning shard (see ``ApproximateCache.get``)."""
        return self._shards[stable_key_hash(key) % self._shard_count].get(
            key, time, record_stats
        )

    def approximation(
        self,
        key: Hashable,
        time: Optional[float] = None,
        record_stats: bool = True,
    ) -> Interval:
        """Cached interval for ``key`` from the owning shard (or ``UNBOUNDED``)."""
        return self.shard_for(key).approximation(key, time, record_stats)

    def put(
        self,
        key: Hashable,
        interval: Interval,
        original_width: float,
        time: float,
    ) -> List[Hashable]:
        """Install on the owning shard; returns that shard's evicted keys.

        Eviction is a purely shard-local decision: an insert can only push
        out entries sharing its shard, which is what bounds the victim
        search to the shard's own heap.
        """
        return self.shard_for(key).put(key, interval, original_width, time)

    def invalidate(self, key: Hashable) -> bool:
        """Drop ``key`` from its owning shard; True if it was present."""
        return self.shard_for(key).invalidate(key)

    def clear(self) -> None:
        """Clear every shard (statistics are preserved, as for a single cache)."""
        for shard in self._shards:
            shard.clear()

    def total_width(self) -> float:
        """Sum of cached widths across shards (``inf`` if any is unbounded)."""
        return sum(shard.total_width() for shard in self._shards)

    def widths(self) -> Dict[Hashable, float]:
        """Mapping of key to cached width, merged across shards."""
        result: Dict[Hashable, float] = {}
        for shard in self._shards:
            result.update(shard.widths())
        return result

    # ------------------------------------------------------------------
    # Statistics rollups
    # ------------------------------------------------------------------
    @property
    def statistics(self) -> CacheStatistics:
        """Counters merged across shards (a fresh snapshot object)."""
        return merge_cache_statistics(shard.statistics for shard in self._shards)

    @property
    def shard_statistics(self) -> Tuple[CacheStatistics, ...]:
        """The live per-shard statistics objects, in shard-index order."""
        return tuple(shard.statistics for shard in self._shards)

    def shard_hit_rates(self) -> Tuple[float, ...]:
        """Per-shard workload hit rates, in shard-index order.

        Their spread is the load-balance signal; see
        :attr:`repro.simulation.metrics.SimulationResult.hit_rate_skew`.
        """
        return tuple(shard.statistics.hit_rate for shard in self._shards)

    # ------------------------------------------------------------------
    # Cross-shard bounded aggregates
    # ------------------------------------------------------------------
    def aggregate_bound(
        self,
        kind: AggregateKind,
        keys: Sequence[Hashable],
        time: Optional[float] = None,
        record_stats: bool = False,
    ) -> Interval:
        """Bound an aggregate over ``keys`` by merging per-shard bounds.

        Each owning shard computes the bound of its own contribution (missing
        keys contribute the unbounded interval, exactly as a single cache
        would answer) and the partial bounds are merged into one global
        interval.  Bookkeeping lookups default to ``record_stats=False`` so
        inspection does not skew the workload hit rate; pass ``True`` when
        the aggregate *is* the workload.
        """
        if not keys:
            raise ValueError("aggregate bounds require at least one key")
        partials: List[Interval] = []
        counts: List[int] = []
        for index, shard_keys in partition_keys(keys, self._shard_count).items():
            shard = self._shards[index]
            partials.append(
                shard_aggregate_bound(kind, shard, shard_keys, time, record_stats)
            )
            counts.append(len(shard_keys))
        return merge_aggregate_bounds(kind, partials, counts)
