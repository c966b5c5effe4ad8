"""The approximate cache.

The cache holds up to ``capacity`` interval approximations of source values.
When it is full and a new approximation arrives, an eviction policy chooses a
victim (the paper evicts the widest original width).  The cache does not have
to notify sources of evictions (Section 2): whether the source learns about
an eviction is a property of the precision policy, handled by the simulator.

Victim selection is O(log n): for eviction policies that expose an
:meth:`~repro.caching.eviction.EvictionPolicy.index_priority` (widest-first
and LRU), the cache maintains a lazy-invalidation heap over
``(priority, insertion sequence, key)`` tuples.  Entries are never removed
from the heap eagerly — overwrites, touches, invalidations and clears simply
leave stale tuples behind, which are recognised (by a per-entry sequence
number and priority mismatch) and discarded when popped.  Policies without an
index priority (random, externally scored) keep the exhaustive scan.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from repro.caching.eviction import EvictionPolicy, WidestFirstEviction
from repro.core.checks import at_least
from repro.intervals.interval import UNBOUNDED, Interval

#: The lazy heap is compacted (rebuilt from live entries) when it holds more
#: than ``_HEAP_COMPACT_FACTOR`` stale-or-live tuples per live entry, keeping
#: memory and pop costs bounded under touch-heavy workloads.
_HEAP_COMPACT_FACTOR = 4
_HEAP_COMPACT_MIN = 64


@dataclass(slots=True)
class CacheEntry:
    """One cached approximation plus its bookkeeping metadata.

    ``original_width`` is the policy's unclamped width, used for eviction
    decisions exactly as the paper prescribes ("this decision also is based on
    original widths, not on 0 or infinite widths due to thresholds").
    ``seq`` is the cache-assigned insertion sequence number; entries stored in
    the cache hold strictly increasing sequences in dict order, which the
    eviction heap uses to reproduce the scan's first-wins tie-breaking.
    """

    key: Hashable
    interval: Interval
    original_width: float
    installed_at: float
    last_access_time: float
    seq: int = 0

    def touch(self, time: float) -> None:
        """Record an access at ``time`` (used by LRU-style eviction)."""
        if time < self.last_access_time:
            raise ValueError("access times must be non-decreasing")
        self.last_access_time = time


@dataclass
class CacheStatistics:
    """Running counters describing cache behaviour."""

    insertions: int = 0
    evictions: int = 0
    hits: int = 0
    misses: int = 0
    rejected_insertions: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache."""
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total


class ApproximateCache:
    """A bounded store of interval approximations keyed by source value id.

    Parameters
    ----------
    capacity:
        Maximum number of approximations held (the paper's ``kappa``).
        ``None`` means unbounded.
    eviction_policy:
        Strategy choosing the victim when over capacity; defaults to the
        paper's widest-first rule.
    """

    def __init__(
        self,
        capacity: Optional[int] = None,
        eviction_policy: Optional[EvictionPolicy] = None,
    ) -> None:
        if capacity is not None:
            at_least("capacity", capacity, 1, finite=True)
        self._capacity = capacity
        self._eviction_policy = eviction_policy or WidestFirstEviction()
        self._entries: Dict[Hashable, CacheEntry] = {}
        self.statistics = CacheStatistics()
        self._seq = itertools.count()
        # The heap index only pays off (and only stays bounded) when evictions
        # can happen, so it is maintained solely for capacity-limited caches
        # whose policy exposes an index priority.  Whether the policy does is
        # decided from its ``index_priority`` of the first real entry (None
        # until then), so policies deriving priorities from entry contents
        # are never probed with fake data.
        self._indexed: Optional[bool] = False if capacity is None else None
        self._heap: List[Tuple] = []

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    @property
    def capacity(self) -> Optional[int]:
        """The maximum number of entries (``None`` = unbounded)."""
        return self._capacity

    def keys(self) -> List[Hashable]:
        """Return the keys currently cached."""
        return list(self._entries.keys())

    def entries(self) -> List[CacheEntry]:
        """Return the cached entries (in insertion order)."""
        return list(self._entries.values())

    def get(
        self,
        key: Hashable,
        time: Optional[float] = None,
        record_stats: bool = True,
    ) -> Optional[CacheEntry]:
        """Return the entry for ``key`` or ``None``.

        Lookups update the hit/miss counters unless ``record_stats`` is
        ``False``, which internal bookkeeping paths use so that
        :attr:`CacheStatistics.hit_rate` reflects only real workload lookups.
        """
        entry = self._entries.get(key)
        if entry is None:
            if record_stats:
                self.statistics.misses += 1
            return None
        if record_stats:
            self.statistics.hits += 1
        if time is not None and time != entry.last_access_time:
            # Inlined CacheEntry.touch (this runs once per workload lookup).
            if time < entry.last_access_time:
                raise ValueError("access times must be non-decreasing")
            entry.last_access_time = time
            if self._indexed:
                self._heap_push(entry)
        return entry

    def approximation(
        self,
        key: Hashable,
        time: Optional[float] = None,
        record_stats: bool = True,
    ) -> Interval:
        """Return the cached interval for ``key``, or ``UNBOUNDED`` if absent.

        A missing approximation carries no information, which is exactly what
        the unbounded interval represents; queries treat the two identically.
        """
        entry = self.get(key, time, record_stats=record_stats)
        if entry is None:
            return UNBOUNDED
        return entry.interval

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def put(
        self,
        key: Hashable,
        interval: Interval,
        original_width: float,
        time: float,
    ) -> List[Hashable]:
        """Install an approximation, evicting if needed.

        Returns the list of evicted keys (possibly containing ``key`` itself
        when the incoming approximation is immediately chosen as the victim,
        which the paper explicitly allows).

        A key already cached keeps its :class:`CacheEntry`, updated in place
        (so an entry a caller holds reflects the later ``put``), and moves to
        the end of the insertion order with a fresh ``seq``, exactly as a new
        entry would.
        """
        if not original_width >= 0:
            raise ValueError("original_width must be non-negative")
        entries = self._entries
        entry = entries.pop(key, None)
        if entry is None:
            entry = CacheEntry(
                key=key,
                interval=interval,
                original_width=original_width,
                installed_at=time,
                last_access_time=time,
                seq=next(self._seq),
            )
            self.statistics.insertions += 1
        else:
            entry.interval = interval
            entry.original_width = original_width
            entry.installed_at = time
            entry.last_access_time = time
            entry.seq = next(self._seq)
        entries[key] = entry
        if self._indexed is None:
            self._indexed = self._eviction_policy.index_priority(entry) is not None
        evicted: List[Hashable] = []
        if self._indexed:
            self._heap_push(entry)
            while self._capacity is not None and len(self._entries) > self._capacity:
                victim_key = self._pop_victim()
                del self._entries[victim_key]
                evicted.append(victim_key)
                self._record_eviction(victim_key, key)
        else:
            while self._capacity is not None and len(self._entries) > self._capacity:
                victim_key = self._eviction_policy.select_victim(
                    list(self._entries.values())
                )
                del self._entries[victim_key]
                evicted.append(victim_key)
                self._record_eviction(victim_key, key)
        return evicted

    def invalidate(self, key: Hashable) -> bool:
        """Drop ``key`` from the cache; returns True if it was present."""
        # Heap tuples for the dropped entry become stale and are discarded
        # lazily when popped.
        return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        """Remove every entry (statistics are preserved)."""
        self._entries.clear()
        self._heap.clear()

    def _record_eviction(self, victim_key: Hashable, incoming_key: Hashable) -> None:
        if victim_key == incoming_key:
            self.statistics.rejected_insertions += 1
        else:
            self.statistics.evictions += 1

    # ------------------------------------------------------------------
    # Eviction heap maintenance
    # ------------------------------------------------------------------
    def _heap_push(self, entry: CacheEntry) -> None:
        priority = self._eviction_policy.index_priority(entry)
        heapq.heappush(self._heap, (priority, entry.seq, entry.key))
        if len(self._heap) > max(
            _HEAP_COMPACT_MIN, _HEAP_COMPACT_FACTOR * len(self._entries)
        ):
            self._compact_heap()

    def _compact_heap(self) -> None:
        priority = self._eviction_policy.index_priority
        self._heap = [
            (priority(entry), entry.seq, key)
            for key, entry in self._entries.items()
        ]
        heapq.heapify(self._heap)

    def _pop_victim(self) -> Hashable:
        """Pop heap tuples until one matches a live entry's current state."""
        entries = self._entries
        heap = self._heap
        priority = self._eviction_policy.index_priority
        while heap:
            candidate_priority, seq, key = heapq.heappop(heap)
            entry = entries.get(key)
            if (
                entry is not None
                and entry.seq == seq
                and priority(entry) == candidate_priority
            ):
                return key
        # Every tuple was stale (cannot happen while entries exist and pushes
        # accompany every mutation, but rebuild defensively rather than fail).
        self._compact_heap()
        if not self._heap:
            raise ValueError("cannot select an eviction victim from an empty cache")
        return self._pop_victim()

    # ------------------------------------------------------------------
    # Aggregate views
    # ------------------------------------------------------------------
    def total_width(self) -> float:
        """Sum of cached interval widths (``inf`` if any entry is unbounded)."""
        total = 0.0
        for entry in self._entries.values():
            if entry.interval.is_unbounded:
                return math.inf
            total += entry.interval.width
        return total

    def widths(self) -> Dict[Hashable, float]:
        """Mapping of key to cached interval width."""
        return {key: entry.interval.width for key, entry in self._entries.items()}
