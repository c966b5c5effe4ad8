"""Property tests: the heap-indexed eviction path matches the naive scan.

The cache maintains a lazy-invalidation heap for eviction policies exposing
``index_priority`` (widest-first, LRU).  These tests drive long random
sequences of put / get(touch) / invalidate / clear operations through an
indexed cache and a naive reference cache side by side, asserting they stay
identical entry-for-entry and evict identical victims — including under
heavy width/access-time ties, which exercise the first-wins tie-breaking of
the exhaustive scan the heap replaces.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caching.cache import ApproximateCache
from repro.caching.eviction import (
    EvictionPolicy,
    LeastRecentlyUsedEviction,
    LowestValueEviction,
    RandomEviction,
    WidestFirstEviction,
)
from repro.intervals.interval import Interval


class _NaiveWidest(WidestFirstEviction):
    """Widest-first with the heap index disabled (reference behaviour)."""

    def index_priority(self, entry):
        return None


class _NaiveLRU(LeastRecentlyUsedEviction):
    """LRU with the heap index disabled (reference behaviour)."""

    def index_priority(self, entry):
        return None


def _entry_state(cache):
    return [
        (e.key, e.interval, e.original_width, e.installed_at, e.last_access_time)
        for e in cache.entries()
    ]


# Small key space + discrete widths force constant collisions and ties.
_operations = st.lists(
    st.tuples(
        st.sampled_from(["put", "get", "invalidate", "clear"]),
        st.integers(min_value=0, max_value=11),  # key
        st.sampled_from([1.0, 2.0, 2.0, 4.0, 8.0]),  # width (ties likely)
    ),
    min_size=1,
    max_size=300,
)


@pytest.mark.parametrize(
    "fast_policy, naive_policy",
    [
        (WidestFirstEviction, _NaiveWidest),
        (LeastRecentlyUsedEviction, _NaiveLRU),
    ],
    ids=["widest-first", "lru"],
)
@settings(max_examples=60, deadline=None)
@given(operations=_operations, capacity=st.integers(min_value=1, max_value=6))
def test_indexed_cache_matches_naive_reference(
    fast_policy, naive_policy, operations, capacity
):
    fast = ApproximateCache(capacity=capacity, eviction_policy=fast_policy())
    naive = ApproximateCache(capacity=capacity, eviction_policy=naive_policy())
    saw_put = False
    time = 0.0
    for op, key, width in operations:
        time += 1.0
        if op == "put":
            interval = Interval.centered(float(key), width)
            evicted_fast = fast.put(key, interval, width, time)
            evicted_naive = naive.put(key, interval, width, time)
            assert evicted_fast == evicted_naive
            saw_put = True
            # Index support is decided from the first real entry.
            assert fast._indexed is True and naive._indexed is False
        elif op == "get":
            entry_fast = fast.get(key, time)
            entry_naive = naive.get(key, time)
            assert (entry_fast is None) == (entry_naive is None)
        elif op == "invalidate":
            assert fast.invalidate(key) == naive.invalidate(key)
        else:
            fast.clear()
            naive.clear()
        assert _entry_state(fast) == _entry_state(naive)
    assert fast.statistics.evictions == naive.statistics.evictions
    assert fast.statistics.rejected_insertions == naive.statistics.rejected_insertions
    if not saw_put:
        assert fast._indexed is None  # undecided until the first entry arrives


def test_long_random_churn_matches_reference_victim_for_victim():
    """Seeded long-run churn at capacity, beyond hypothesis' example sizes."""
    rng = random.Random(20260725)
    fast = ApproximateCache(capacity=16, eviction_policy=WidestFirstEviction())
    naive = ApproximateCache(capacity=16, eviction_policy=_NaiveWidest())
    time = 0.0
    for step in range(5000):
        time += rng.random()
        key = rng.randrange(48)
        roll = rng.random()
        if roll < 0.6:
            width = rng.choice([1.0, 1.0, 3.0, 9.0])
            assert fast.put(key, Interval.centered(0.0, width), width, time) == (
                naive.put(key, Interval.centered(0.0, width), width, time)
            )
        elif roll < 0.9:
            fast.get(key, time)
            naive.get(key, time)
        else:
            assert fast.invalidate(key) == naive.invalidate(key)
    assert fast.keys() == naive.keys()
    # The heap accumulates stale tuples under touch-heavy load but is
    # compacted, so it stays within a constant factor of the live entries.
    assert len(fast._heap) <= max(64, 4 * len(fast._entries)) + 1


def test_random_and_scored_policies_fall_back_to_scan():
    for policy in (RandomEviction(), LowestValueEviction(score=lambda key: 0.0)):
        cache = ApproximateCache(capacity=2, eviction_policy=policy)
        cache.put("a", Interval.centered(0.0, 1.0), 1.0, 0.0)
        assert cache._indexed is False
        assert cache._heap == []


def test_key_dependent_custom_index_priority_is_never_probed_with_fake_data():
    # Detection happens on the first real entry, so priorities derived from
    # entry contents (here: the key itself) must not crash construction.
    class KeyLengthEviction(EvictionPolicy):
        def select_victim(self, entries):
            self._require_entries(entries)
            return min(entries, key=lambda e: (len(e.key), e.seq)).key

        def index_priority(self, entry):
            return (len(entry.key),)

    cache = ApproximateCache(capacity=2, eviction_policy=KeyLengthEviction())
    cache.put("aa", Interval.centered(0.0, 1.0), 1.0, 0.0)
    cache.put("b", Interval.centered(0.0, 1.0), 1.0, 1.0)
    assert cache._indexed is True
    evicted = cache.put("ccc", Interval.centered(0.0, 1.0), 1.0, 2.0)
    assert evicted == ["b"]


def test_unbounded_cache_keeps_no_heap():
    cache = ApproximateCache(capacity=None)
    assert not cache._indexed
    for index in range(100):
        cache.put(index, Interval.centered(0.0, 1.0), 1.0, float(index))
        cache.get(index, float(index) + 0.5)
    assert cache._heap == []


def test_custom_policy_without_index_priority_still_works():
    class EvictSmallestKey(EvictionPolicy):
        def select_victim(self, entries):
            self._require_entries(entries)
            return min(entries, key=lambda e: e.key).key

    cache = ApproximateCache(capacity=2, eviction_policy=EvictSmallestKey())
    cache.put(3, Interval.centered(0.0, 1.0), 1.0, 0.0)
    cache.put(1, Interval.centered(0.0, 1.0), 1.0, 1.0)
    evicted = cache.put(2, Interval.centered(0.0, 1.0), 1.0, 2.0)
    assert evicted == [1]


@pytest.mark.parametrize(
    "fast_policy, naive_policy",
    [
        (WidestFirstEviction, _NaiveWidest),
        (LeastRecentlyUsedEviction, _NaiveLRU),
    ],
    ids=["widest-first", "lru"],
)
def test_reputting_the_same_keys_matches_reference_victim_for_victim(
    fast_policy, naive_policy
):
    """A re-put reuses its key's entry; the victims are still the scan's.

    Eight keys share a five-entry cache and are re-put thousands of times, so
    almost every put updates a live entry in place and leaves a stale heap
    tuple behind with the entry's old ``seq`` and priority.
    """
    rng = random.Random(20261019)
    fast = ApproximateCache(capacity=5, eviction_policy=fast_policy())
    naive = ApproximateCache(capacity=5, eviction_policy=naive_policy())
    time = 0.0
    evictions = 0
    for _ in range(4000):
        time += rng.choice([0.0, 0.5, 1.0])
        key = rng.randrange(8)
        if rng.random() < 0.75:
            width = rng.choice([1.0, 2.0, 2.0, 4.0])
            evicted = fast.put(key, Interval.centered(float(key), width), width, time)
            assert evicted == naive.put(
                key, Interval.centered(float(key), width), width, time
            )
            evictions += len(evicted)
        else:
            assert (fast.get(key, time) is None) == (naive.get(key, time) is None)
        assert _entry_state(fast) == _entry_state(naive)
        assert [e.seq for e in fast.entries()] == [e.seq for e in naive.entries()]
    assert evictions > 100
    assert fast.statistics == naive.statistics


def test_a_held_entry_is_updated_by_a_later_put_of_its_key():
    """``put`` of a cached key updates its :class:`CacheEntry` in place.

    A caller holding the entry sees the new approximation, its fresh
    ``seq`` and the key's move to the end of the insertion order; a key put
    after an invalidation gets a new entry.
    """
    cache = ApproximateCache(capacity=3)
    cache.put("a", Interval.centered(0.0, 4.0), 4.0, 1.0)
    cache.put("b", Interval.centered(0.0, 2.0), 2.0, 1.0)
    held = cache.get("a", record_stats=False)
    first_seq = held.seq
    cache.put("a", Interval.centered(1.0, 1.0), 1.0, 2.0)
    assert cache.get("a", record_stats=False) is held
    assert (held.interval, held.original_width) == (Interval.centered(1.0, 1.0), 1.0)
    assert (held.installed_at, held.last_access_time) == (2.0, 2.0)
    assert held.seq > first_seq
    assert cache.keys() == ["b", "a"]
    assert cache.statistics.insertions == 2
    cache.invalidate("a")
    cache.put("a", Interval.centered(0.0, 3.0), 3.0, 3.0)
    assert cache.get("a", record_stats=False) is not held
    assert held.interval == Interval.centered(1.0, 1.0)
