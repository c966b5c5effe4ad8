"""Caching substrate: sources, the approximate cache, refreshes, eviction.

This subpackage models the distributed environment of Section 1.1: data
sources each hosting exact numeric values, a cache holding interval
approximations of those values, and the two refresh flows (value-initiated
and query-initiated) whose costs the adaptive algorithm balances.
"""

from repro.caching.cache import ApproximateCache, CacheEntry
from repro.caching.eviction import (
    EvictionPolicy,
    LeastRecentlyUsedEviction,
    RandomEviction,
    WidestFirstEviction,
)
from repro.caching.source import DataSource

__all__ = [
    "ApproximateCache",
    "CacheEntry",
    "DataSource",
    "EvictionPolicy",
    "WidestFirstEviction",
    "LeastRecentlyUsedEviction",
    "RandomEviction",
]
