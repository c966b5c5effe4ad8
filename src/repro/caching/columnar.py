"""Struct-of-arrays mirror of the hot cache/source state (the columnar core).

The paper-exact simulation walks one Python object per source per event:
``DataSource`` for the exact value and publication, ``CacheEntry``/``Interval``
for the cached approximation.  That layout is authoritative and stays the
compat mode, but it makes the two hottest per-tick jobs — "did any update
escape its published bound?" and "which intervals must a SUM query refresh?" —
O(n) attribute-chasing loops.  :class:`ColumnarState` mirrors exactly the
fields those jobs read into parallel numpy arrays keyed by a fixed source
order, so the batch kernel screens a whole update column with a handful of
vector ops and refresh selection sorts one float array.

The mirror is *derived* state with a strict ownership split while a columnar
run is active:

* ``values`` / ``update_count`` / ``last_update_time`` are authoritative in
  the arrays (bulk-applied per kernel position) and written back to the
  ``DataSource`` objects lazily — :meth:`sync_source` immediately before any
  scalar refresh path reads ``source.value``, :meth:`sync_all` at the end of
  the run.
* ``low`` / ``high`` / ``width`` / ``original_width`` / ``last_refresh_time``
  / ``published`` mirror the source's publication
  (``DataSource.published_interval`` and friends), which the object world
  still owns: every ``publish``/``forget_publication`` on the scalar install
  path is echoed here via :meth:`publish` / :meth:`clear_publication`.
* The cache entries are not mirrored.  A query answered from the mirror
  counts its hits in bulk and does not touch the entries; the simulator
  keeps each source's last query time beside the mirror and, when the run
  ends, sets every entry's ``last_access_time`` to the later of that time
  and its installation — the value the object path's per-lookup touch
  leaves.

All floats cross between worlds unmodified (float64 round-trips are exact),
so the mirrored run is bit-identical to the object run; the equality and
round-trip property tests in ``tests/test_columnar_core.py`` pin that.
:func:`cache_to_columns` / :func:`columns_to_cache` round-trip a whole
``ApproximateCache`` through the columnar layout the same way (bounds,
original widths and access times — hence eviction priorities — preserved).
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.caching.cache import ApproximateCache
from repro.caching.eviction import EvictionPolicy
from repro.caching.source import DataSource
from repro.intervals.interval import UNBOUNDED, Interval

_NEG_INF = float("-inf")
_POS_INF = float("inf")


def _reconstruct_interval(low: float, high: float) -> Interval:
    """Rebuild an interval from endpoint floats (canonical ``UNBOUNDED``)."""
    if low == _NEG_INF and high == _POS_INF:
        return UNBOUNDED
    return Interval(low, high)


class ColumnarState:
    """Parallel arrays over a fixed key order mirroring the per-source state.

    Parameters
    ----------
    keys:
        The source population in mirror order (the merged timeline's key
        order, so kernel columns align with the arrays positionally).
    sources:
        The live ``DataSource`` objects to mirror; every key must be present.
    """

    __slots__ = (
        "keys",
        "index_of",
        "values",
        "update_count",
        "last_update_time",
        "low",
        "high",
        "width",
        "original_width",
        "last_refresh_time",
        "published",
    )

    def __init__(
        self, keys: Sequence[Hashable], sources: Mapping[Hashable, DataSource]
    ) -> None:
        self.keys: Tuple[Hashable, ...] = tuple(keys)
        self.index_of: Dict[Hashable, int] = {
            key: index for index, key in enumerate(self.keys)
        }
        count = len(self.keys)
        self.values = np.empty(count, dtype=np.float64)
        self.update_count = np.zeros(count, dtype=np.int64)
        self.last_update_time = np.zeros(count, dtype=np.float64)
        self.low = np.full(count, _NEG_INF, dtype=np.float64)
        self.high = np.full(count, _POS_INF, dtype=np.float64)
        self.width = np.full(count, _POS_INF, dtype=np.float64)
        self.original_width = np.zeros(count, dtype=np.float64)
        self.last_refresh_time = np.zeros(count, dtype=np.float64)
        self.published = np.zeros(count, dtype=bool)
        for index, key in enumerate(self.keys):
            source = sources[key]
            self.values[index] = source.value
            self.update_count[index] = source.update_count
            self.last_update_time[index] = source.last_update_time
            self.original_width[index] = source.published_width
            self.last_refresh_time[index] = source.last_refresh_time
            interval = source.published_interval
            if interval is not None:
                self.publish(
                    index, interval, source.published_width, source.last_refresh_time
                )

    # ------------------------------------------------------------------
    # Publication mirroring (driven by the scalar install path)
    # ------------------------------------------------------------------
    def publish(
        self, index: int, interval: Interval, original_width: float, time: float
    ) -> None:
        """Mirror ``source.publish(interval, original_width, time)``."""
        self.low[index] = interval.low
        self.high[index] = interval.high
        self.width[index] = interval.width
        self.original_width[index] = original_width
        self.last_refresh_time[index] = time
        self.published[index] = True

    def clear_publication(self, index: int) -> None:
        """Mirror ``source.forget_publication()`` at ``index``."""
        self.published[index] = False

    def interval_at(self, index: int) -> Interval:
        """The published interval at ``index`` (``UNBOUNDED`` when none)."""
        if not self.published[index]:
            return UNBOUNDED
        return _reconstruct_interval(float(self.low[index]), float(self.high[index]))

    # ------------------------------------------------------------------
    # Write-back to the object world
    # ------------------------------------------------------------------
    def sync_source(self, source: DataSource, index: int) -> None:
        """Write the array-owned update fields back to one ``DataSource``.

        Called immediately before a scalar refresh path reads
        ``source.value`` so the object observes exactly the state the arrays
        accumulated.  Publication fields are object-owned and not touched.
        """
        source.value = float(self.values[index])
        source.update_count = int(self.update_count[index])
        source.last_update_time = float(self.last_update_time[index])

    def sync_all(self, sources: Mapping[Hashable, DataSource]) -> None:
        """Write every array-owned field back (end-of-run reconciliation)."""
        for index, key in enumerate(self.keys):
            self.sync_source(sources[key], index)

    # ------------------------------------------------------------------
    # Round-trip construction (property tests, diagnostics)
    # ------------------------------------------------------------------
    def to_sources(self) -> Dict[Hashable, DataSource]:
        """Materialise equivalent ``DataSource`` objects from the arrays."""
        sources: Dict[Hashable, DataSource] = {}
        for index, key in enumerate(self.keys):
            source = DataSource(key=key, value=float(self.values[index]))
            source.update_count = int(self.update_count[index])
            source.last_update_time = float(self.last_update_time[index])
            source.published_width = float(self.original_width[index])
            source.last_refresh_time = float(self.last_refresh_time[index])
            if self.published[index]:
                source.published_interval = self.interval_at(index)
            sources[key] = source
        return sources

    def equals_sources(self, sources: Mapping[Hashable, DataSource]) -> bool:
        """Field-for-field equality against live ``DataSource`` objects."""
        for index, key in enumerate(self.keys):
            source = sources[key]
            if (
                float(self.values[index]) != source.value
                or int(self.update_count[index]) != source.update_count
                or float(self.last_update_time[index]) != source.last_update_time
            ):
                return False
            interval = source.published_interval
            if bool(self.published[index]) != (interval is not None):
                return False
            if interval is not None:
                if (
                    float(self.low[index]) != interval.low
                    or float(self.high[index]) != interval.high
                    or not _float_equal(float(self.width[index]), interval.width)
                    or float(self.original_width[index]) != source.published_width
                    or float(self.last_refresh_time[index]) != source.last_refresh_time
                ):
                    return False
        return True


def _float_equal(left: float, right: float) -> bool:
    return left == right or (math.isnan(left) and math.isnan(right))


# ----------------------------------------------------------------------
# Whole-cache round-trips through the columnar layout
# ----------------------------------------------------------------------
def cache_to_columns(cache: ApproximateCache) -> Dict[str, object]:
    """Decompose a cache's live entries into parallel columnar arrays.

    Entries are emitted in insertion (dict) order, so rebuilding with
    :func:`columns_to_cache` reproduces the relative sequence numbers the
    eviction heap tie-breaks on.
    """
    entries = cache.entries()
    count = len(entries)
    keys: List[Hashable] = [entry.key for entry in entries]
    low = np.empty(count, dtype=np.float64)
    high = np.empty(count, dtype=np.float64)
    width = np.empty(count, dtype=np.float64)
    original_width = np.empty(count, dtype=np.float64)
    installed_at = np.empty(count, dtype=np.float64)
    last_access_time = np.empty(count, dtype=np.float64)
    for index, entry in enumerate(entries):
        low[index] = entry.interval.low
        high[index] = entry.interval.high
        width[index] = entry.interval.width
        original_width[index] = entry.original_width
        installed_at[index] = entry.installed_at
        last_access_time[index] = entry.last_access_time
    return {
        "keys": keys,
        "low": low,
        "high": high,
        "width": width,
        "original_width": original_width,
        "installed_at": installed_at,
        "last_access_time": last_access_time,
    }


def columns_to_cache(
    columns: Mapping[str, object],
    capacity: Optional[int] = None,
    eviction_policy: Optional[EvictionPolicy] = None,
) -> ApproximateCache:
    """Rebuild an :class:`ApproximateCache` from :func:`cache_to_columns` output.

    Puts are replayed in column order (restoring relative entry sequence) and
    post-install accesses re-applied, so bounds, original widths, access
    times — and therefore every eviction priority — match the source cache
    field for field.  The rebuilt statistics count only the replay itself.
    """
    cache = ApproximateCache(capacity=capacity, eviction_policy=eviction_policy)
    keys = columns["keys"]
    low = columns["low"]
    high = columns["high"]
    original_width = columns["original_width"]
    installed_at = columns["installed_at"]
    last_access_time = columns["last_access_time"]
    for index, key in enumerate(keys):
        interval = _reconstruct_interval(float(low[index]), float(high[index]))
        time = float(installed_at[index])
        cache.put(key, interval, float(original_width[index]), time)
        accessed = float(last_access_time[index])
        if accessed != time:
            cache.get(key, accessed, record_stats=False)
    return cache
