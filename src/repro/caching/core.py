"""The cache core: the paper's per-event steps (Section 2), written once.

:class:`CacheCore` holds one approximate cache's state — the sources, the
:class:`~repro.caching.cache.ApproximateCache`, the precision policy and the
:class:`~repro.simulation.network.NetworkModel`, which keeps the all-time
refresh counts and cost — and applies source updates, refreshes keys and
snapshots a query's cached intervals.  It is synchronous and does no I/O:
the offline simulator drives it from the batch kernel, the serving layer
from its request handlers and from WAL replay.  What the callers do
differently is passed in once, as hooks; a hook a caller does not pass
costs one ``None`` test per event.  The network model is the one refresh
counter: the simulator restarts it at the end of its warm-up
(``count_from``), the server keeps it all-time.
"""

from __future__ import annotations

import math
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Optional,
    Sequence,
    Tuple,
)

from repro.caching.cache import ApproximateCache
from repro.caching.policies.base import PrecisionPolicy
from repro.caching.source import DataSource
from repro.core.checks import non_negative
from repro.intervals.interval import UNBOUNDED, Interval

if TYPE_CHECKING:  # pragma: no cover - import cycle through repro.simulation
    from repro.simulation.network import NetworkModel


class UpdateOrderError(ValueError):
    """An update stamped earlier than its source's last applied update."""


class CacheCore:
    """One approximate cache's state and its per-event operations.

    ``sources`` maps each value id to its source (default: none yet; see
    :meth:`register`).  ``count_from`` restarts the refresh count: the first
    refresh at or after that time zeroes the network model's counters, once,
    before it is charged, so from then on they count exactly the refreshes
    from ``count_from`` (see :meth:`start_count`).  Without it the counters
    are all-time.  The hooks:

    ``sample(key, time, value, published_interval)``
        After every update that fires no refresh and after every refresh:
        the simulator's tracked-key interval sampling.
    ``observe_update(key, step, gap)``
        Before every applied update, with the absolute step and the time
        since the source's previous update (``None`` for its first): the
        server's drift model.
    """

    def __init__(
        self,
        policy: PrecisionPolicy,
        cache: ApproximateCache,
        network: "NetworkModel",
        *,
        sources: Optional[Dict[Hashable, DataSource]] = None,
        count_from: Optional[float] = None,
        sample: Optional[Callable[..., None]] = None,
        observe_update: Optional[Callable[..., None]] = None,
    ) -> None:
        self.policy = policy
        self.cache = cache
        self.network = network
        self.sources: Dict[Hashable, DataSource] = {} if sources is None else sources
        if count_from is not None:
            non_negative("count_from", count_from, finite=False)
        # Infinity once the count has started (or when it never restarts),
        # so the per-refresh test is one comparison.
        self._count_from = math.inf if count_from is None else count_from
        self._sample = sample
        self._observe_update = observe_update
        # Protocol properties of the policy, resolved once instead of per
        # event.  The workload observers default to no-ops on PrecisionPolicy;
        # a policy that does not override them (the paper's algorithm learns
        # from refreshes alone) is never called for them.
        self._notify_on_eviction = policy.notifies_source_on_eviction()
        policy_type = type(policy)
        self._policy_observes_writes = (
            policy_type.record_write is not PrecisionPolicy.record_write
        )
        self._policy_observes_reads = (
            policy_type.record_read is not PrecisionPolicy.record_read
            or policy_type.record_constraint is not PrecisionPolicy.record_constraint
        )
        # Hot-loop prebinds: hit once per refresh.
        self._cache_put = cache.put
        self._policy_value_refresh = policy.on_value_initiated_refresh
        self._policy_query_refresh = policy.on_query_initiated_refresh
        self._charge_value_refresh = network.charge_value_refresh
        self._charge_query_refresh = network.charge_query_refresh

    # ------------------------------------------------------------------
    # Sources
    # ------------------------------------------------------------------
    def register(self, key: Hashable, value: float) -> DataSource:
        """Start ``key``'s lifecycle at exact ``value``; returns its source.

        A known key starts over and its cached approximation is dropped, so
        a second replay against the same cache starts from a clean slate.
        """
        source = self.sources.get(key)
        if source is None:
            source = self.sources[key] = DataSource(key=key, value=value)
        else:
            source.value = value
            source.update_count = 0
            source.last_update_time = 0.0
            source.last_refresh_time = 0.0
            source.forget_publication()
            self.cache.invalidate(key)
        return source

    def start_count(self) -> None:
        """Start the refresh count now, empty, unless it has started.

        The first refresh at or after ``count_from`` calls this; a caller
        that ran past ``count_from`` with no refresh calls it so that the
        counters read zero.  Without ``count_from`` it does nothing.
        """
        if self._count_from != math.inf:
            self._count_from = math.inf
            self.network.reset_counters()

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def apply_updates(
        self,
        updates: Iterable[Tuple[DataSource, Sequence[float]]],
        time: float,
        position: int = 0,
    ) -> int:
        """Apply the updates at ``time``, in order; returns the refreshes fired.

        ``updates`` pairs each :class:`DataSource` with a value column whose
        ``position`` holds the new value: a lockstep instant of the
        simulator passes every source with its schedule column, which keeps
        its per-source cost to one subscript; other callers pass one-value
        columns.  A value equal to the source's (idle periods in trace
        replays) changes nothing.  An update earlier than the source's last
        one raises :class:`UpdateOrderError`.
        """
        observe = self._observe_update
        observes_writes = self._policy_observes_writes
        sample = self._sample
        refreshes = 0
        for source, column in updates:
            value = column[position]
            if value == source.value:
                continue
            if time < source.last_update_time:
                raise UpdateOrderError(
                    "updates must arrive in non-decreasing time order"
                )
            if observe is not None:
                observe(
                    source.key,
                    abs(value - source.value),
                    time - source.last_update_time if source.update_count > 0 else None,
                )
            source.value = value = float(value)
            source.update_count += 1
            source.last_update_time = time
            if observes_writes:
                self.policy.record_write(source.key, time)
            interval = source.published_interval
            if interval is not None and not (interval.low <= value <= interval.high):
                self.refresh(source.key, time, False)
                refreshes += 1
            elif sample is not None:
                sample(source.key, time, value, interval)
        return refreshes

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def snapshot(
        self, keys: Iterable[Hashable], constraint: float, time: float
    ) -> Tuple[Dict[Hashable, Interval], int]:
        """A query's cached intervals (unbounded when absent) and its hits.

        These lookups are the only cache accesses counted in the hit rate;
        any other read of the cache must pass ``record_stats=False``.
        """
        cache_get = self.cache.get
        observes_reads = self._policy_observes_reads
        intervals: Dict[Hashable, Interval] = {}
        hits = 0
        for key in keys:
            entry = cache_get(key, time)
            if entry is None:
                intervals[key] = UNBOUNDED
            else:
                hits += 1
                intervals[key] = entry.interval
            if observes_reads:
                self.policy.record_read(key, time, served_from_cache=entry is not None)
                self.policy.record_constraint(key, constraint, time)
        return intervals, hits

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------
    def refresh(
        self,
        key: Hashable,
        time: float,
        query_initiated: bool,
        value: Optional[float] = None,
    ) -> float:
        """Refresh ``key`` at ``time``; returns the exact value sent.

        The policy decides the new approximation, the network charges the
        refresh, and the interval is published into the cache.  A
        query-initiated refresh may carry the ``value`` fetched from the
        source, which replaces the mirror's first.  An eviction-notifying
        policy (WJH97 exact caching) publishes an unbounded approximation as
        "do not cache at all": the cache drops the value and the source
        stops propagating writes to it.
        """
        source = self.sources[key]
        if value is not None:
            source.value = value
        if time >= self._count_from:
            self.start_count()
        if query_initiated:
            decision = self._policy_query_refresh(key, source.value, time)
            self._charge_query_refresh()
        else:
            decision = self._policy_value_refresh(key, source.value, time)
            self._charge_value_refresh()
        interval = decision.interval
        original_width = decision.original_width
        if not original_width >= 0:
            raise ValueError("original_width must be non-negative")
        # The cheap flag goes first: only eviction-notifying policies ever
        # take the invalidate branch, so the default policies skip the
        # unboundedness probe entirely.
        if self._notify_on_eviction and interval.is_unbounded:
            self.cache.invalidate(key)
            source.forget_publication()
        else:
            source.published_interval = interval
            source.published_width = original_width
            source.last_refresh_time = time
            evicted = self._cache_put(key, interval, original_width, time)
            if evicted and self._notify_on_eviction:
                for evicted_key in evicted:
                    self.sources[evicted_key].forget_publication()
        if self._sample is not None:
            self._sample(key, time, source.value, source.published_interval)
        return source.value
