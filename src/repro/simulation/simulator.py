"""The approximate-caching simulator (Section 4.1).

:class:`CacheSimulation` wires together the substrates: per-source update
streams drive :class:`~repro.caching.source.DataSource` objects, a precision
policy decides the approximation sent on every refresh, an
:class:`~repro.caching.cache.ApproximateCache` stores the approximations (with
widest-first eviction when space-constrained), and a
:class:`~repro.queries.workload.QueryWorkload` issues bounded aggregates every
``T_q`` seconds whose unmet precision constraints trigger query-initiated
refreshes.  Costs are charged through a :class:`~repro.simulation.network.NetworkModel`
and aggregated by a :class:`~repro.simulation.metrics.MetricsCollector`.

The run's state lives in those objects alone, and every event reads and
writes them directly.
"""

from __future__ import annotations

import math
from functools import partial
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.caching.cache import ApproximateCache
from repro.caching.eviction import EvictionPolicy
from repro.caching.policies.base import PrecisionPolicy
from repro.caching.refresh import RefreshKind
from repro.caching.source import DataSource
from repro.data.merged import MODE_LOCKSTEP, MergedTimeline, merge_timelines
from repro.data.streams import ScheduleColumns, UpdateStream
from repro.intervals.interval import UNBOUNDED
from repro.queries.refresh_selection import run_query_refreshes
from repro.simulation.config import SimulationConfig
from repro.simulation.kernel import run_batch_kernel
from repro.simulation.metrics import MetricsCollector, SimulationResult
from repro.simulation.network import NetworkModel


class CacheSimulation:
    """One simulation run of the approximate caching environment.

    Parameters
    ----------
    config:
        Scalar simulation parameters (duration, ``T_q``, constraints, costs,
        cache capacity, seed, ...).
    streams:
        Mapping of source key to the update stream driving it; the mapping's
        keys define the population of source values.
    policy:
        The precision policy deciding refreshed approximations (the paper's
        adaptive policy, or one of the baselines).
    eviction_policy:
        Optional override of the cache's eviction strategy (defaults to the
        paper's widest-first rule).
    """

    def __init__(
        self,
        config: SimulationConfig,
        streams: Mapping[Hashable, UpdateStream],
        policy: PrecisionPolicy,
        eviction_policy: Optional[EvictionPolicy] = None,
    ) -> None:
        if not streams:
            raise ValueError("at least one update stream is required")
        self._config = config
        self._policy = policy
        self._network = NetworkModel(
            value_refresh_cost=config.value_refresh_cost,
            query_refresh_cost=config.query_refresh_cost,
        )
        self._cache = ApproximateCache(
            capacity=config.cache_capacity, eviction_policy=eviction_policy
        )
        self._metrics = MetricsCollector(
            warmup=config.warmup, track_keys=list(config.track_keys)
        )
        self._sources: Dict[Hashable, DataSource] = {}
        # Pre-materialised per-source update timelines: every stream's whole
        # schedule is drawn up-front (one batch call per stream) as
        # ``(times, values)`` columns, which the batch kernel indexes
        # directly.  Streams draw from per-stream randomness, so batching
        # does not change the values.
        self._columns: Dict[Hashable, ScheduleColumns] = {}
        for key, stream in streams.items():
            self._sources[key] = DataSource(key=key, value=stream.initial_value)
            self._columns[key] = stream.schedule(config.duration)
        # Interval samples are only collected for tracked keys; skipping the
        # collector calls entirely when nothing is tracked saves a call per
        # update in the hot loop.
        self._sampling = bool(config.track_keys)
        # Whether evictions are reported back to sources is a protocol
        # property of the policy (constant per run), so resolve it once
        # instead of per install.
        self._notify_on_eviction = policy.notifies_source_on_eviction()
        # The workload-observation hooks default to no-ops on PrecisionPolicy;
        # when the policy under test doesn't override them (the paper's
        # algorithm learns from refreshes alone), skip the calls entirely —
        # they fire once per update and per queried key.
        policy_type = type(policy)
        self._policy_observes_writes = (
            policy_type.record_write is not PrecisionPolicy.record_write
        )
        self._policy_observes_reads = (
            policy_type.record_read is not PrecisionPolicy.record_read
            or policy_type.record_constraint is not PrecisionPolicy.record_constraint
        )
        self._workload = config.build_workload(list(streams.keys()))
        # Each query is read straight off the workload as ``(keys, kind,
        # constraint)``; a sweep's runs share its draws (see
        # ``SimulationConfig.build_workload``).
        self._next_query = self._workload.next_query
        # Hot-loop prebinds: these callables (and the warm-up cut) are hit
        # once per refresh or per query, so binding them once removes a
        # chain of attribute lookups per event.
        self._cache_get = self._cache.get
        self._cache_put = self._cache.put
        self._warmup = config.warmup
        self._record_refresh = self._metrics.accountant.record_refresh
        self._charge_value_refresh = self._network.charge_value_refresh
        self._charge_query_refresh = self._network.charge_query_refresh
        self._policy_value_refresh = self._policy.on_value_initiated_refresh
        self._policy_query_refresh = self._policy.on_query_initiated_refresh
        self._ran = False

    # ------------------------------------------------------------------
    # Public accessors (useful to tests and experiments)
    # ------------------------------------------------------------------
    @property
    def config(self) -> SimulationConfig:
        """The configuration of this run."""
        return self._config

    @property
    def cache(self) -> ApproximateCache:
        """The simulated cache."""
        return self._cache

    @property
    def sources(self) -> Dict[Hashable, DataSource]:
        """The simulated sources, keyed by value id."""
        return self._sources

    @property
    def policy(self) -> PrecisionPolicy:
        """The precision policy under test."""
        return self._policy

    @property
    def network(self) -> NetworkModel:
        """The cost/message model used for charging refreshes."""
        return self._network

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Execute the run and return its post-warm-up metrics."""
        if self._ran:
            raise RuntimeError("a CacheSimulation instance can only be run once")
        self._ran = True
        processed = self._execute()
        return self._metrics.finalize(
            end_time=self._config.duration,
            final_widths=self._collect_final_widths(),
            cache_hit_rate=self._cache.statistics.hit_rate,
            events_processed=processed,
        )

    def _execute(self) -> int:
        """Replay the run's events on the batch kernel; returns events executed.

        Every walk calls the same ``_apply_updates`` / ``_run_query`` bodies
        in event order: a lockstep walk hands ``_apply_updates`` every
        source of one grid instant at once, every other walk one update at a
        time.
        """
        merged = merge_timelines(self._columns, engine=self._config.stream_engine())
        return run_batch_kernel(
            merged,
            duration=self._config.duration,
            query_period=self._config.query_period,
            handle_update=self._apply_one_update,
            handle_query=self._run_query,
            handle_update_batch=(
                self._lockstep_instants(merged)
                if merged.mode == MODE_LOCKSTEP
                else None
            ),
        )

    # ------------------------------------------------------------------
    # Update handling
    # ------------------------------------------------------------------
    def _lockstep_instants(
        self, merged: MergedTimeline
    ) -> Callable[[float, int], None]:
        """The whole-instant update handler of a lockstep walk.

        Every source shares the grid, so one ``_apply_updates`` call per
        instant takes all of them, in merged key order (the kernel's
        per-source fan-out order).
        """
        sources = [
            (self._sources[key], column)
            for key, column in zip(merged.keys, merged.columns)
        ]
        return partial(self._apply_updates, sources)

    def _apply_one_update(self, key: Hashable, time: float, payload: float) -> None:
        """One update event of a static or dynamic walk."""
        self._apply_updates(((self._sources[key], (payload,)),), time, 0)

    def _apply_updates(
        self,
        sources: Iterable[Tuple[DataSource, Sequence[float]]],
        time: float,
        position: int,
    ) -> None:
        """Apply the updates at ``time``, in order, to their sources.

        The one update body: every walk routes each update event through
        here.  ``sources`` pairs each :class:`DataSource` with a value
        column, and the update's new value sits at ``position`` in it — a
        lockstep instant passes every source with its schedule column, the
        other walks one source with a one-value column.  Indexing the
        columns here, rather than pairing sources with values up front,
        keeps a lockstep instant's per-source cost to one subscript.
        """
        observes_writes = self._policy_observes_writes
        for source, column in sources:
            payload = column[position]
            if payload == source.value:
                # Not a modification — the stream re-reported the same value
                # (idle periods in trace replays).  Nothing changes: no write
                # is recorded and no refresh can be needed.
                continue
            # Inlined DataSource.apply_update; semantics identical.
            if time < source.last_update_time:
                raise ValueError("updates must arrive in non-decreasing time order")
            source.value = value = float(payload)
            source.update_count += 1
            source.last_update_time = time
            interval = source.published_interval
            if observes_writes:
                self._policy.record_write(source.key, time)
            if interval is not None and not (interval.low <= value <= interval.high):
                self._refresh(source.key, time, False)
            elif self._sampling:
                self._metrics.record_interval_sample(
                    source.key, time, value, source.published_interval
                )

    # ------------------------------------------------------------------
    # Query handling
    # ------------------------------------------------------------------
    def _run_query(self, time: float) -> None:
        keys, kind, constraint = self._next_query()
        self._metrics.record_query(time)
        cache_get = self._cache_get
        intervals = {}
        if self._policy_observes_reads:
            record_read = self._policy.record_read
            record_constraint = self._policy.record_constraint
            for key in keys:
                # The workload lookup — the only cache access that counts
                # toward the hit rate.  Any bookkeeping or post-run
                # inspection of the cache must pass ``record_stats=False``.
                entry = cache_get(key, time)
                intervals[key] = entry.interval if entry is not None else UNBOUNDED
                record_read(key, time, served_from_cache=entry is not None)
                record_constraint(key, constraint, time)
        else:
            for key in keys:
                # The workload lookup (see above): the only stats-counted get.
                entry = cache_get(key, time)
                intervals[key] = entry.interval if entry is not None else UNBOUNDED
        if math.isinf(constraint):
            # An unconstrained query never refreshes; skip the closure and
            # dispatch (run_query_refreshes would return immediately anyway).
            return

        def fetch_exact(key: Hashable) -> float:
            return self._refresh(key, time, True)

        run_query_refreshes(kind, intervals, constraint, fetch_exact)

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------
    def _refresh(self, key: Hashable, time: float, query_initiated: bool) -> float:
        """Refresh ``key`` at ``time``; returns the exact value sent.

        The one refresh body, for both kinds: the policy decides the new
        approximation, the network charges the refresh, the accountant
        records it (after the warm-up), and the source publishes it to the
        cache.  Policies that track replicas explicitly (WJH97 exact
        caching) publish an unbounded approximation as "do not cache at
        all": the cache drops the value and the source stops propagating
        writes to it.
        """
        source = self._sources[key]
        if query_initiated:
            decision = self._policy_query_refresh(key, source.value, time)
            cost = self._charge_query_refresh()
            kind = RefreshKind.QUERY_INITIATED
        else:
            decision = self._policy_value_refresh(key, source.value, time)
            cost = self._charge_value_refresh()
            kind = RefreshKind.VALUE_INITIATED
        interval = decision.interval
        original_width = decision.original_width
        if original_width < 0:
            raise ValueError("original_width must be non-negative")
        if time >= self._warmup:
            self._record_refresh(kind, key, time, cost, interval.width)
        # The cheap flag goes first: only eviction-notifying policies ever
        # take the invalidate branch, so the default policies skip the
        # unboundedness probe entirely.
        if self._notify_on_eviction and interval.is_unbounded:
            self._cache.invalidate(key)
            source.published_interval = None
        else:
            # Inlined DataSource.publish.
            source.published_interval = interval
            source.published_width = original_width
            source.last_refresh_time = time
            evicted = self._cache_put(key, interval, original_width, time)
            if evicted and self._notify_on_eviction:
                for evicted_key in evicted:
                    self._sources[evicted_key].forget_publication()
        if self._sampling:
            self._metrics.record_interval_sample(
                key, time, source.value, source.published_interval
            )
        return source.value

    def _collect_final_widths(self) -> Dict[Hashable, float]:
        current_width = getattr(self._policy, "current_width", None)
        if current_width is None:
            return {}
        tracked_keys = getattr(self._policy, "tracked_keys", None)
        keys = tracked_keys() if callable(tracked_keys) else list(self._sources.keys())
        return {key: current_width(key) for key in keys}


def run_simulation(
    config: SimulationConfig,
    streams: Mapping[Hashable, UpdateStream],
    policy: PrecisionPolicy,
    eviction_policy: Optional[EvictionPolicy] = None,
) -> SimulationResult:
    """Convenience one-shot wrapper around :class:`CacheSimulation`."""
    return CacheSimulation(config, streams, policy, eviction_policy).run()
