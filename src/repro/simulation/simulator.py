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
"""

from __future__ import annotations

import heapq
import math
from functools import partial
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.caching.cache import ApproximateCache
from repro.caching.columnar import ColumnarState
from repro.caching.eviction import EvictionPolicy
from repro.caching.policies.base import PrecisionPolicy
from repro.caching.refresh import RefreshKind
from repro.caching.source import DataSource
from repro.data.merged import MODE_LOCKSTEP, MergedTimeline, merge_timelines
from repro.data.streams import ScheduleColumns, UpdateStream
from repro.intervals.interval import UNBOUNDED
from repro.queries.aggregates import AggregateKind
from repro.queries.refresh_selection import (
    run_query_refreshes,
    select_sum_refreshes_columnar,
)
from repro.sharding.coordinator import ShardedCacheCoordinator
from repro.simulation.config import SimulationConfig
from repro.simulation.kernel import run_batch_kernel
from repro.simulation.metrics import MetricsCollector, SimulationResult
from repro.simulation.network import NetworkModel

#: Minimum query fan-out for the vectorised query path: below this the
#: scalar screen in :func:`select_sum_refreshes` beats numpy's per-call
#: overhead, so small queries keep the object path (results are identical
#: either way — this is purely a crossover heuristic).
_COLUMNAR_QUERY_MIN_KEYS = 32

#: Escape-rate bailout: after this many lockstep positions the columnar walk
#: compares its value-initiated escape count against
#: ``sources x positions x RATE`` and, when the workload turns out
#: escape-heavy (tight adaptive bounds refresh on a third of all updates in
#: the paper's regime), reconciles the object world once and finishes the run
#: on the plain per-source walk — results are bit-identical either way, the
#: switch is purely a cost model.  Below the rate the schedule-driven walk
#: wins because most instants cost one integer comparison; above it every
#: escape pays a reschedule scan that repeats the comparisons the object walk
#: would have done anyway.  Query-initiated refreshes are not counted: a cold
#: cache's initial publication burst says nothing about the escape rate.
_COLUMNAR_PROBE_POSITIONS = 16
_COLUMNAR_BAILOUT_RATE = 0.02


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
        # ``shards == 1`` keeps the paper's single cache on the exact code
        # path the seeded figure tables were produced with; larger counts
        # front the run with the hash-partitioned coordinator, which exposes
        # the same get/put/invalidate surface.  The factory hands every shard
        # the same policy instance so a single-instance override behaves as
        # it does in the single-cache constructor.  Runs stay deterministic
        # either way, but a stateful policy (RandomEviction's RNG) is then
        # shared across shards; callers needing per-shard-independent policy
        # state should build a ShardedCacheCoordinator directly with a
        # factory returning fresh instances.
        if config.shards > 1:
            self._cache = ShardedCacheCoordinator(
                shard_count=config.shards,
                capacity=config.cache_capacity,
                eviction_policy_factory=(
                    None if eviction_policy is None else (lambda index: eviction_policy)
                ),
            )
        else:
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
        # The struct-of-arrays mirror of the hot per-source state
        # (:mod:`repro.caching.columnar`); non-None only while a columnar
        # batch run is executing (the ``_col_*`` companions hold the
        # precomputed value/change columns and the escape schedule).
        self._mirror: Optional[ColumnarState] = None
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
    def cache(self):
        """The simulated cache (an :class:`ApproximateCache`, or a
        :class:`~repro.sharding.coordinator.ShardedCacheCoordinator` for
        ``config.shards > 1`` — both expose the same surface)."""
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
            shard_hit_rates=self._cache.shard_hit_rates(),
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
        # The columnar core vectorises the lockstep batch walk.  It is only
        # taken when every per-event observable it elides really is
        # unobservable: per-update interval samples and policy write
        # observers need the scalar walk, eviction-notifying policies couple
        # one key's refresh to other keys' publications (the precomputed
        # escape mask would be stale).  Everything else falls back to the
        # paper-exact object path — results are bit-identical either way.
        if (
            self._config.core == "columnar"
            and merged.mode == MODE_LOCKSTEP
            and not self._sampling
            and not self._policy_observes_writes
            and not self._notify_on_eviction
        ):
            return self._execute_columnar(merged)
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
    # Columnar core (struct-of-arrays hot path; bit-identical results)
    # ------------------------------------------------------------------
    def _execute_columnar(self, merged: MergedTimeline) -> int:
        """Run the batch kernel with the columnar update/query handlers.

        The whole lockstep value matrix is known up front, so instead of
        screening every grid instant the columnar core turns bound
        maintenance into an *event schedule*: per-source change masks and
        cumulative change counts are precomputed with vector ops, and a
        ``next escape`` position per source (the first changed value outside
        its published bound) is maintained by chunked vectorised scans of the
        value columns whenever a publication changes.  The per-instant
        handler then reduces to one integer comparison; the rare events that
        need per-object semantics (escape refreshes, query-initiated
        refreshes) drop to the scalar refresh body after syncing the touched
        source from the precomputed columns.  The object world is reconciled
        when the walk finishes — every source from the columns, and on the
        columnar query path every cache entry's ``last_access_time`` from the
        per-source last query time — so post-run inspection sees the same
        state an object run leaves behind.
        """
        config = self._config
        assert merged.times is not None and merged.columns is not None
        keys = merged.keys
        mirror = ColumnarState(keys, self._sources)
        count = len(keys)
        columns = np.array(merged.columns, dtype=np.float64)
        columns = columns.reshape(count, -1)
        steps = columns.shape[1]
        initial_values = mirror.values.copy()
        changed = np.empty((count, steps), dtype=bool)
        if steps:
            np.not_equal(columns[:, 0], initial_values, out=changed[:, 0])
            if steps > 1:
                np.not_equal(columns[:, 1:], columns[:, :-1], out=changed[:, 1:])
        self._mirror = mirror
        self._col_columns = columns
        self._col_changed = changed
        self._col_cum_changes = np.cumsum(changed, axis=1, dtype=np.int64)
        # Per-source change-position arrays are only needed when a source is
        # synced back into the object world, so they materialise lazily.
        self._col_change_positions: List[Optional[np.ndarray]] = [None] * count
        self._col_value_lists = merged.columns
        self._col_initial_values = initial_values
        self._col_times = merged.times
        self._col_initial_update_count = [
            self._sources[key].update_count for key in keys
        ]
        self._col_steps = steps
        # The escape schedule: a lazy-invalidation heap of
        # ``(position, source index)`` over the per-source next-escape
        # positions (``steps`` = never).  No source has published yet
        # (sources are built fresh per run), so nothing can escape until a
        # first query-initiated publication schedules it.
        self._col_next_escape = [steps] * count
        self._col_escape_heap: List[Tuple[int, int]] = []
        self._col_position = -1
        self._col_count = count
        self._col_escapes = 0
        self._col_bailed = False
        self._col_apply_instant = self._lockstep_instants(merged)
        # Vectorised query handling additionally requires that the workload
        # lookups and refresh selection are reproducible from the mirror
        # alone: a single unbounded cache (membership == source publication,
        # no access-time-sensitive eviction index), no per-read policy
        # observers — and enough keys per query for the array path to beat
        # the scalar screen (numpy per-call overhead dominates tiny queries).
        columnar_queries = (
            config.shards == 1
            and config.cache_capacity is None
            and not self._policy_observes_reads
            and self._workload.query_size >= _COLUMNAR_QUERY_MIN_KEYS
        )
        self._col_queries = columnar_queries
        # The columnar query path counts hits without touching the cache
        # entries; it records when each source was last queried instead.
        self._col_last_query = np.full(count, -math.inf)
        handle_query = (
            self._run_query_columnar if columnar_queries else self._run_query
        )
        try:
            return run_batch_kernel(
                merged,
                duration=config.duration,
                query_period=config.query_period,
                handle_update=self._apply_one_update,
                handle_query=handle_query,
                handle_update_batch=self._columnar_update_batch,
            )
        finally:
            for index in range(count):
                self._col_sync_index(index)
            if columnar_queries:
                # An object run's lookup touches a hit entry, so its access
                # time ends as its last hit, or its (re)installation if that
                # came later.  A query that missed a key happened before the
                # key's first installation, so the later of the installation
                # and the last query time is exactly that.
                index_of = mirror.index_of
                last_query = self._col_last_query
                for entry in self._cache.entries():
                    queried = float(last_query[index_of[entry.key]])
                    if queried > entry.last_access_time:
                        entry.last_access_time = queried
            self._mirror = None
            self._col_columns = None
            self._col_changed = None
            self._col_cum_changes = None
            self._col_change_positions = None
            self._col_value_lists = None
            self._col_initial_values = None
            self._col_times = None
            self._col_last_query = None
            self._col_apply_instant = None

    def _columnar_update_batch(self, time: float, position: int) -> None:
        """Advance one lockstep grid instant on the columnar schedule.

        Replicates ``_apply_updates`` semantics: in-bound changes only
        advance per-source counters (already precomputed, so they cost
        nothing here), and the scheduled escapes at this instant take the
        scalar value-initiated refresh in source order.  A refresh reads and
        writes only its own key's state (eviction-notifying policies, the one
        coupling, are excluded from the columnar core), so keys that do not
        escape need no per-instant work at all.  The lockstep grid is
        non-decreasing, so the object path's time-order guard cannot fire.

        After the probe window an escape-heavy run bails out to the object
        walk (see ``_COLUMNAR_PROBE_POSITIONS``): the mirror keeps echoing
        publications for the query path, but each instant's updates go
        through one ``_apply_updates`` call again.
        """
        if self._col_bailed:
            self._col_apply_instant(time, position)
            return
        if position == _COLUMNAR_PROBE_POSITIONS and (
            self._col_escapes
            >= self._col_count * position * _COLUMNAR_BAILOUT_RATE
        ):
            self._col_bail(time, position)
            return
        self._col_position = position
        heap = self._col_escape_heap
        if not heap or heap[0][0] != position:
            return
        next_escape = self._col_next_escape
        pending = []
        while heap and heap[0][0] == position:
            _, index = heapq.heappop(heap)
            # Lazy invalidation: a reschedule leaves the old tuple behind,
            # and may land on the same position again — marking the slot
            # claimed (-1) dedupes both cases.
            if next_escape[index] == position:
                next_escape[index] = -1
                pending.append(index)
        self._col_escapes += len(pending)
        keys = self._mirror.keys
        refresh = self._refresh
        for index in pending:  # heap pops (position, index) → source order
            refresh(keys[index], time, False)

    def _col_bail(self, time: float, position: int) -> None:
        """Hand an escape-heavy run back to the object walk mid-run.

        Reconciles every source at the last applied position, disarms the
        sync/reschedule machinery (``_col_position = -1`` makes the sync
        hooks no-ops; the publication echo stays live for the columnar query
        path), then applies ``position`` itself the object way.
        """
        for index in range(self._col_count):
            self._col_sync_index(index)
        self._col_position = -1
        self._col_bailed = True
        self._col_escape_heap.clear()
        if not self._col_queries:
            # Only the columnar query path reads the mirror once the walk is
            # object-driven; dropping it here disarms the publication echo in
            # ``_refresh`` too.
            self._mirror = None
        self._col_apply_instant(time, position)

    def _col_sync_index(self, index: int) -> None:
        """Flush one source's precomputed update state into its object.

        The columnar walk never touches ``DataSource`` objects per update;
        the current value, update count and last update time are functions of
        the walk position, reconstructed here right before a scalar path (a
        refresh, or end-of-run reconciliation) observes the object.
        """
        position = self._col_position
        if position < 0:
            return
        source = self._sources[self._mirror.keys[index]]
        source.value = float(self._col_value_lists[index][position])
        changes = int(self._col_cum_changes[index, position])
        source.update_count = self._col_initial_update_count[index] + changes
        if changes:
            positions = self._col_change_positions[index]
            if positions is None:
                positions = np.nonzero(self._col_changed[index])[0]
                self._col_change_positions[index] = positions
            source.last_update_time = self._col_times[int(positions[changes - 1])]

    #: Escape scans check this many positions with a plain Python loop before
    #: dropping to vectorised chunk scans: the next escape is typically a few
    #: steps ahead, where list iteration beats numpy's per-call overhead.
    _COL_SCAN_PYTHON_LIMIT = 24

    def _col_reschedule_escape(self, index: int, low: float, high: float) -> None:
        """Recompute ``index``'s next escape position under a new bound.

        Finds the first *changed* value outside ``[low, high]`` after the
        current position — unchanged re-reports never trigger the object
        path's validity test, so they must not schedule an escape either.
        The scan is hybrid: a short Python walk for the common nearby escape,
        then doubling vectorised chunks over the precomputed change mask for
        far (or never) escapes.
        """
        start = self._col_position + 1
        values = self._col_value_lists[index]
        steps = self._col_steps
        position = steps
        previous = values[start - 1] if start > 0 else self._col_initial_values[index]
        limit = start + self._COL_SCAN_PYTHON_LIMIT
        if limit > steps:
            limit = steps
        probe = start
        while probe < limit:
            value = values[probe]
            if value != previous and not (low <= value <= high):
                position = probe
                break
            previous = value
            probe += 1
        else:
            if probe < steps:
                column = self._col_columns[index]
                changed = self._col_changed[index]
                chunk = 256
                while probe < steps:
                    end = probe + chunk
                    if end > steps:
                        end = steps
                    segment = column[probe:end]
                    mask = (segment < low) | (segment > high)
                    mask &= changed[probe:end]
                    hit = int(mask.argmax())
                    if mask[hit]:
                        position = probe + hit
                        break
                    probe = end
                    chunk <<= 1
        self._col_next_escape[index] = position
        if position < steps:
            heapq.heappush(self._col_escape_heap, (position, index))

    def _run_query_columnar(self, time: float) -> None:
        """``_run_query`` driven from the mirror instead of the cache.

        With a single unbounded cache, membership equals the published flag
        and lookups cannot affect eviction state, so the hit/miss counters
        are bulk-applied and SUM/AVG refresh selection runs straight over the
        width array; MAX/MIN queries rebuild their interval mapping from the
        mirror (bit-equal endpoints) and reuse the iterative selector.  The
        entries' access times are not touched per lookup: the query time is
        recorded per queried source, and the run's end writes it back.
        """
        query = self._workload.generate(time)
        self._metrics.record_query(time)
        mirror = self._mirror
        index_of = mirror.index_of
        indices = [index_of[key] for key in query.keys]
        self._col_last_query[indices] = time
        published = mirror.published[indices]
        hits = int(published.sum())
        statistics = self._cache.statistics
        statistics.hits += hits
        statistics.misses += len(indices) - hits
        constraint = query.constraint
        if math.isinf(constraint):
            return
        kind = query.kind
        if kind is AggregateKind.SUM or kind is AggregateKind.AVG:
            widths = np.where(published, mirror.width[indices], math.inf)
            # AVG is SUM scaled by 1/n (see run_query_refreshes).
            limit = (
                constraint * len(indices)
                if kind is AggregateKind.AVG
                else constraint
            )
            for key in select_sum_refreshes_columnar(query.keys, widths, limit):
                self._refresh(key, time, True)
            return
        intervals = {
            key: mirror.interval_at(index)
            for key, index in zip(query.keys, indices)
        }

        def fetch_exact(key: Hashable) -> float:
            return self._refresh(key, time, True)

        run_query_refreshes(kind, intervals, constraint, fetch_exact)

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
        query = self._workload.generate(time)
        self._metrics.record_query(time)
        cache_get = self._cache_get
        constraint = query.constraint
        intervals = {}
        if self._policy_observes_reads:
            record_read = self._policy.record_read
            record_constraint = self._policy.record_constraint
            for key in query.keys:
                # The workload lookup — the only cache access that counts
                # toward the hit rate.  Any bookkeeping or post-run
                # inspection of the cache must pass ``record_stats=False``.
                entry = cache_get(key, time)
                intervals[key] = entry.interval if entry is not None else UNBOUNDED
                record_read(key, time, served_from_cache=entry is not None)
                record_constraint(key, constraint, time)
        else:
            for key in query.keys:
                # The workload lookup (see above): the only stats-counted get.
                entry = cache_get(key, time)
                intervals[key] = entry.interval if entry is not None else UNBOUNDED
        if math.isinf(constraint):
            # An unconstrained query never refreshes; skip the closure and
            # dispatch (run_query_refreshes would return immediately anyway).
            return

        def fetch_exact(key: Hashable) -> float:
            return self._refresh(key, time, True)

        run_query_refreshes(query.kind, intervals, constraint, fetch_exact)

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
        mirror = self._mirror
        if mirror is not None:
            # Columnar runs accumulate updates in the precomputed columns;
            # flush them to the object before the policy reads
            # ``source.value``.
            index = mirror.index_of[key]
            self._col_sync_index(index)
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
            if mirror is not None:
                # Echo the publication into the columnar mirror and
                # reschedule the key's escape scan under the new bound.  The
                # other publication mutations (invalidate, eviction
                # notification) only happen under eviction-notifying
                # policies, which the columnar core excludes, so this is the
                # only echo needed.
                mirror.publish(index, interval, original_width, time)
                if not self._col_bailed:
                    self._col_reschedule_escape(index, interval.low, interval.high)
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
