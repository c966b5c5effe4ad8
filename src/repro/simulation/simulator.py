"""The approximate-caching simulator (Section 4.1).

:class:`CacheSimulation` wires together the substrates: per-source update
streams drive the :class:`~repro.caching.core.CacheCore`, whose precision
policy decides the approximation sent on every refresh and whose
:class:`~repro.caching.cache.ApproximateCache` stores the approximations (with
widest-first eviction when space-constrained), and a
:class:`~repro.queries.workload.QueryWorkload` issues bounded aggregates every
``T_q`` seconds whose unmet precision constraints trigger query-initiated
refreshes.  Costs are charged through a
:class:`~repro.simulation.network.NetworkModel`, whose counters restart at
the end of the warm-up, and a :class:`~repro.simulation.metrics.MetricsCollector`
builds the result from them.

The run's state lives in the core alone; the simulator only feeds it events
in order.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Dict, Hashable, Mapping, Optional

from repro.caching.cache import ApproximateCache
from repro.caching.core import CacheCore
from repro.caching.eviction import EvictionPolicy
from repro.caching.policies.base import PrecisionPolicy
from repro.caching.source import DataSource
from repro.data.merged import MODE_LOCKSTEP, merge_timelines
from repro.data.streams import ScheduleColumns, UpdateStream
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
        self._metrics = MetricsCollector(
            warmup=config.warmup, track_keys=list(config.track_keys)
        )
        # The simulator's differences from the server: the network model
        # counts refreshes from the end of the warm-up, and interval samples
        # are only collected for tracked keys.
        self._core = CacheCore(
            policy,
            ApproximateCache(
                capacity=config.cache_capacity, eviction_policy=eviction_policy
            ),
            NetworkModel(
                value_refresh_cost=config.value_refresh_cost,
                query_refresh_cost=config.query_refresh_cost,
            ),
            count_from=config.warmup,
            sample=self._metrics.record_interval_sample if config.track_keys else None,
        )
        # Pre-materialised per-source update timelines: every stream's whole
        # schedule is drawn up-front (one batch call per stream) as
        # ``(times, values)`` columns, which the batch kernel indexes
        # directly.  Streams draw from per-stream randomness, so batching
        # does not change the values.
        self._columns: Dict[Hashable, ScheduleColumns] = {}
        for key, stream in streams.items():
            self._core.register(key, stream.initial_value)
            self._columns[key] = stream.schedule(config.duration)
        self._workload = config.build_workload(list(streams.keys()))
        # Each query is read straight off the workload as ``(keys, kind,
        # constraint)``; a sweep's runs share its draws (see
        # ``SimulationConfig.build_workload``).
        self._next_query = self._workload.next_query
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
        return self._core.cache

    @property
    def sources(self) -> Dict[Hashable, DataSource]:
        """The simulated sources, keyed by value id."""
        return self._core.sources

    @property
    def policy(self) -> PrecisionPolicy:
        """The precision policy under test."""
        return self._core.policy

    @property
    def network(self) -> NetworkModel:
        """The cost/message model used for charging refreshes.

        After the run its counters cover only the post-warm-up period: they
        restart at the first refresh at or after the warm-up end, and a run
        with none there ends with them at zero.
        """
        return self._core.network

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Execute the run and return its post-warm-up metrics."""
        if self._ran:
            raise RuntimeError("a CacheSimulation instance can only be run once")
        self._ran = True
        processed = self._execute()
        # A run with no refresh after the warm-up starts its count, empty, here.
        self._core.start_count()
        return self._metrics.finalize(
            end_time=self._config.duration,
            network=self._core.network,
            final_widths=self._collect_final_widths(),
            cache_hit_rate=self._core.cache.statistics.hit_rate,
            events_processed=processed,
        )

    def _execute(self) -> int:
        """Replay the run's events on the batch kernel; returns events executed.

        Every walk applies updates through the core's ``apply_updates`` and
        queries through ``_run_query``, in event order: a lockstep walk
        hands ``apply_updates`` every source of one grid instant at once, a
        dynamic walk one update at a time.
        """
        merged = merge_timelines(self._columns)
        instant_handler = None
        if merged.mode == MODE_LOCKSTEP:
            # Every source shares the grid, so one call per instant takes all
            # of them, in merged key order (the kernel's fan-out order).
            sources = self._core.sources
            updates = [
                (sources[key], column)
                for key, column in zip(merged.keys, merged.columns)
            ]
            instant_handler = partial(self._core.apply_updates, updates)
        return run_batch_kernel(
            merged,
            duration=self._config.duration,
            query_period=self._config.query_period,
            handle_update=self._apply_one_update,
            handle_query=self._run_query,
            handle_update_batch=instant_handler,
        )

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _apply_one_update(self, key: Hashable, time: float, payload: float) -> None:
        """One update event of a dynamic walk."""
        self._core.apply_updates(((self._core.sources[key], (payload,)),), time)

    def _run_query(self, time: float) -> None:
        keys, kind, constraint = self._next_query()
        self._metrics.record_query(time)
        intervals, _ = self._core.snapshot(keys, constraint, time)
        if math.isinf(constraint):
            # An unconstrained query never refreshes; skip the closure and
            # dispatch (run_query_refreshes would return immediately anyway).
            return
        refresh = self._core.refresh

        def fetch_exact(key: Hashable) -> float:
            return refresh(key, time, True)

        run_query_refreshes(kind, intervals, constraint, fetch_exact)

    def _collect_final_widths(self) -> Dict[Hashable, float]:
        current_width = getattr(self.policy, "current_width", None)
        if current_width is None:
            return {}
        tracked_keys = getattr(self.policy, "tracked_keys", None)
        keys = tracked_keys() if callable(tracked_keys) else list(self.sources)
        return {key: current_width(key) for key in keys}


def run_simulation(
    config: SimulationConfig,
    streams: Mapping[Hashable, UpdateStream],
    policy: PrecisionPolicy,
    eviction_policy: Optional[EvictionPolicy] = None,
) -> SimulationResult:
    """Convenience one-shot wrapper around :class:`CacheSimulation`."""
    return CacheSimulation(config, streams, policy, eviction_policy).run()
