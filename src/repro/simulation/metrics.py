"""Metric collection with warm-up exclusion.

Every experiment in the paper reports the average cost per time unit ``Omega``
measured *after an initial warm-up period* so that transient start-up effects
(the empty cache, unconverged widths) do not pollute the steady-state
numbers.  The refresh counts and cost come from the run's
:class:`~repro.simulation.network.NetworkModel`, whose counters the cache
core restarts at the end of the warm-up; :class:`MetricsCollector` counts
the post-warm-up queries, builds the result, and optionally keeps time
series used by the Figure 4/5 style plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional

from repro.core.checks import non_negative
from repro.intervals.interval import Interval
from repro.simulation.network import NetworkModel


@dataclass(frozen=True)
class IntervalSample:
    """One (time, exact value, cached interval) sample for a tracked key."""

    time: float
    value: float
    interval: Optional[Interval]


@dataclass
class SimulationResult:
    """Aggregate outcome of one simulation run (post warm-up).

    Attributes
    ----------
    cost_rate:
        Average cost per time unit — the paper's ``Omega``.
    duration:
        Length of the measured (post warm-up) period.
    value_refresh_count / query_refresh_count:
        Refresh counts of each kind during the measured period.
    value_refresh_rate / query_refresh_rate:
        Refreshes of each kind per time unit — the measured ``P_vr`` / ``P_qr``
        of Figure 3 (per time step, since updates arrive once per second).
    total_cost:
        Total cost accumulated during the measured period.
    query_count:
        Number of queries executed during the measured period.
    interval_samples:
        Optional time series of exact value and cached interval for tracked
        keys (Figures 4 and 5).
    final_widths:
        The unclamped width of each value's controller at the end of the run,
        where the policy exposes one (used for convergence diagnostics).
    events_processed:
        Total simulation events executed by the batch kernel over the whole
        run (including warm-up) — the deterministic event-throughput
        numerator.
    """

    cost_rate: float
    duration: float
    value_refresh_count: int
    query_refresh_count: int
    value_refresh_rate: float
    query_refresh_rate: float
    total_cost: float
    query_count: int
    interval_samples: Dict[Hashable, List[IntervalSample]] = field(default_factory=dict)
    final_widths: Dict[Hashable, float] = field(default_factory=dict)
    cache_hit_rate: float = 0.0
    events_processed: int = 0

    @property
    def refresh_count(self) -> int:
        """Total refreshes of both kinds in the measured period."""
        return self.value_refresh_count + self.query_refresh_count

    def publish(self, registry=None) -> None:
        """Publish this result's headline numbers into a metrics registry.

        Gauges under ``repro_sim_*`` — a finished run is a point-in-time
        outcome, not a running total — so an offline simulation driven by
        the CLI is scrapeable/pretty-printable through the same ``repro
        obs`` surface as a live deployment.  With the registry disabled
        (the default) this is a no-op.
        """
        from repro.obs.metrics import REGISTRY

        registry = REGISTRY if registry is None else registry
        for name, help_text, value in (
            ("repro_sim_cost_rate", "Average cost per time unit (Omega).", self.cost_rate),
            ("repro_sim_duration", "Measured (post warm-up) duration.", self.duration),
            ("repro_sim_total_cost", "Total cost over the measured period.", self.total_cost),
            ("repro_sim_value_refreshes", "Value-initiated refreshes measured.", self.value_refresh_count),
            ("repro_sim_query_refreshes", "Query-initiated refreshes measured.", self.query_refresh_count),
            ("repro_sim_queries", "Queries executed in the measured period.", self.query_count),
            ("repro_sim_cache_hit_rate", "Workload cache hit rate.", self.cache_hit_rate),
            ("repro_sim_events_processed", "Simulation events executed overall.", self.events_processed),
        ):
            registry.gauge(name, help_text).set(float(value))


class MetricsCollector:
    """Counts the post-warm-up queries and builds a run's result.

    Parameters
    ----------
    warmup:
        Length of the initial period excluded from the result.
    track_keys:
        Keys whose (value, interval) evolution should be sampled after every
        change, for the time-series figures.
    """

    def __init__(
        self,
        warmup: float = 0.0,
        track_keys: Optional[List[Hashable]] = None,
    ) -> None:
        non_negative("warmup", warmup, finite=True)
        self._warmup = warmup
        self._query_count = 0
        self._interval_samples: Dict[Hashable, List[IntervalSample]] = {
            key: [] for key in (track_keys or [])
        }

    @property
    def warmup(self) -> float:
        """The configured warm-up length."""
        return self._warmup

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_query(self, time: float) -> None:
        """Count one executed query (ignored during warm-up)."""
        if time < self._warmup:
            return
        self._query_count += 1

    def record_interval_sample(
        self, key: Hashable, time: float, value: float, interval: Optional[Interval]
    ) -> None:
        """Record a (value, interval) sample for a tracked key.

        Samples are kept for the whole run (including warm-up) because the
        time-series figures intentionally show transient behaviour.
        """
        if key not in self._interval_samples:
            return
        self._interval_samples[key].append(
            IntervalSample(time=time, value=value, interval=interval)
        )

    # ------------------------------------------------------------------
    # Finalisation
    # ------------------------------------------------------------------
    def finalize(
        self,
        end_time: float,
        network: NetworkModel,
        final_widths: Optional[Dict[Hashable, float]] = None,
        cache_hit_rate: float = 0.0,
        events_processed: int = 0,
    ) -> SimulationResult:
        """Build the :class:`SimulationResult` for a run ending at ``end_time``.

        ``network`` is the run's network model, whose counters hold the
        post-warm-up refresh counts and cost.
        """
        if not end_time > self._warmup:
            raise ValueError("end_time must exceed the warm-up period")
        duration = end_time - self._warmup
        return SimulationResult(
            cost_rate=network.total_cost / duration,
            duration=duration,
            value_refresh_count=network.value_refreshes,
            query_refresh_count=network.query_refreshes,
            value_refresh_rate=network.value_refreshes / duration,
            query_refresh_rate=network.query_refreshes / duration,
            total_cost=network.total_cost,
            query_count=self._query_count,
            interval_samples={
                key: list(samples) for key, samples in self._interval_samples.items()
            },
            final_widths=dict(final_widths or {}),
            cache_hit_rate=cache_hit_rate,
            events_processed=events_processed,
        )
