"""The WJH97 adaptive exact-caching baseline (Section 4.6).

Wolfson, Jajodia and Huang's adaptive data replication algorithm decides, per
value, whether to keep an exact replica at the cache.  As summarised in the
paper: the number of reads ``r`` and writes ``w`` of each value are counted,
and whenever ``r + w >= x`` the caching decision is re-evaluated by comparing
the projected cost of *not* caching (``C_nc = r * C_qr``, every read goes
remote) against the projected cost of caching (``C_c = w * C_vr``, every write
must be propagated).  The value is cached iff ``C_c < C_nc``.  When the cache
is space-constrained, the values with the lowest benefit ``C_nc - C_c`` are
evicted and the source is notified.

In interval terms the decision is binary: width 0 (exact replica) or width
infinity (not cached), which is exactly how the paper frames its subsumption
argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable

from repro.caching.policies.base import PrecisionDecision, PrecisionPolicy
from repro.core.checks import at_least, positive
from repro.intervals.interval import UNBOUNDED, Interval


@dataclass
class _ValueStatistics:
    """Per-value read/write counters between re-evaluations."""

    reads: int = 0
    writes: int = 0
    cached: bool = True

    @property
    def accesses(self) -> int:
        return self.reads + self.writes


class ExactCachingPolicy(PrecisionPolicy):
    """WJH97-style adaptive replication expressed as a precision policy.

    Parameters
    ----------
    value_refresh_cost:
        ``C_vr`` — cost of propagating a write to the cached replica.
    query_refresh_cost:
        ``C_qr`` — cost of a remote read when the value is not cached.
    reevaluation_window:
        The parameter ``x``: the caching decision for a value is revisited
        every time its combined read+write count since the last decision
        reaches this window.  The paper tunes ``x`` between 3 and 45 per run
        and reports the best; the experiments in this reproduction do the
        same sweep.
    cache_initially:
        Whether values start out replicated before any statistics exist.
    """

    def __init__(
        self,
        value_refresh_cost: float = 1.0,
        query_refresh_cost: float = 2.0,
        reevaluation_window: int = 20,
        cache_initially: bool = True,
    ) -> None:
        self._c_vr = positive("value_refresh_cost", value_refresh_cost, finite=True)
        self._c_qr = positive("query_refresh_cost", query_refresh_cost, finite=True)
        at_least("reevaluation_window (x)", reevaluation_window, 1, finite=True)
        self._window = reevaluation_window
        self._cache_initially = cache_initially
        self._stats: Dict[Hashable, _ValueStatistics] = {}

    # ------------------------------------------------------------------
    # Statistics and decision logic
    # ------------------------------------------------------------------
    def _statistics(self, key: Hashable) -> _ValueStatistics:
        stats = self._stats.get(key)
        if stats is None:
            stats = _ValueStatistics(cached=self._cache_initially)
            self._stats[key] = stats
        return stats

    def is_cached(self, key: Hashable) -> bool:
        """Current replication decision for ``key``."""
        return self._statistics(key).cached

    def benefit(self, key: Hashable) -> float:
        """Projected benefit of caching ``key``: ``C_nc - C_c`` so far.

        Used as the eviction score when the cache is space-constrained — the
        lowest-benefit values are evicted first.
        """
        stats = self._statistics(key)
        return stats.reads * self._c_qr - stats.writes * self._c_vr

    def _maybe_reevaluate(self, key: Hashable) -> None:
        stats = self._statistics(key)
        if stats.accesses < self._window:
            return
        cost_not_caching = stats.reads * self._c_qr
        cost_caching = stats.writes * self._c_vr
        stats.cached = cost_caching < cost_not_caching
        stats.reads = 0
        stats.writes = 0

    # ------------------------------------------------------------------
    # Workload observations
    # ------------------------------------------------------------------
    def record_write(self, key: Hashable, time: float) -> None:
        stats = self._statistics(key)
        stats.writes += 1
        self._maybe_reevaluate(key)

    def record_read(self, key: Hashable, time: float, served_from_cache: bool) -> None:
        stats = self._statistics(key)
        stats.reads += 1
        self._maybe_reevaluate(key)

    # ------------------------------------------------------------------
    # Refresh decisions
    # ------------------------------------------------------------------
    def on_value_initiated_refresh(
        self, key: Hashable, exact_value: float, time: float
    ) -> PrecisionDecision:
        return self._decision(key, exact_value)

    def on_query_initiated_refresh(
        self, key: Hashable, exact_value: float, time: float
    ) -> PrecisionDecision:
        return self._decision(key, exact_value)

    def _decision(self, key: Hashable, exact_value: float) -> PrecisionDecision:
        if self._statistics(key).cached:
            return PrecisionDecision(
                interval=Interval.exact(exact_value), original_width=0.0
            )
        return PrecisionDecision(interval=UNBOUNDED, original_width=float("inf"))

    # ------------------------------------------------------------------
    # Protocol properties
    # ------------------------------------------------------------------
    def notifies_source_on_eviction(self) -> bool:
        return True

    def describe(self) -> str:
        return (
            f"ExactCachingPolicy(x={self._window}, C_vr={self._c_vr:g}, "
            f"C_qr={self._c_qr:g})"
        )
