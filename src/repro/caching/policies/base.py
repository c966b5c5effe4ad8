"""Interface shared by all precision policies.

A precision policy answers one question for the simulator: *when a refresh of
value ``key`` happens at time ``t`` with exact value ``v``, what approximation
should the source send to the cache?*  The answer is a
:class:`PrecisionDecision`, containing both the interval to install and the
original (unclamped) width the cache should use for eviction decisions.

Policies additionally observe reads and writes so that history-based baselines
(WJH97 exact caching, HSW94 divergence caching) can maintain their statistics.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Hashable

from repro.intervals.interval import Interval


class PrecisionDecision:
    """The approximation a policy chooses to publish on a refresh.

    A ``__slots__`` value object (policies build one per refresh).

    Parameters
    ----------
    interval:
        The approximation sent to the cache (already threshold-clamped and
        placed around the exact value).
    original_width:
        The policy's internal width before clamping; the cache evicts based on
        this value, per Section 2.
    """

    __slots__ = ("interval", "original_width")

    def __init__(self, interval: Interval, original_width: float) -> None:
        if not original_width >= 0:
            raise ValueError("original_width must be non-negative")
        self.interval = interval
        self.original_width = original_width

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PrecisionDecision(interval={self.interval!r}, "
            f"original_width={self.original_width!r})"
        )


class PrecisionPolicy(ABC):
    """Strategy deciding the precision of every refreshed approximation."""

    # ------------------------------------------------------------------
    # Refresh decisions
    # ------------------------------------------------------------------
    @abstractmethod
    def on_value_initiated_refresh(
        self, key: Hashable, exact_value: float, time: float
    ) -> PrecisionDecision:
        """Approximation to push after the value escaped its interval."""

    @abstractmethod
    def on_query_initiated_refresh(
        self, key: Hashable, exact_value: float, time: float
    ) -> PrecisionDecision:
        """Approximation to return alongside an exact value fetched by a query."""

    # ------------------------------------------------------------------
    # Workload observations (optional hooks)
    # ------------------------------------------------------------------
    def record_write(self, key: Hashable, time: float) -> None:
        """Observe an update to the source value (default: ignore)."""

    def record_read(self, key: Hashable, time: float, served_from_cache: bool) -> None:
        """Observe a query access to the value (default: ignore)."""

    def record_constraint(self, key: Hashable, constraint: float, time: float) -> None:
        """Observe the precision constraint of a query touching ``key``.

        Most policies ignore query constraints (the paper's algorithm learns
        purely from refreshes); the Divergence Caching baseline uses them to
        project the cost of candidate divergence allowances.
        """

    # ------------------------------------------------------------------
    # Protocol properties
    # ------------------------------------------------------------------
    def notifies_source_on_eviction(self) -> bool:
        """Whether cache evictions are reported back to the source.

        The paper's algorithm does not require eviction notifications; the
        WJH97 exact caching baseline does (evicted values stop being
        replicated, so writes to them stop incurring cost).
        """
        return False

    def describe(self) -> str:
        """Short human-readable policy name for reports."""
        return type(self).__name__
