"""Stale-value approximations (Divergence Caching emulation, Section 4.7).

In Divergence Caching [HSW94] the precision of a cached copy is inversely
proportional to the number of updates applied at the source that are *not*
reflected in the cached copy, independent of the updates' magnitudes.  The
paper's Section 4.7 shows that the adaptive precision-setting algorithm can be
specialised to this setting by bounding the *number of updates* with a numeric
interval.  :class:`StalenessBound` is that specialisation: a snapshot value
plus an allowance of unreflected updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.checks import at_least, finite, non_negative
from repro.intervals.interval import Interval


@dataclass(frozen=True)
class StalenessBound:
    """A cached snapshot allowed to lag the source by a bounded update count.

    Parameters
    ----------
    snapshot:
        The exact value observed at refresh time.
    refresh_update_count:
        The source's cumulative update counter at refresh time.
    allowance:
        Maximum number of subsequent source updates for which the snapshot is
        still considered a valid approximation.  ``0`` means the copy must be
        exact (invalidated by any update); ``math.inf`` means the copy never
        expires (equivalent to not caching from a precision standpoint).
    """

    snapshot: float
    refresh_update_count: int
    allowance: float

    def __post_init__(self) -> None:
        finite("snapshot", self.snapshot)
        non_negative("allowance", self.allowance, finite=False)
        at_least("refresh_update_count", self.refresh_update_count, 0, finite=True)

    @property
    def width(self) -> float:
        """The divergence width — the update allowance itself."""
        return self.allowance

    @property
    def precision(self) -> float:
        """Reciprocal of the allowance (``inf`` for an exact copy)."""
        if self.allowance == 0:
            return math.inf
        return 1.0 / self.allowance

    def staleness(self, current_update_count: int) -> int:
        """Number of source updates not reflected in the snapshot."""
        if current_update_count < self.refresh_update_count:
            raise ValueError(
                "current update count cannot precede the refresh update count"
            )
        return current_update_count - self.refresh_update_count

    def is_valid(self, current_update_count: int) -> bool:
        """True while the unreflected update count stays within the allowance."""
        return self.staleness(current_update_count) <= self.allowance

    def meets_constraint(self, max_staleness: float) -> bool:
        """True when the allowance satisfies a query's staleness constraint."""
        if not max_staleness >= 0:
            raise ValueError("staleness constraint must be non-negative")
        return self.allowance <= max_staleness

    def as_interval(self) -> Interval:
        """View the bound as a one-sided interval over the update counter.

        This is the representation the paper uses when specialising the
        interval algorithm to stale-value approximations: the counter is
        bounded by ``[count_at_refresh, count_at_refresh + allowance]``.
        """
        return Interval.above(float(self.refresh_update_count), self.allowance)
