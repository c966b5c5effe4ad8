"""Strategies for placing a refreshed interval around an exact value.

When a source refreshes a cache (either because the value escaped its
interval, or because a query requested the exact value) it must choose the
*placement* of the new interval relative to the current exact value.  The
paper's default is a centred placement (Section 2); Section 4.5 also explores
uncentered placements and intervals whose endpoints grow with time, and the
Divergence Caching emulation of Section 4.7 uses one-sided intervals over a
monotone update counter.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.core.checks import finite, non_negative, positive, probability
from repro.intervals.interval import UNBOUNDED, Interval


class IntervalPlacement(ABC):
    """Abstract strategy mapping ``(exact value, width)`` to an interval."""

    @abstractmethod
    def place(self, value: float, width: float) -> Interval:
        """Return a new interval of total ``width`` that contains ``value``."""

    def describe(self) -> str:
        """Return a short human-readable name for reports."""
        return type(self).__name__


@dataclass(frozen=True)
class CenteredPlacement(IntervalPlacement):
    """The paper's default: the interval is centred on the exact value."""

    # ``place`` *is* ``Interval.centered``: every refresh places an interval,
    # and binding the constructor directly saves a call frame per refresh.
    place = staticmethod(Interval.centered)


@dataclass(frozen=True)
class OneSidedPlacement(IntervalPlacement):
    """One-sided placement ``[value, value + width]``.

    Used for monotone non-decreasing quantities, notably the update counters
    of stale-value approximations in the Divergence Caching comparison
    (Section 4.7), where the exact value can only move upward.
    """

    def place(self, value: float, width: float) -> Interval:
        return Interval.above(value, width)


@dataclass(frozen=True)
class UncenteredPlacement(IntervalPlacement):
    """Asymmetric placement splitting the width into lower and upper parts.

    ``upper_fraction`` of the width is placed above the exact value and the
    remainder below it.  With ``upper_fraction = 0.5`` this degenerates to
    :class:`CenteredPlacement`.  Section 4.5 reports that uncentered intervals
    only help for biased random walks.
    """

    upper_fraction: float = 0.5

    def __post_init__(self) -> None:
        probability("upper_fraction", self.upper_fraction)

    def place(self, value: float, width: float) -> Interval:
        if not width >= 0:
            raise ValueError(f"width must be non-negative, got {width}")
        if math.isinf(width):
            return UNBOUNDED
        upper = width * self.upper_fraction
        lower = width - upper
        return Interval(value - lower, value + upper)


@dataclass(frozen=True)
class LinearGrowthPlacement(IntervalPlacement):
    """Placement for time-varying intervals with linearly drifting endpoints.

    Section 4.5 considers intervals ``[L(t), H(t)]`` whose endpoints grow
    linearly with time at rate ``drift_rate`` (useful only for biased walks).
    The simulator evaluates time-varying intervals by widening/shifting the
    placed interval as time advances; this class captures the placement at
    refresh time, with :meth:`at_elapsed` producing the interval after a given
    elapsed time.
    """

    drift_rate: float = 0.0

    def __post_init__(self) -> None:
        finite("drift_rate", self.drift_rate)

    def place(self, value: float, width: float) -> Interval:
        return Interval.centered(value, width)

    def at_elapsed(self, base: Interval, elapsed: float) -> Interval:
        """Return the interval ``base`` drifted by ``elapsed`` time units."""
        if not elapsed >= 0:
            raise ValueError("elapsed time must be non-negative")
        if base.is_unbounded:
            return base
        offset = self.drift_rate * elapsed
        return base.shift(offset)


@dataclass(frozen=True)
class PowerGrowthPlacement(IntervalPlacement):
    """Time-varying placement whose width grows like ``t ** exponent``.

    Section 4.5 evaluates exponents 1/2 and 1/3 and finds them unhelpful for
    both the network trace and unbiased random walks; the class exists so the
    ablation experiments can reproduce that negative result.
    """

    exponent: float = 0.5
    growth_scale: float = 1.0

    def __post_init__(self) -> None:
        positive("exponent", self.exponent, finite=True)
        non_negative("growth_scale", self.growth_scale, finite=True)

    def place(self, value: float, width: float) -> Interval:
        return Interval.centered(value, width)

    def at_elapsed(self, base: Interval, elapsed: float) -> Interval:
        """Return ``base`` symmetrically widened after ``elapsed`` time units."""
        if not elapsed >= 0:
            raise ValueError("elapsed time must be non-negative")
        if base.is_unbounded:
            return base
        extra = self.growth_scale * (elapsed ** self.exponent)
        return Interval(base.low - extra, base.high + extra)
