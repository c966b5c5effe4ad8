"""The HSW94 Divergence Caching baseline (Section 4.7).

Divergence Caching approximates a value by a *stale copy* whose precision is
the number of source updates it is allowed to miss (its divergence
allowance).  Unlike the paper's incremental adaptation, the HSW94 algorithm
"continually resets the precision from scratch using detailed projections for
data access and update patterns", based on moving windows of the ``k`` most
recent reads (kept at the cache) and the ``k`` most recent writes (kept at the
source); the paper uses ``k = 23``.

The projection implemented here follows that description: estimate the read
and write rates from the windows, estimate the distribution of query
staleness constraints from recently observed constraints, and pick the
allowance ``d`` minimising the projected cost rate::

    cost(d) = C_vr * write_rate / (d + 1)          # invalidation pushes
            + C_qr * read_rate * P[constraint < d] # reads that must go remote

evaluated over the candidate allowances ``{0} ∪ {observed constraints} ∪
{infinity}`` (the projected cost is piecewise between observed constraints, so
the optimum always sits at one of these candidates).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Hashable

from repro.caching.policies.base import PrecisionDecision, PrecisionPolicy
from repro.core.checks import at_least, non_negative, positive
from repro.intervals.interval import Interval


@dataclass
class _AccessWindows:
    """Moving windows of recent reads, writes, and observed constraints."""

    read_times: Deque[float]
    write_times: Deque[float]
    constraints: Deque[float]

    @classmethod
    def with_size(cls, window_size: int) -> "_AccessWindows":
        return cls(
            read_times=deque(maxlen=window_size),
            write_times=deque(maxlen=window_size),
            constraints=deque(maxlen=window_size),
        )


def _rate(times: Deque[float], now: float) -> float:
    """Events per time unit implied by a window of event timestamps."""
    if len(times) < 2:
        return 0.0
    span = now - times[0]
    if span <= 0:
        return 0.0
    return len(times) / span


class DivergenceCachingPolicy(PrecisionPolicy):
    """Projection-based divergence (staleness allowance) setting per HSW94.

    Parameters
    ----------
    value_refresh_cost / query_refresh_cost:
        ``C_vr`` and ``C_qr``; the paper's comparison uses 1 and 2.
    window_size:
        The moving-window size ``k`` (23 in the paper).
    initial_allowance:
        Allowance used before enough statistics have accumulated.
    """

    def __init__(
        self,
        value_refresh_cost: float = 1.0,
        query_refresh_cost: float = 2.0,
        window_size: int = 23,
        initial_allowance: float = 1.0,
    ) -> None:
        self._c_vr = positive("value_refresh_cost", value_refresh_cost, finite=True)
        self._c_qr = positive("query_refresh_cost", query_refresh_cost, finite=True)
        self._window_size = at_least("window_size (k)", window_size, 1, finite=True)
        self._initial_allowance = non_negative(
            "initial_allowance", initial_allowance, finite=False
        )
        self._windows: Dict[Hashable, _AccessWindows] = {}

    # ------------------------------------------------------------------
    # Window bookkeeping
    # ------------------------------------------------------------------
    def _window(self, key: Hashable) -> _AccessWindows:
        window = self._windows.get(key)
        if window is None:
            window = _AccessWindows.with_size(self._window_size)
            self._windows[key] = window
        return window

    def record_write(self, key: Hashable, time: float) -> None:
        self._window(key).write_times.append(time)

    def record_read(self, key: Hashable, time: float, served_from_cache: bool) -> None:
        self._window(key).read_times.append(time)

    def record_constraint(self, key: Hashable, constraint: float, time: float) -> None:
        if not constraint >= 0:
            raise ValueError("constraint must be non-negative")
        self._window(key).constraints.append(constraint)

    # ------------------------------------------------------------------
    # Allowance projection
    # ------------------------------------------------------------------
    def projected_cost(self, key: Hashable, allowance: float, now: float) -> float:
        """Projected cost rate of using ``allowance`` for ``key`` at ``now``."""
        if not allowance >= 0:
            raise ValueError("allowance must be non-negative")
        window = self._window(key)
        write_rate = _rate(window.write_times, now)
        read_rate = _rate(window.read_times, now)
        invalidation_rate = write_rate / (allowance + 1.0)
        remote_read_rate = read_rate * self._fraction_below(window, allowance)
        return self._c_vr * invalidation_rate + self._c_qr * remote_read_rate

    @staticmethod
    def _fraction_below(window: _AccessWindows, allowance: float) -> float:
        """Estimated probability that a query's constraint is below ``allowance``."""
        if not window.constraints:
            return 0.0
        below = sum(1 for constraint in window.constraints if constraint < allowance)
        return below / len(window.constraints)

    def choose_allowance(self, key: Hashable, now: float) -> float:
        """Return the allowance minimising the projected cost rate.

        One sweep over the candidates, in the order ``0``, ``inf``, then the
        distinct observed constraints ascending: the rates are computed once
        and the window is sorted once, so the constraints below a candidate
        are counted by ``bisect_left``.  Each candidate's cost is the
        :meth:`projected_cost` expression, evaluated in the same order.
        """
        window = self._window(key)
        if not window.write_times and not window.read_times:
            return self._initial_allowance
        write_rate = _rate(window.write_times, now)
        read_rate = _rate(window.read_times, now)
        constraints = sorted(window.constraints)
        count = len(constraints)
        c_vr = self._c_vr
        c_qr = self._c_qr
        best_allowance = 0.0
        best_cost = math.inf
        previous = None
        for candidate in (0.0, math.inf, *constraints):
            if candidate == previous:
                # A repeated constraint costs exactly what its first copy
                # did, so it can neither improve nor win a tie.
                continue
            if count:
                fraction = bisect_left(constraints, candidate) / count
            else:
                fraction = 0.0
            cost = c_vr * (write_rate / (candidate + 1.0)) + c_qr * (
                read_rate * fraction
            )
            improves = cost < best_cost - 1e-12
            ties_with_smaller = (
                abs(cost - best_cost) <= 1e-12 and candidate < best_allowance
            )
            if improves or ties_with_smaller:
                best_cost = cost
                best_allowance = candidate
            previous = candidate
        return best_allowance

    # ------------------------------------------------------------------
    # Refresh decisions
    # ------------------------------------------------------------------
    def on_value_initiated_refresh(
        self, key: Hashable, exact_value: float, time: float
    ) -> PrecisionDecision:
        return self._decision(key, exact_value, time)

    def on_query_initiated_refresh(
        self, key: Hashable, exact_value: float, time: float
    ) -> PrecisionDecision:
        return self._decision(key, exact_value, time)

    def _decision(
        self, key: Hashable, exact_value: float, time: float
    ) -> PrecisionDecision:
        allowance = self.choose_allowance(key, time)
        interval = Interval.above(exact_value, allowance)
        return PrecisionDecision(interval=interval, original_width=allowance)

    def describe(self) -> str:
        return (
            f"DivergenceCachingPolicy(k={self._window_size}, C_vr={self._c_vr:g}, "
            f"C_qr={self._c_qr:g})"
        )
