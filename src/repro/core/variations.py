"""The "unsuccessful variations" of Section 4.5.

The paper evaluates three intuitive-but-unhelpful variations of the basic
algorithm and reports that none of them beat the simple controller on general
workloads:

* **Uncentered intervals** — maintain separate upper and lower widths, grow
  whichever side the value escaped from, shrink both on query refreshes.
  Helps only for biased random walks.
* **Time-varying intervals** — widths that grow with time (``t**1/2`` or
  ``t**1/3``), or endpoints drifting linearly; only the linear drift helps,
  and only when the data predictably trends.
* **History-window adjustment** — decide to grow or shrink based on the
  majority of the last ``r`` refreshes rather than only the most recent one.

They are implemented here so the Section 4.5 ablation experiments can
reproduce the negative results.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Optional, Tuple

from repro.core.checks import at_least, non_negative, positive
from repro.core.parameters import PrecisionParameters
from repro.core.policy import WidthAdjustment
from repro.core.thresholds import apply_thresholds


class UncenteredWidthController:
    """Variation with independently adapted upper and lower widths.

    A value-initiated refresh caused by the value exceeding the *upper* bound
    grows only the upper width (with probability ``min(rho, 1)``); similarly
    for the lower bound.  A query-initiated refresh shrinks both widths (with
    probability ``min(1/rho, 1)``).
    """

    def __init__(
        self,
        parameters: PrecisionParameters,
        initial_width: float = 1.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        positive("initial_width", initial_width, finite=True)
        self._parameters = parameters
        self._upper_width = initial_width / 2.0
        self._lower_width = initial_width / 2.0
        self._rng = rng if rng is not None else random.Random()

    @property
    def upper_width(self) -> float:
        """Width of the interval above the exact value (unclamped)."""
        return self._upper_width

    @property
    def lower_width(self) -> float:
        """Width of the interval below the exact value (unclamped)."""
        return self._lower_width

    @property
    def width(self) -> float:
        """Total unclamped width (lower + upper)."""
        return self._lower_width + self._upper_width

    def published_widths(self) -> Tuple[float, float]:
        """Return (lower, upper) widths after threshold clamping of the total.

        Thresholds act on the total width; when clamped to 0 or inf both
        sides collapse accordingly.
        """
        total = apply_thresholds(
            self.width,
            self._parameters.lower_threshold,
            self._parameters.upper_threshold,
        )
        if total == 0.0:
            return 0.0, 0.0
        if total != self.width:  # clamped to inf
            return total, total
        return self._lower_width, self._upper_width

    def on_upper_escape(self) -> WidthAdjustment:
        """Value-initiated refresh triggered by the value exceeding the top."""
        if self._parameters.adaptivity == 0:
            return WidthAdjustment.UNCHANGED
        if self._rng.random() < self._parameters.growth_probability:
            self._upper_width *= self._parameters.growth_factor
            return WidthAdjustment.GREW
        return WidthAdjustment.UNCHANGED

    def on_lower_escape(self) -> WidthAdjustment:
        """Value-initiated refresh triggered by the value dropping below."""
        if self._parameters.adaptivity == 0:
            return WidthAdjustment.UNCHANGED
        if self._rng.random() < self._parameters.growth_probability:
            self._lower_width *= self._parameters.growth_factor
            return WidthAdjustment.GREW
        return WidthAdjustment.UNCHANGED

    def on_query_initiated_refresh(self) -> WidthAdjustment:
        """Shrink both sides with probability ``min(1/rho, 1)``."""
        if self._parameters.adaptivity == 0:
            return WidthAdjustment.UNCHANGED
        if self._rng.random() < self._parameters.shrink_probability:
            self._upper_width /= self._parameters.growth_factor
            self._lower_width /= self._parameters.growth_factor
            return WidthAdjustment.SHRANK
        return WidthAdjustment.UNCHANGED


class TimeVaryingWidthController:
    """Variation whose published width grows with the time since refresh.

    The controller adapts a *base* width exactly like the standard algorithm
    but publishes ``base + growth_scale * elapsed**exponent`` when asked for
    the width at a given elapsed time.  Section 4.5 evaluates exponents 1/2
    and 1/3 and finds them unhelpful.
    """

    def __init__(
        self,
        parameters: PrecisionParameters,
        initial_width: float = 1.0,
        exponent: float = 0.5,
        growth_scale: float = 1.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        positive("initial_width", initial_width, finite=True)
        positive("exponent", exponent, finite=True)
        non_negative("growth_scale", growth_scale, finite=True)
        self._parameters = parameters
        self._base_width = initial_width
        self._exponent = exponent
        self._growth_scale = growth_scale
        self._rng = rng if rng is not None else random.Random()

    @property
    def base_width(self) -> float:
        """The adapted base width (width at the instant of refresh)."""
        return self._base_width

    def width_at(self, elapsed: float) -> float:
        """Published width ``elapsed`` time units after the last refresh."""
        if not elapsed >= 0:
            raise ValueError("elapsed must be non-negative")
        grown = self._base_width + self._growth_scale * elapsed**self._exponent
        return apply_thresholds(
            grown,
            self._parameters.lower_threshold,
            self._parameters.upper_threshold,
        )

    def on_value_initiated_refresh(self) -> WidthAdjustment:
        """Grow the base width with probability ``min(rho, 1)``."""
        if self._parameters.adaptivity == 0:
            return WidthAdjustment.UNCHANGED
        if self._rng.random() < self._parameters.growth_probability:
            self._base_width *= self._parameters.growth_factor
            return WidthAdjustment.GREW
        return WidthAdjustment.UNCHANGED

    def on_query_initiated_refresh(self) -> WidthAdjustment:
        """Shrink the base width with probability ``min(1/rho, 1)``."""
        if self._parameters.adaptivity == 0:
            return WidthAdjustment.UNCHANGED
        if self._rng.random() < self._parameters.shrink_probability:
            self._base_width /= self._parameters.growth_factor
            return WidthAdjustment.SHRANK
        return WidthAdjustment.UNCHANGED


class HistoryWindowController:
    """Variation that adjusts based on the majority of the last ``r`` refreshes.

    The width is grown when the majority of the ``window`` most recent
    refreshes were value-initiated, and shrunk otherwise.  With ``window=1``
    this degenerates to the standard algorithm with ``rho = 1``.  The paper
    reports that no window size outperforms the memoryless controller.
    """

    _VALUE = "value"
    _QUERY = "query"

    def __init__(
        self,
        parameters: PrecisionParameters,
        initial_width: float = 1.0,
        window: int = 3,
    ) -> None:
        positive("initial_width", initial_width, finite=True)
        at_least("window", window, 1, finite=True)
        self._parameters = parameters
        self._width = initial_width
        self._window = window
        self._history: Deque[str] = deque(maxlen=window)

    @property
    def width(self) -> float:
        """The internal (unclamped) width."""
        return self._width

    @property
    def window(self) -> int:
        """Number of recent refreshes considered."""
        return self._window

    def published_width(self) -> float:
        """Width after threshold clamping."""
        return apply_thresholds(
            self._width,
            self._parameters.lower_threshold,
            self._parameters.upper_threshold,
        )

    def on_value_initiated_refresh(self) -> WidthAdjustment:
        """Record a value-initiated refresh and apply the majority rule."""
        self._history.append(self._VALUE)
        return self._adjust()

    def on_query_initiated_refresh(self) -> WidthAdjustment:
        """Record a query-initiated refresh and apply the majority rule."""
        self._history.append(self._QUERY)
        return self._adjust()

    def _adjust(self) -> WidthAdjustment:
        if self._parameters.adaptivity == 0:
            return WidthAdjustment.UNCHANGED
        value_count = sum(1 for kind in self._history if kind == self._VALUE)
        query_count = len(self._history) - value_count
        if value_count > query_count:
            self._width *= self._parameters.growth_factor
            return WidthAdjustment.GREW
        if query_count > value_count:
            self._width /= self._parameters.growth_factor
            return WidthAdjustment.SHRANK
        return WidthAdjustment.UNCHANGED
