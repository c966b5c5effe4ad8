"""The adaptive width controller (Section 2 of the paper).

One :class:`AdaptiveWidthController` instance manages the interval width of a
single cached value.  Every refresh is an adaptation opportunity:

* **value-initiated refresh** — the exact value escaped the cached interval, a
  signal that the interval was too narrow.  With probability
  ``min(rho, 1)`` the width is grown to ``W * (1 + alpha)``.
* **query-initiated refresh** — a query found the interval too wide and
  fetched the exact value.  With probability ``min(1 / rho, 1)`` the width is
  shrunk to ``W / (1 + alpha)``.

The controller keeps the *original* (unclamped) width for future adaptation,
while :meth:`published_width` applies the ``theta_0`` / ``theta_1`` thresholds
to obtain the width actually installed in the cache, exactly as Section 2
prescribes ("the source still retains the original width, and uses it when
setting the next width").
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional

from repro.core.checks import positive
from repro.core.parameters import PrecisionParameters
from repro.core.thresholds import apply_thresholds

#: Smallest positive normal float; below it, halving loses mantissa bits and
#: the width table's exactness argument no longer holds.
_MIN_NORMAL = sys.float_info.min


def _exactly_invertible(factor: float) -> bool:
    """True when multiplying and dividing a normal float by ``factor`` is
    exact — i.e. the factor is a power of two (mantissa 0.5 in frexp form).

    The default adaptivity ``alpha = 1`` gives the factor 2, so the common
    hot path qualifies; fractional factors like 1.5 round and must keep the
    sequential multiply/divide arithmetic to stay bit-identical with the
    committed figure tables.
    """
    if factor <= 0 or math.isinf(factor):
        return False
    mantissa, _ = math.frexp(factor)
    return mantissa == 0.5


class WidthAdjustment(Enum):
    """Outcome of a refresh from the controller's point of view."""

    GREW = "grew"
    SHRANK = "shrank"
    UNCHANGED = "unchanged"


@dataclass
class ControllerState:
    """Snapshot of a controller's internal counters (useful for diagnostics)."""

    width: float
    published_width: float
    value_refreshes: int
    query_refreshes: int
    growth_events: int
    shrink_events: int


class AdaptiveWidthController:
    """Adaptive precision setting for a single cached approximate value.

    Parameters
    ----------
    parameters:
        The five algorithm parameters (costs, adaptivity, thresholds).
    initial_width:
        Starting width ``W``; must be positive so multiplicative updates can
        move it in both directions.  The paper does not prescribe a starting
        point because the algorithm converges from any positive width.
    rng:
        Source of randomness for the probabilistic adjustments.  Pass a seeded
        :class:`random.Random` for reproducible simulations.
    """

    def __init__(
        self,
        parameters: PrecisionParameters,
        initial_width: float = 1.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        # Positive, so multiplicative updates can move it both ways.
        positive("initial_width", initial_width, finite=True)
        self._parameters = parameters
        self._width = float(initial_width)
        self._rng = rng if rng is not None else random.Random()
        self._value_refreshes = 0
        self._query_refreshes = 0
        self._growth_events = 0
        self._shrink_events = 0
        # Precomputed adjustment factors: the parameter properties recompute
        # min()/divisions on every access, which is measurable when every
        # refresh of every cached value consults them.  The bundle is
        # immutable (frozen dataclass), so caching is safe.
        self._growth_probability = parameters.growth_probability
        self._shrink_probability = parameters.shrink_probability
        self._growth_factor = parameters.growth_factor
        self._adaptive = parameters.adaptivity != 0
        self._lower_threshold = parameters.lower_threshold
        self._upper_threshold = parameters.upper_threshold
        self._unclamped = (
            parameters.lower_threshold == 0.0
            and math.isinf(parameters.upper_threshold)
        )
        self._reset_width_table()

    def _reset_width_table(self) -> None:
        """(Re)build the exponent-keyed table of multiplicative widths.

        Widths only ever take values ``initial * factor**k``; the table maps
        the net exponent ``k`` to its width, so oscillating around the
        optimum replays memoised values instead of accumulating multiply/
        divide chains.  It is only sound when those chains are exact, i.e.
        for power-of-two factors and normal magnitudes — anything else keeps
        the plain sequential arithmetic (bit-identical to the historical
        behaviour, which for power-of-two factors the table also is).
        """
        self._exponent = 0
        if _exactly_invertible(self._growth_factor) and self._width >= _MIN_NORMAL:
            self._width_table: Optional[Dict[int, float]] = {0: self._width}
        else:
            self._width_table = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def parameters(self) -> PrecisionParameters:
        """The parameter bundle this controller was configured with."""
        return self._parameters

    @property
    def width(self) -> float:
        """The internal ("original") width, never clamped by thresholds."""
        return self._width

    def published_width(self) -> float:
        """The width to install in the cache, after threshold clamping."""
        if self._unclamped:
            # theta_0 = 0, theta_1 = inf: clamping is the identity (internal
            # widths are always positive and below +inf, and an overflowed
            # width publishes as inf either way).
            return self._width
        return apply_thresholds(
            self._width,
            self._lower_threshold,
            self._upper_threshold,
        )

    def state(self) -> ControllerState:
        """Return a snapshot of widths and refresh counters."""
        return ControllerState(
            width=self._width,
            published_width=self.published_width(),
            value_refreshes=self._value_refreshes,
            query_refreshes=self._query_refreshes,
            growth_events=self._growth_events,
            shrink_events=self._shrink_events,
        )

    # ------------------------------------------------------------------
    # Adaptation
    # ------------------------------------------------------------------
    def on_value_initiated_refresh(self) -> WidthAdjustment:
        """Record a value-initiated refresh ("interval too narrow").

        Returns the adjustment decision; call :meth:`published_width` for the
        width to ship with the refreshed interval.
        """
        self._value_refreshes += 1
        if not self._adaptive:
            return WidthAdjustment.UNCHANGED
        if self._rng.random() < self._growth_probability:
            table = self._width_table
            if table is None:
                self._width *= self._growth_factor
            else:
                self._exponent += 1
                width = table.get(self._exponent)
                if width is None:
                    width = self._width * self._growth_factor
                    if width >= _MIN_NORMAL and not math.isinf(width):
                        table[self._exponent] = width
                    else:
                        # Overflow: multiplication stops being invertible, so
                        # the table can no longer stand in for the sequential
                        # arithmetic.  Fall back permanently.
                        self._width_table = None
                self._width = width
            self._growth_events += 1
            return WidthAdjustment.GREW
        return WidthAdjustment.UNCHANGED

    def on_query_initiated_refresh(self) -> WidthAdjustment:
        """Record a query-initiated refresh ("interval too wide")."""
        self._query_refreshes += 1
        if not self._adaptive:
            return WidthAdjustment.UNCHANGED
        if self._rng.random() < self._shrink_probability:
            table = self._width_table
            if table is None:
                self._width /= self._growth_factor
            else:
                self._exponent -= 1
                width = table.get(self._exponent)
                if width is None:
                    width = self._width / self._growth_factor
                    if width >= _MIN_NORMAL:
                        table[self._exponent] = width
                    else:
                        # Subnormal: halving starts rounding, so memoised
                        # values would diverge from the sequential chain.
                        self._width_table = None
                self._width = width
            self._shrink_events += 1
            return WidthAdjustment.SHRANK
        return WidthAdjustment.UNCHANGED

    def reset(self, width: float) -> None:
        """Reset the internal width (used by experiments, not by the algorithm)."""
        if not width > 0:
            raise ValueError("width must be positive")
        self._width = float(width)
        self._reset_width_table()
