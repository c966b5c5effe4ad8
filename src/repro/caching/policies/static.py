"""Fixed-width precision policy.

Used for the Figure 3 optimality study, where the adaptive part of the
algorithm is switched off and the interval width is held constant across a
run while being varied across runs to trace out the measured
``P_vr`` / ``P_qr`` / ``Omega`` curves.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.caching.policies.base import PrecisionDecision, PrecisionPolicy
from repro.core.checks import non_negative
from repro.intervals.placement import CenteredPlacement, IntervalPlacement


class StaticWidthPolicy(PrecisionPolicy):
    """Always publish the same interval width, never adapting."""

    def __init__(
        self,
        width: float,
        placement: Optional[IntervalPlacement] = None,
    ) -> None:
        self._width = float(non_negative("width", width, finite=False))
        self._placement = placement or CenteredPlacement()

    @property
    def width(self) -> float:
        """The fixed width published on every refresh."""
        return self._width

    def on_value_initiated_refresh(
        self, key: Hashable, exact_value: float, time: float
    ) -> PrecisionDecision:
        return self._decision(exact_value)

    def on_query_initiated_refresh(
        self, key: Hashable, exact_value: float, time: float
    ) -> PrecisionDecision:
        return self._decision(exact_value)

    def _decision(self, exact_value: float) -> PrecisionDecision:
        interval = self._placement.place(exact_value, self._width)
        return PrecisionDecision(interval=interval, original_width=self._width)

    def describe(self) -> str:
        return f"StaticWidthPolicy(width={self._width:g})"
