"""The paper's adaptive precision policy, and its uncentered variation.

:class:`AdaptivePrecisionPolicy` manages one
:class:`~repro.core.policy.AdaptiveWidthController` per cached value and turns
its published widths into concrete intervals using a placement strategy
(centred by default).  :class:`UncenteredAdaptivePolicy` is the Section 4.5
variation with independently adapted upper/lower widths.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, Optional

from repro.caching.policies.base import PrecisionDecision, PrecisionPolicy
from repro.core.checks import positive
from repro.core.parameters import PrecisionParameters
from repro.core.policy import AdaptiveWidthController
from repro.core.variations import UncenteredWidthController
from repro.intervals.interval import Interval
from repro.intervals.placement import CenteredPlacement, IntervalPlacement


class AdaptivePrecisionPolicy(PrecisionPolicy):
    """Adaptive width setting (Section 2) for every value independently.

    Parameters
    ----------
    parameters:
        Algorithm parameters (costs, adaptivity ``alpha``, thresholds
        ``theta_0`` / ``theta_1``).
    initial_width:
        Width used the first time a value is refreshed.  The algorithm
        converges from any positive starting point; pick something within an
        order of magnitude of typical precision constraints to shorten warm-up.
    placement:
        How refreshed intervals are positioned around the exact value
        (centred by default, per the paper).
    rng:
        Randomness source shared by all per-value controllers (pass a seeded
        instance for reproducibility).
    """

    def __init__(
        self,
        parameters: PrecisionParameters,
        initial_width: float = 1.0,
        placement: Optional[IntervalPlacement] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self._parameters = parameters
        self._initial_width = positive("initial_width", initial_width, finite=True)
        self._placement = placement or CenteredPlacement()
        self._rng = rng if rng is not None else random.Random()
        self._controllers: Dict[Hashable, AdaptiveWidthController] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def parameters(self) -> PrecisionParameters:
        """The configured algorithm parameters."""
        return self._parameters

    def controller(self, key: Hashable) -> AdaptiveWidthController:
        """Return (creating on first use) the width controller for ``key``."""
        controller = self._controllers.get(key)
        if controller is None:
            controller = AdaptiveWidthController(
                self._parameters, initial_width=self._initial_width, rng=self._rng
            )
            self._controllers[key] = controller
        return controller

    def tracked_keys(self) -> list:
        """Keys for which a controller has been instantiated."""
        return list(self._controllers.keys())

    def current_width(self, key: Hashable) -> float:
        """The unclamped width currently held for ``key``."""
        return self.controller(key).width

    # ------------------------------------------------------------------
    # PrecisionPolicy interface
    # ------------------------------------------------------------------
    def on_value_initiated_refresh(
        self, key: Hashable, exact_value: float, time: float
    ) -> PrecisionDecision:
        controller = self._controllers.get(key)
        if controller is None:
            controller = self.controller(key)
        controller.on_value_initiated_refresh()
        return PrecisionDecision(
            self._placement.place(exact_value, controller.published_width()),
            controller.width,
        )

    def on_query_initiated_refresh(
        self, key: Hashable, exact_value: float, time: float
    ) -> PrecisionDecision:
        controller = self._controllers.get(key)
        if controller is None:
            controller = self.controller(key)
        controller.on_query_initiated_refresh()
        return PrecisionDecision(
            self._placement.place(exact_value, controller.published_width()),
            controller.width,
        )

    def describe(self) -> str:
        return (
            f"AdaptivePrecisionPolicy(rho={self._parameters.cost_factor:g}, "
            f"alpha={self._parameters.adaptivity:g}, "
            f"theta0={self._parameters.lower_threshold:g}, "
            f"theta1={self._parameters.upper_threshold:g})"
        )


class UncenteredAdaptivePolicy(PrecisionPolicy):
    """Section 4.5 variation: independently adapted upper and lower widths.

    The policy needs to know *which side* the value escaped from, so it keeps
    the last published interval per key and compares the new exact value
    against it when a value-initiated refresh arrives.
    """

    def __init__(
        self,
        parameters: PrecisionParameters,
        initial_width: float = 1.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        self._parameters = parameters
        self._initial_width = positive("initial_width", initial_width, finite=True)
        self._rng = rng if rng is not None else random.Random()
        self._controllers: Dict[Hashable, UncenteredWidthController] = {}
        self._last_interval: Dict[Hashable, Interval] = {}

    def _controller(self, key: Hashable) -> UncenteredWidthController:
        controller = self._controllers.get(key)
        if controller is None:
            controller = UncenteredWidthController(
                self._parameters, initial_width=self._initial_width, rng=self._rng
            )
            self._controllers[key] = controller
        return controller

    def on_value_initiated_refresh(
        self, key: Hashable, exact_value: float, time: float
    ) -> PrecisionDecision:
        controller = self._controller(key)
        previous = self._last_interval.get(key)
        if previous is not None and exact_value > previous.high:
            controller.on_upper_escape()
        elif previous is not None and exact_value < previous.low:
            controller.on_lower_escape()
        else:
            # No record of the previous interval (first refresh): treat as an
            # upper escape, the common case for traffic-like data.
            controller.on_upper_escape()
        return self._decision(key, controller, exact_value)

    def on_query_initiated_refresh(
        self, key: Hashable, exact_value: float, time: float
    ) -> PrecisionDecision:
        controller = self._controller(key)
        controller.on_query_initiated_refresh()
        return self._decision(key, controller, exact_value)

    def _decision(
        self, key: Hashable, controller: UncenteredWidthController, exact_value: float
    ) -> PrecisionDecision:
        lower, upper = controller.published_widths()
        interval = Interval(exact_value - lower, exact_value + upper)
        self._last_interval[key] = interval
        return PrecisionDecision(interval=interval, original_width=controller.width)

    def describe(self) -> str:
        return (
            f"UncenteredAdaptivePolicy(rho={self._parameters.cost_factor:g}, "
            f"alpha={self._parameters.adaptivity:g})"
        )
