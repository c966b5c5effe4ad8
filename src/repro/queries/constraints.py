"""Generation of query precision constraints.

Each query carries a precision constraint ``delta >= 0``, the maximum
acceptable width of its result interval.  The paper's workload samples
constraints uniformly between ``delta_min = delta_avg * (1 - sigma)`` and
``delta_max = delta_avg * (1 + sigma)``, where ``delta_avg`` is the average
constraint and ``sigma`` the constraint variation (Section 4.1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.core.checks import non_negative


@dataclass(frozen=True)
class ConstraintDistribution:
    """The (min, max) range from which constraints are drawn."""

    minimum: float
    maximum: float

    def __post_init__(self) -> None:
        non_negative("constraint minimum", self.minimum, finite=False)
        if not self.maximum >= self.minimum:
            raise ValueError("constraint maximum must be >= minimum")

    @property
    def average(self) -> float:
        """Midpoint of the range."""
        return (self.minimum + self.maximum) / 2.0


class PrecisionConstraintGenerator:
    """Samples precision constraints uniformly from ``[delta_min, delta_max]``.

    Parameters
    ----------
    average:
        ``delta_avg`` — the average precision constraint.
    variation:
        ``sigma >= 0`` — the relative half-width of the constraint range.
        ``sigma = 0`` makes every query use exactly ``delta_avg``; ``sigma = 1``
        spreads constraints over ``[0, 2 * delta_avg]``.  Values above 1 would
        produce negative lower bounds, which are clamped to zero.
    rng:
        Randomness source (pass a seeded instance for reproducibility).
    """

    def __init__(
        self,
        average: float,
        variation: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        self._average = non_negative("average (delta_avg)", average, finite=False)
        self._variation = non_negative("variation (sigma)", variation, finite=True)
        self._rng = rng if rng is not None else random.Random()
        # The effective range is constant for the generator's lifetime;
        # precompute it once instead of per sample (one sample per query).
        self._minimum = max(average * (1.0 - variation), 0.0)
        self._maximum = average * (1.0 + variation)
        if not 0 <= self._minimum <= self._maximum:
            # ``inf * (1 - 1)`` is NaN: an infinite average needs sigma != 1.
            raise ValueError(
                f"average {average} with variation {variation} gives no "
                "constraint range"
            )

    @property
    def distribution(self) -> ConstraintDistribution:
        """The effective ``[delta_min, delta_max]`` range."""
        return ConstraintDistribution(minimum=self._minimum, maximum=self._maximum)

    @property
    def average(self) -> float:
        """The configured ``delta_avg``."""
        return self._average

    @property
    def variation(self) -> float:
        """The configured ``sigma``."""
        return self._variation

    def sample(self) -> float:
        """Draw one precision constraint."""
        minimum = self._minimum
        maximum = self._maximum
        if minimum == maximum:
            return minimum
        return self._rng.uniform(minimum, maximum)

    @classmethod
    def from_bounds(
        cls,
        minimum: float,
        maximum: float,
        rng: Optional[random.Random] = None,
    ) -> "PrecisionConstraintGenerator":
        """Build a generator from explicit ``(delta_min, delta_max)`` bounds.

        Several paper figures specify the range directly (e.g. ``(0, 100K)``
        or ``(50K, 150K)`` in Figure 6); this constructor converts the range
        into the equivalent ``(delta_avg, sigma)`` pair.
        """
        if not 0 <= minimum <= maximum:
            raise ValueError("require 0 <= minimum <= maximum")
        average = (minimum + maximum) / 2.0
        if average == 0:
            return cls(average=0.0, variation=0.0, rng=rng)
        variation = (maximum - minimum) / (2.0 * average)
        return cls(average=average, variation=variation, rng=rng)
