"""One-dimensional random walks (the paper's synthetic data, Section 4.2).

Every second the value either increases or decreases by an amount sampled
uniformly from ``[0.5, 1.5]``.  A *biased* walk (used in the Section 4.5
variation study) moves up with probability greater than one half.

Steps are drawn from a ``random.Random``: one uniform magnitude then one
direction draw per step, the order the committed figure tables require.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional

from repro.core.checks import at_least, finite, non_negative, probability



class RandomWalkGenerator:
    """Generates random-walk values, one step or one batch per call.

    Parameters
    ----------
    step_low / step_high:
        The step magnitude is drawn uniformly from ``[step_low, step_high]``
        (the paper uses ``[0.5, 1.5]``).
    up_probability:
        Probability that a step moves the value upward.  ``0.5`` is the
        unbiased walk of Section 4.2; larger values give the biased walk of
        Section 4.5.
    start:
        Initial value.
    rng:
        Random generator (pass a seeded one for reproducibility).
    """

    def __init__(
        self,
        step_low: float = 0.5,
        step_high: float = 1.5,
        up_probability: float = 0.5,
        start: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        self._step_low = non_negative("step_low", step_low, finite=True)
        self._step_high = at_least("step_high", step_high, step_low, finite=True)
        self._up_probability = probability("up_probability", up_probability)
        self._value = float(finite("start", start))
        self._rng = rng if rng is not None else random.Random()

    @property
    def value(self) -> float:
        """The current value of the walk."""
        return self._value

    @property
    def mean_step_magnitude(self) -> float:
        """Average absolute step size (the ``s`` of the Appendix A analysis)."""
        return (self._step_low + self._step_high) / 2.0

    @property
    def is_biased(self) -> bool:
        """True when up and down moves are not equally likely."""
        return self._up_probability != 0.5

    def step(self) -> float:
        """Advance the walk one step and return the new value."""
        magnitude = self._rng.uniform(self._step_low, self._step_high)
        if self._rng.random() < self._up_probability:
            self._value += magnitude
        else:
            self._value -= magnitude
        return self._value

    def steps_array(self, count: int) -> List[float]:
        """Advance the walk ``count`` steps and return all values at once.

        This is the batch path the simulator uses to pre-materialise update
        schedules.  It draws from the RNG in exactly the same order as
        ``count`` calls to :meth:`step` (so seeded walks produce identical
        trajectories), with the hot attributes bound locally.
        """
        at_least("count", count, 0, finite=True)
        uniform = self._rng.uniform
        rand = self._rng.random
        step_low = self._step_low
        step_high = self._step_high
        up_probability = self._up_probability
        value = self._value
        values: List[float] = []
        append = values.append
        for _ in range(count):
            magnitude = uniform(step_low, step_high)
            if rand() < up_probability:
                value += magnitude
            else:
                value -= magnitude
            append(value)
        self._value = value
        return values

    def walk(self, steps: int) -> List[float]:
        """Return the next ``steps`` values (the walk advances accordingly)."""
        return self.steps_array(steps)

    def __iter__(self) -> Iterator[float]:
        while True:
            yield self.step()
