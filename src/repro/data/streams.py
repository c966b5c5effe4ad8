"""Update streams: the sequences of source updates driving a simulation.

Every data source in a simulation is fed by an :class:`UpdateStream` that
yields ``(time, new_value)`` pairs in increasing time order.  Three concrete
streams cover the paper's workloads:

* :class:`RandomWalkStream` — one random-walk step per second (Section 4.2),
* :class:`TraceStream` — replay of a trace series (Section 4.3),
* :class:`CounterStream` — a monotone update counter, used for the stale-value
  (Divergence Caching) experiments of Section 4.7 where only the *number* of
  updates matters.

:meth:`UpdateStream.schedule` is the single generation path (``updates``
zips the same batched columns), so a seeded stream's output is identical
whichever accessor a caller uses.

A schedule is a pair of parallel columns ``(times, values)``, not a list of
per-event tuples: the consumers (the merged-timeline builder, the batch
kernel, the simulator's lockstep update handler) index columns, and the streams of one trace share
a single ``times`` list.  Schedules are read-only to their consumers.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from itertools import accumulate, repeat
from typing import Hashable, Iterator, List, Optional, Sequence, Tuple

from repro.data.engine import schedule_times
from repro.data.random_walk import RandomWalkGenerator
from repro.data.trace import Trace

UpdateEventTuple = Tuple[float, float]

#: A whole update schedule as parallel ``(times, values)`` columns.
ScheduleColumns = Tuple[List[float], List[float]]


class UpdateStream(ABC):
    """A time-ordered stream of updates to one source value."""

    @property
    @abstractmethod
    def initial_value(self) -> float:
        """The source value before the first update."""

    def schedule(self, duration: float) -> ScheduleColumns:
        """Return the whole update schedule for ``(0, duration]`` as columns.

        The result is ``(times, values)``: two equal-length lists, the
        update instants in increasing order and the value each update
        installs.  This is the batch construction the simulator
        pre-materialises per-source timelines from.  Callers must not mutate
        the lists (trace streams share one ``times`` list across all series
        of a trace).

        Subclasses must override :meth:`schedule` or :meth:`updates` (the
        defaults are defined in terms of each other).  The bundled streams
        all override ``schedule`` — the single generation path — so both
        accessors emit identical events for a given seeded generator.
        """
        if type(self).updates is UpdateStream.updates:
            raise NotImplementedError(
                f"{type(self).__name__} must override schedule() or updates()"
            )
        events = list(self.updates(duration))
        return [time for time, _ in events], [value for _, value in events]

    def updates(self, duration: float) -> Iterator[UpdateEventTuple]:
        """Yield ``(time, value)`` pairs for all updates in ``(0, duration]``.

        Equivalent to zipping the :meth:`schedule` columns; see
        :meth:`schedule` for the override contract.
        """
        times, values = self.schedule(duration)
        return zip(times, values)


class RandomWalkStream(UpdateStream):
    """A random-walk value updated once every ``interval`` seconds."""

    def __init__(
        self,
        walk: Optional[RandomWalkGenerator] = None,
        interval: float = 1.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self._walk = walk if walk is not None else RandomWalkGenerator(rng=rng)
        self._interval = interval
        self._initial = self._walk.value

    @property
    def initial_value(self) -> float:
        return self._initial

    @property
    def interval(self) -> float:
        """Seconds between consecutive updates."""
        return self._interval

    def schedule(self, duration: float) -> ScheduleColumns:
        if duration <= 0:
            raise ValueError("duration must be positive")
        times = schedule_times(self._interval, duration)
        return times, self._walk.steps_array(len(times))


class TraceStream(UpdateStream):
    """Replays one series of a :class:`~repro.data.trace.Trace`."""

    def __init__(self, trace: Trace, key: Hashable) -> None:
        if key not in trace.series:
            raise KeyError(f"key {key!r} not present in trace")
        self._trace = trace
        self._values: Sequence[float] = trace.series[key]

    @property
    def initial_value(self) -> float:
        return self._values[0]

    def schedule(self, duration: float) -> ScheduleColumns:
        if duration <= 0:
            raise ValueError("duration must be positive")
        # Sample ``i`` lands at ``times[i - 1]``; the grid is the trace's
        # own, so every stream of one trace returns the same ``times``.
        times = self._trace.update_times(duration)
        return times, self._values[1 : len(times) + 1]


class CounterStream(UpdateStream):
    """A monotone counter incremented on every update.

    Updates arrive either at a fixed period or as a Poisson process with the
    given mean inter-update time, modelling the update-frequency-only view of
    Divergence Caching.
    """

    def __init__(
        self,
        mean_interval: float = 1.0,
        poisson: bool = False,
        start: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if mean_interval <= 0:
            raise ValueError("mean_interval must be positive")
        self._mean_interval = mean_interval
        self._poisson = poisson
        self._start = float(start)
        self._rng = rng if rng is not None else random.Random()

    @property
    def initial_value(self) -> float:
        return self._start

    def schedule(self, duration: float) -> ScheduleColumns:
        if duration <= 0:
            raise ValueError("duration must be positive")
        horizon = duration + 1e-9
        times: List[float] = []
        time = 0.0
        if self._poisson:
            expovariate = self._rng.expovariate
            rate = 1.0 / self._mean_interval
            while True:
                time += expovariate(rate)
                if time > horizon:
                    break
                times.append(time)
        else:
            mean_interval = self._mean_interval
            while True:
                time += mean_interval
                if time > horizon:
                    break
                times.append(time)
        # Repeated ``+= 1.0`` from the start value, as the counter counts.
        values = list(accumulate(repeat(1.0, len(times)), initial=self._start))
        return times, values[1:]


def streams_from_trace(trace: Trace, keys: Optional[Sequence[Hashable]] = None) -> dict:
    """Build a ``{key: TraceStream}`` mapping for the given (or all) trace keys."""
    selected = list(keys) if keys is not None else trace.keys
    return {key: TraceStream(trace, key) for key in selected}
