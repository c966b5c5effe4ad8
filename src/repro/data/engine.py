"""Pluggable stream-generation engines: the vectorised data plane.

Every random quantity the data layer draws — random-walk steps, Poisson
update arrivals, bursty traffic seconds, moving-window smoothing — goes
through a :class:`StreamEngine`.  Two implementations cover the same split
the paper makes for cached values (an exact path and a fast
approximate-compatible path):

* :class:`ReferenceEngine` — the ``random.Random`` scalar sequences the
  committed figure tables were produced with.  Its batch methods draw from
  the RNG in exactly the same order as the historical per-step loops, so
  every seeded output is byte-identical to the pre-engine code.
* :class:`VectorEngine` — numpy ``Generator``-based batch synthesis.  Whole
  random-walk trajectories, Poisson timelines and burst segments are drawn
  as arrays, which is an order of magnitude faster at paper scale.  The
  sequences are statistically equivalent to the reference engine's but not
  bitwise equal (different RNG, different draw granularity), which is why
  engine selection is explicit: ``reference`` for the paper-exact figures,
  ``vector`` for scale sweeps.

Engines are identified by name (``SimulationConfig.engine``, CLI
``--engine``); :func:`get_engine` resolves a name to the shared instance.
"""

from __future__ import annotations

import functools
import random
from abc import ABC, abstractmethod
from typing import Any, ClassVar, Dict, List, Optional, Sequence, Tuple

from repro.data.trace import moving_window_average

#: Name of the engine reproducing the committed figure tables byte-for-byte.
DEFAULT_ENGINE = "reference"


#: Grids longer than this are rebuilt per call instead of memoised: the
#: lru_cache bounds entry count, not bytes, so paper-scale sweeps over many
#: distinct (interval, duration) pairs must not pin multi-million-entry
#: tuples for the process lifetime.
_SCHEDULE_CACHE_MAX_STEPS = 1_000_000


def _build_reference_schedule_times(interval: float, duration: float) -> List[float]:
    # Accumulates with repeated float additions (no closed-form multiply) so
    # the instants are bit-identical to the historical update loop.
    times: List[float] = []
    time = interval
    horizon = duration + 1e-9
    while time <= horizon:
        times.append(round(time, 9))
        time += interval
    return times


@functools.lru_cache(maxsize=16)
def _cached_reference_schedule_times(
    interval: float, duration: float
) -> Tuple[float, ...]:
    return tuple(_build_reference_schedule_times(interval, duration))


def _reference_schedule_times(interval: float, duration: float) -> List[float]:
    """The reference engine's periodic grid, memoised per (interval, duration).

    Every source of a run shares one grid, so small grids are cached as
    immutable tuples; grids past :data:`_SCHEDULE_CACHE_MAX_STEPS` bypass
    the cache to keep memory retention bounded by entries *and* bytes.
    """
    if duration / interval > _SCHEDULE_CACHE_MAX_STEPS:
        return _build_reference_schedule_times(interval, duration)
    return list(_cached_reference_schedule_times(interval, duration))


class StreamEngine(ABC):
    """Batch generation surface shared by all stream/trace generators.

    An engine owns two things: how per-stream randomness handles are created
    (:meth:`rng`) and how batches of random quantities are synthesised from
    such a handle.  Scalar draws (e.g. the per-host burst-model parameters in
    :mod:`repro.data.traffic`) go through the handle directly — both engines
    return handles exposing the ``random.Random`` scalar method names.
    """

    name: ClassVar[str]

    @abstractmethod
    def rng(self, seed: Optional[int] = None) -> Any:
        """Return a fresh randomness handle for one stream or generator.

        Reference handles are seeded :class:`random.Random` instances; vector
        handles wrap a numpy ``Generator`` while exposing the same scalar
        method names (``random``, ``uniform``, ``betavariate``,
        ``expovariate``, ``paretovariate``).
        """

    @abstractmethod
    def walk_values(
        self,
        rng: Any,
        start: float,
        count: int,
        step_low: float,
        step_high: float,
        up_probability: float,
    ) -> List[float]:
        """Advance a random walk ``count`` steps from ``start``.

        Returns the ``count`` successive values (not including ``start``).
        Each step moves by a magnitude uniform in ``[step_low, step_high]``,
        upward with probability ``up_probability``.
        """

    @abstractmethod
    def schedule_times(self, interval: float, duration: float) -> List[float]:
        """Return the periodic instants ``interval, 2*interval, ...`` up to
        ``duration`` (inclusive, with the kernel's 1e-9 horizon tolerance)."""

    @abstractmethod
    def poisson_times(
        self, rng: Any, mean_interval: float, horizon: float
    ) -> List[float]:
        """Return Poisson arrival times in ``(0, horizon]`` with the given
        mean inter-arrival gap."""

    @abstractmethod
    def new_series(self, length: int) -> Any:
        """Return a zero-filled per-second series container of ``length``.

        The container is engine-native (a Python list for the reference
        engine, a numpy array for the vector engine) so burst fills and
        smoothing avoid per-host conversions; :meth:`as_list` converts back
        to plain floats at the boundary.
        """

    @abstractmethod
    def fill_burst(
        self,
        rng: Any,
        series: Any,
        start: int,
        count: int,
        burst_rate: float,
        peak_rate: float,
    ) -> None:
        """Fill ``series[start : start + count]`` with one burst's traffic:
        the burst rate jittered uniformly in ``[0.7, 1.3]`` per second and
        capped at ``peak_rate``."""

    @abstractmethod
    def finalize_series(
        self, series: Any, window: int, low: float, high: float
    ) -> List[float]:
        """Smooth a raw series with a trailing ``window``-sample moving
        average, clamp into ``[low, high]``, and return plain floats."""

    @abstractmethod
    def as_list(self, series: Any) -> List[float]:
        """Convert an engine-native series container to a list of floats."""

    @abstractmethod
    def moving_average(self, values: Sequence[float], window: int) -> List[float]:
        """Trailing moving average with the given window (see
        :func:`repro.data.trace.moving_window_average`)."""

    def merge_timelines(
        self,
        times_per_source: Sequence[Sequence[float]],
        values_per_source: Sequence[Sequence[float]],
    ) -> Optional[Tuple[List[float], List[int], List[float]]]:
        """Batch-merge per-source schedules into one time-ordered stream.

        Returns ``(times, source_indices, values)`` flat lists sorted by
        time, or ``None`` when the engine has no batch merge or the merge
        would not be exact (two sources sharing an instant must be ordered
        by the kernel's dynamic tie-breaking, which a static sort cannot
        reproduce — see :mod:`repro.data.merged`).  The base implementation
        always returns ``None``; the reference engine inherits it because a
        pure-Python decorated sort would cost more than the heap replay it
        replaces.
        """
        return None


class ReferenceEngine(StreamEngine):
    """The paper-exact engine: ``random.Random`` scalar sequences.

    Batch methods replicate the historical per-step loops draw for draw, so
    seeded streams built through this engine reproduce every committed
    figure table byte-identically.
    """

    name = "reference"

    def rng(self, seed: Optional[int] = None) -> random.Random:
        return random.Random(seed)

    def walk_values(
        self,
        rng: random.Random,
        start: float,
        count: int,
        step_low: float,
        step_high: float,
        up_probability: float,
    ) -> List[float]:
        # One uniform draw then one direction draw per step, exactly like
        # count calls to the scalar step(); hot attributes bound locally.
        uniform = rng.uniform
        rand = rng.random
        value = start
        values: List[float] = []
        append = values.append
        for _ in range(count):
            magnitude = uniform(step_low, step_high)
            if rand() < up_probability:
                value += magnitude
            else:
                value -= magnitude
            append(value)
        return values

    def schedule_times(self, interval: float, duration: float) -> List[float]:
        # Returns a fresh list per call (callers may keep or alter it); the
        # underlying accumulation is memoised because every source of a run
        # typically shares one (interval, duration) grid.
        return _reference_schedule_times(interval, duration)

    def poisson_times(
        self, rng: random.Random, mean_interval: float, horizon: float
    ) -> List[float]:
        expovariate = rng.expovariate
        rate = 1.0 / mean_interval
        times: List[float] = []
        time = 0.0
        while True:
            time += expovariate(rate)
            if time > horizon:
                return times
            times.append(time)

    def new_series(self, length: int) -> List[float]:
        return [0.0] * length

    def fill_burst(
        self,
        rng: random.Random,
        series: List[float],
        start: int,
        count: int,
        burst_rate: float,
        peak_rate: float,
    ) -> None:
        # One jitter draw per second, in index order — the historical loop.
        uniform = rng.uniform
        for index in range(start, start + count):
            series[index] = min(burst_rate * uniform(0.7, 1.3), peak_rate)

    def finalize_series(
        self, series: List[float], window: int, low: float, high: float
    ) -> List[float]:
        return [
            min(max(value, low), high)
            for value in moving_window_average(series, window)
        ]

    def as_list(self, series: List[float]) -> List[float]:
        return series

    def moving_average(self, values: Sequence[float], window: int) -> List[float]:
        return moving_window_average(values, window)


class _VectorRandom:
    """Numpy-backed randomness handle with ``random.Random`` scalar names.

    Scalar draws let shared code (per-host burst models, single walk steps)
    run unchanged on either engine; batch generation goes straight to the
    underlying ``numpy.random.Generator`` via :attr:`generator`.
    """

    __slots__ = ("generator",)

    def __init__(self, generator: Any) -> None:
        self.generator = generator

    def random(self) -> float:
        return float(self.generator.random())

    def uniform(self, low: float, high: float) -> float:
        return float(self.generator.uniform(low, high))

    def betavariate(self, alpha: float, beta: float) -> float:
        return float(self.generator.beta(alpha, beta))

    def expovariate(self, lambd: float) -> float:
        return float(self.generator.exponential(1.0 / lambd))

    def paretovariate(self, alpha: float) -> float:
        # random.paretovariate samples 1 / U**(1/alpha); numpy's pareto is
        # the Lomax distribution, the same law shifted down by one.
        return float(self.generator.pareto(alpha)) + 1.0


class VectorEngine(StreamEngine):
    """Numpy batch synthesis: fast, statistically equivalent, not bit-equal.

    Whole trajectories are drawn as arrays (uniform magnitude vector, sign
    vector, cumulative sum) instead of one scalar pair per step.  Use it for
    scale sweeps and capacity planning; paper-exact figure regeneration must
    stay on :class:`ReferenceEngine`.
    """

    name = "vector"

    def __init__(self) -> None:
        self._np = None

    @property
    def numpy(self):
        """The numpy module, imported on first use with a clear error."""
        if self._np is None:
            try:
                import numpy
            except ImportError as exc:  # pragma: no cover - numpy is bundled
                raise RuntimeError(
                    "the 'vector' stream engine requires numpy; install numpy "
                    "or select --engine reference"
                ) from exc
            self._np = numpy
        return self._np

    def rng(self, seed: Optional[int] = None) -> _VectorRandom:
        np = self.numpy
        return _VectorRandom(np.random.Generator(np.random.PCG64(seed)))

    def walk_values(
        self,
        rng: _VectorRandom,
        start: float,
        count: int,
        step_low: float,
        step_high: float,
        up_probability: float,
    ) -> List[float]:
        np = self.numpy
        if count == 0:
            return []
        generator = rng.generator
        magnitudes = generator.uniform(step_low, step_high, count)
        upward = generator.random(count) < up_probability
        deltas = np.where(upward, magnitudes, -magnitudes)
        values = np.cumsum(deltas)
        values += start
        return values.tolist()

    def schedule_times(self, interval: float, duration: float) -> List[float]:
        np = self.numpy
        count = int((duration + 1e-9) / interval)
        times = np.arange(1, count + 1, dtype=np.float64) * interval
        return np.round(times, 9).tolist()

    def poisson_times(
        self, rng: _VectorRandom, mean_interval: float, horizon: float
    ) -> List[float]:
        np = self.numpy
        generator = rng.generator
        times: List[float] = []
        last = 0.0
        # Draw gap batches sized to overshoot the horizon slightly; keep
        # extending until one batch crosses it.
        chunk = max(int(horizon / mean_interval * 1.2) + 16, 16)
        while True:
            arrivals = np.cumsum(generator.exponential(mean_interval, chunk))
            arrivals += last
            cut = int(np.searchsorted(arrivals, horizon, side="right"))
            times.extend(arrivals[:cut].tolist())
            if cut < chunk:
                return times
            last = float(arrivals[-1])
            chunk = max(chunk // 4, 16)

    def new_series(self, length: int):
        return self.numpy.zeros(length, dtype=self.numpy.float64)

    def fill_burst(
        self,
        rng: _VectorRandom,
        series: Any,
        start: int,
        count: int,
        burst_rate: float,
        peak_rate: float,
    ) -> None:
        np = self.numpy
        burst = rng.generator.uniform(0.7, 1.3, count)
        burst *= burst_rate
        np.minimum(burst, peak_rate, out=burst)
        series[start : start + count] = burst

    def _moving_average_array(self, series: Any, window: int):
        np = self.numpy
        cumulative = np.cumsum(series)
        averages = np.empty_like(cumulative)
        head = min(window, int(series.size))
        averages[:head] = cumulative[:head] / np.arange(1, head + 1)
        if series.size > window:
            averages[window:] = (cumulative[window:] - cumulative[:-window]) / window
        return averages

    def finalize_series(
        self, series: Any, window: int, low: float, high: float
    ) -> List[float]:
        if window < 1:
            raise ValueError("window must be at least 1")
        np = self.numpy
        averages = self._moving_average_array(series, window)
        np.clip(averages, low, high, out=averages)
        return averages.tolist()

    def as_list(self, series: Any) -> List[float]:
        return series.tolist()

    def moving_average(self, values: Sequence[float], window: int) -> List[float]:
        if window < 1:
            raise ValueError("window must be at least 1")
        np = self.numpy
        series = np.asarray(values, dtype=np.float64)
        if series.size == 0:
            return []
        return self._moving_average_array(series, window).tolist()

    def merge_timelines(
        self,
        times_per_source: Sequence[Sequence[float]],
        values_per_source: Sequence[Sequence[float]],
    ) -> Optional[Tuple[List[float], List[int], List[float]]]:
        np = self.numpy
        lengths = [len(times) for times in times_per_source]
        total = sum(lengths)
        if total == 0:
            return [], [], []
        times = np.empty(total, dtype=np.float64)
        values = np.empty(total, dtype=np.float64)
        offset = 0
        for source_times, source_values, length in zip(
            times_per_source, values_per_source, lengths
        ):
            times[offset : offset + length] = source_times
            values[offset : offset + length] = source_values
            offset += length
        source_indices = np.repeat(
            np.arange(len(times_per_source), dtype=np.intp), lengths
        )
        # Stable sort: within one source, equal instants keep their FIFO
        # order (sources are concatenated contiguously); across sources, any
        # shared instant shows up as an adjacent equal-time pair from two
        # different sources, which is exactly the case a static merge cannot
        # order correctly — bail out and let the caller replay dynamically.
        order = np.argsort(times, kind="stable")
        sorted_times = times[order]
        sorted_sources = source_indices[order]
        tied = sorted_times[1:] == sorted_times[:-1]
        if bool(np.any(tied & (sorted_sources[1:] != sorted_sources[:-1]))):
            return None
        return (
            sorted_times.tolist(),
            sorted_sources.tolist(),
            values[order].tolist(),
        )


_ENGINES: Dict[str, StreamEngine] = {
    ReferenceEngine.name: ReferenceEngine(),
    VectorEngine.name: VectorEngine(),
}

#: The valid ``SimulationConfig.engine`` / CLI ``--engine`` values.
ENGINE_NAMES = tuple(sorted(_ENGINES))


def get_engine(name: str) -> StreamEngine:
    """Resolve an engine name to its shared instance."""
    try:
        return _ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown stream engine {name!r}; available: {', '.join(ENGINE_NAMES)}"
        ) from None
