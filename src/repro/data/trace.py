"""Trace containers and moving-window smoothing.

A :class:`Trace` holds, for each source, a sequence of values sampled at a
fixed interval (one second in all of the paper's experiments).  The network
monitoring data in the paper is "a one minute moving window average of
network traffic every second"; :func:`moving_window_average` implements that
smoothing.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Hashable, List, Mapping, Sequence


def moving_window_average(values: Sequence[float], window: int) -> List[float]:
    """Return the trailing moving average of ``values`` with the given window.

    The average at position ``i`` covers ``values[max(0, i - window + 1) : i + 1]``,
    so early positions average over however many samples exist (this matches
    how a monitoring system reports a one-minute average during its first
    minute).
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    averages: List[float] = []
    running = 0.0
    for index, value in enumerate(values):
        running += value
        if index >= window:
            running -= values[index - window]
        count = min(index + 1, window)
        averages.append(running / count)
    return averages


@dataclass
class Trace:
    """Per-source value sequences sampled at a fixed interval.

    Parameters
    ----------
    series:
        Mapping of source key to its value sequence.  All sequences must have
        the same length.
    sample_interval:
        Seconds between consecutive samples (1.0 in the paper).
    """

    series: Dict[Hashable, List[float]]
    sample_interval: float = 1.0
    # Replay grids memoised by :meth:`update_times`, one per duration.
    _update_times: Dict[float, List[float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.series:
            raise ValueError("a trace needs at least one series")
        if self.sample_interval <= 0:
            raise ValueError("sample_interval must be positive")
        lengths = {len(values) for values in self.series.values()}
        if len(lengths) != 1:
            raise ValueError("all series in a trace must have the same length")
        if 0 in lengths:
            raise ValueError("series must not be empty")

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def keys(self) -> List[Hashable]:
        """The source keys in the trace."""
        return list(self.series.keys())

    @property
    def length(self) -> int:
        """Number of samples per series."""
        return len(next(iter(self.series.values())))

    @property
    def duration(self) -> float:
        """Total covered time in seconds."""
        return self.length * self.sample_interval

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def value_at(self, key: Hashable, time: float) -> float:
        """Value of ``key`` at (the sample covering) ``time``."""
        if time < 0:
            raise ValueError("time must be non-negative")
        index = min(int(time / self.sample_interval), self.length - 1)
        return self.series[key][index]

    def initial_value(self, key: Hashable) -> float:
        """First sample of ``key``."""
        return self.series[key][0]

    def update_times(self, duration: float) -> List[float]:
        """The replay instants ``i * sample_interval`` (``i >= 1``) in
        ``(0, duration]``, with the kernel's 1e-9 horizon tolerance.

        Sample ``i`` of every series is replayed at the ``i - 1``-th entry.
        The list is memoised per duration and shared by every stream of
        this trace, so callers must not mutate it.
        """
        times = self._update_times.get(duration)
        if times is None:
            interval = self.sample_interval
            times = [index * interval for index in range(1, self.length)]
            # ``index * interval`` is monotone in ``index``, so the first
            # instant past the horizon is a bisection away.
            del times[bisect_right(times, duration + 1e-9) :]
            self._update_times[duration] = times
        return times

    def smoothed(self, window_seconds: float) -> "Trace":
        """Return a new trace smoothed by a trailing moving-window average."""
        window = max(int(round(window_seconds / self.sample_interval)), 1)
        return Trace(
            series={
                key: moving_window_average(values, window)
                for key, values in self.series.items()
            },
            sample_interval=self.sample_interval,
        )

    def restricted_to(self, keys: Sequence[Hashable]) -> "Trace":
        """Return a trace containing only the given keys."""
        missing = [key for key in keys if key not in self.series]
        if missing:
            raise KeyError(f"keys not in trace: {missing}")
        return Trace(
            series={key: list(self.series[key]) for key in keys},
            sample_interval=self.sample_interval,
        )

    def top_keys_by_total(self, count: int) -> List[Hashable]:
        """Return the ``count`` keys with the largest total value.

        The paper "picked the 50 most heavily trafficked hosts"; this helper
        performs that selection on any trace.
        """
        if count < 1:
            raise ValueError("count must be at least 1")
        ranked = sorted(
            self.series.items(), key=lambda item: sum(item[1]), reverse=True
        )
        return [key for key, _ in ranked[:count]]

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_json(self, path: Path) -> None:
        """Write the trace to a JSON file."""
        payload = {
            "sample_interval": self.sample_interval,
            "series": {str(key): values for key, values in self.series.items()},
        }
        Path(path).write_text(json.dumps(payload))

    @classmethod
    def from_json(cls, path: Path) -> "Trace":
        """Load a trace previously written by :meth:`to_json`."""
        payload = json.loads(Path(path).read_text())
        return cls(
            series={key: list(values) for key, values in payload["series"].items()},
            sample_interval=float(payload["sample_interval"]),
        )

    @classmethod
    def from_mapping(
        cls, series: Mapping[Hashable, Sequence[float]], sample_interval: float = 1.0
    ) -> "Trace":
        """Build a trace from any mapping of key to value sequence."""
        return cls(
            series={key: list(values) for key, values in series.items()},
            sample_interval=sample_interval,
        )
