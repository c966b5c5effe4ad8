"""Synthetic wide-area traffic trace (stand-in for the PF95 data set).

The paper's dynamic-environment experiments use "publicly available traces of
network traffic levels between hosts distributed over a wide area during a
two hour period [PF95]", smoothed into a one-minute moving-window average per
second, restricted to the 50 most heavily trafficked hosts, with values
ranging from 0 to 5.2 * 10**6 bytes per second.

The raw trace is not bundled with this reproduction, so this module generates
a synthetic equivalent preserving the properties the experiments depend on:

* per-host traffic alternates between idle periods and bursts ("a host became
  active after a period of inactivity" is exactly the regime Figures 4 and 5
  illustrate),
* burst durations are heavy-tailed (Pareto), reflecting the PF95 finding that
  Poisson models understate burstiness at every time scale,
* values are smoothed with the same one-minute moving window and span the
  same 0 .. ~5.2e6 range,
* hosts are heterogeneous — some are busy most of the time, others mostly
  idle — so that the cache and eviction experiments see skew.

Generation draws from one seeded ``random.Random`` in a fixed order, so a
seed always yields the same trace and the committed tables regenerate
byte-for-byte.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List

from repro.core.checks import at_least, positive, probability
from repro.data.trace import Trace, moving_window_average

#: The paper reports traffic levels from 0 to 5.2e6 bytes per second.
PAPER_PEAK_TRAFFIC = 5.2e6

#: The paper smooths traffic with a one-minute moving window.
PAPER_SMOOTHING_WINDOW_SECONDS = 60.0

#: The paper uses a two-hour trace.
PAPER_TRACE_DURATION_SECONDS = 7200

#: The paper keeps the 50 most heavily trafficked hosts.
PAPER_HOST_COUNT = 50


@dataclass(frozen=True)
class BurstModel:
    """Parameters of a single host's ON/OFF burst behaviour."""

    mean_off_seconds: float
    pareto_shape: float
    min_burst_seconds: float
    peak_rate: float
    activity_bias: float

    def __post_init__(self) -> None:
        positive("mean_off_seconds", self.mean_off_seconds, finite=True)
        if not self.pareto_shape > 1.0:
            raise ValueError("pareto_shape must exceed 1 (finite mean burst length)")
        positive("min_burst_seconds", self.min_burst_seconds, finite=True)
        positive("peak_rate", self.peak_rate, finite=True)
        probability("activity_bias", self.activity_bias)


class SyntheticTrafficTraceGenerator:
    """Generates a :class:`~repro.data.trace.Trace` of bursty host traffic.

    Parameters
    ----------
    host_count:
        Number of hosts (sources); the paper uses 50.
    duration_seconds:
        Trace length; the paper's trace covers two hours (7200 s).
    peak_rate:
        Upper end of the traffic range in bytes/second.
    smoothing_window_seconds:
        Length of the trailing moving-average window (60 s in the paper).
    seed:
        Seed for the internal random generator; the same seed always yields
        the same trace.
    """

    def __init__(
        self,
        host_count: int = PAPER_HOST_COUNT,
        duration_seconds: int = PAPER_TRACE_DURATION_SECONDS,
        peak_rate: float = PAPER_PEAK_TRAFFIC,
        smoothing_window_seconds: float = PAPER_SMOOTHING_WINDOW_SECONDS,
        seed: int = 0,
    ) -> None:
        self._host_count = at_least("host_count", host_count, 1, finite=True)
        at_least("duration_seconds", duration_seconds, 2, finite=True)
        self._duration = int(duration_seconds)
        self._peak_rate = positive("peak_rate", peak_rate, finite=True)
        self._window = at_least(
            "smoothing_window_seconds", smoothing_window_seconds, 1, finite=True
        )
        self._seed = seed

    # ------------------------------------------------------------------
    # Host heterogeneity
    # ------------------------------------------------------------------
    def _host_model(self, rng: random.Random) -> BurstModel:
        """Draw one host's burst parameters.

        Hosts differ in how often they are active and how heavy their bursts
        are, producing the skewed population the paper's cache-size
        experiments rely on.  These are a handful of scalar draws per host.
        """
        activity_bias = rng.betavariate(1.2, 2.0)
        mean_off = rng.uniform(30.0, 400.0) * (1.0 - 0.8 * activity_bias)
        pareto_shape = rng.uniform(1.2, 2.5)
        min_burst = rng.uniform(5.0, 30.0)
        peak_fraction = 0.15 + 0.85 * rng.betavariate(2.0, 2.0)
        return BurstModel(
            mean_off_seconds=mean_off,
            pareto_shape=pareto_shape,
            min_burst_seconds=min_burst,
            peak_rate=self._peak_rate * peak_fraction,
            activity_bias=activity_bias,
        )

    def _raw_host_series(self, model: BurstModel, rng: random.Random) -> List[float]:
        """Generate per-second raw (unsmoothed) traffic for one host.

        The ON/OFF state machine takes a few draws per burst; each burst
        second then takes one jitter draw, in index order.
        """
        values = [0.0] * self._duration
        uniform = rng.uniform
        peak_rate = self._peak_rate
        time = 0.0
        # Start some hosts mid-burst so the trace does not open fully idle.
        in_burst = rng.random() < model.activity_bias
        while time < self._duration:
            if in_burst:
                burst_length = model.min_burst_seconds * rng.paretovariate(
                    model.pareto_shape
                )
                burst_rate = model.peak_rate * rng.uniform(0.3, 1.0)
                end = min(time + burst_length, self._duration)
                second = int(time)
                for index in range(second, math.ceil(end)):
                    values[index] = min(burst_rate * uniform(0.7, 1.3), peak_rate)
                time = end
                in_burst = False
            else:
                off_length = rng.expovariate(1.0 / model.mean_off_seconds)
                time += max(off_length, 1.0)
                in_burst = True
        return values

    def _raw_series_map(self) -> Dict[str, List[float]]:
        """Raw per-host series, keyed by host name."""
        rng = random.Random(self._seed)
        series: Dict[str, List[float]] = {}
        for host_index in range(self._host_count):
            model = self._host_model(rng)
            series[f"host-{host_index:02d}"] = self._raw_host_series(model, rng)
        return series

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def generate(self) -> Trace:
        """Generate the smoothed multi-host trace.

        Each host's raw series is smoothed with the one-minute trailing
        window and clamped into ``[0, peak]`` (the running-sum average can
        leave tiny negative residues from floating-point cancellation, and
        traffic levels are physically >= 0).
        """
        # Raw series are sampled per second (sample_interval 1.0), so the
        # window in samples equals the window in seconds — the same value
        # Trace.smoothed would compute.
        window = max(int(round(self._window)), 1)
        peak_rate = self._peak_rate
        series = {
            key: [
                min(max(value, 0.0), peak_rate)
                for value in moving_window_average(values, window)
            ]
            for key, values in self._raw_series_map().items()
        }
        return Trace(series=series, sample_interval=1.0)

    def generate_raw(self) -> Trace:
        """Generate the unsmoothed per-second trace (useful for tests)."""
        return Trace(series=self._raw_series_map(), sample_interval=1.0)
