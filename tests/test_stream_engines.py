"""Byte-identity tests for the seeded data plane.

Every generator must replay the historical scalar ``random.Random`` loops
draw for draw: that is what keeps every committed figure table
byte-identical.  Each test rebuilds the legacy loop independently and
compares it with the generator's batch output.
"""

import math
import random

import pytest

from repro.data.engine import DEFAULT_ENGINE
from repro.data.random_walk import RandomWalkGenerator
from repro.data.streams import CounterStream, RandomWalkStream, UpdateStream
from repro.data.trace import moving_window_average
from repro.data.traffic import SyntheticTrafficTraceGenerator


def _legacy_raw_trace(host_count, duration, seed, peak_rate):
    """The per-second raw traffic loop, one scalar draw at a time."""
    rng = random.Random(seed)
    series = {}
    for host_index in range(host_count):
        activity_bias = rng.betavariate(1.2, 2.0)
        mean_off = rng.uniform(30.0, 400.0) * (1.0 - 0.8 * activity_bias)
        pareto_shape = rng.uniform(1.2, 2.5)
        min_burst = rng.uniform(5.0, 30.0)
        host_peak = peak_rate * (0.15 + 0.85 * rng.betavariate(2.0, 2.0))
        values = [0.0] * duration
        time = 0.0
        in_burst = rng.random() < activity_bias
        while time < duration:
            if in_burst:
                burst_length = min_burst * rng.paretovariate(pareto_shape)
                burst_rate = host_peak * rng.uniform(0.3, 1.0)
                end = min(time + burst_length, duration)
                for index in range(int(time), math.ceil(end)):
                    values[index] = min(burst_rate * rng.uniform(0.7, 1.3), peak_rate)
                time = end
                in_burst = False
            else:
                time += max(rng.expovariate(1.0 / mean_off), 1.0)
                in_burst = True
        series[f"host-{host_index:02d}"] = values
    return series


class TestReferenceByteIdentity:
    """The generators replicate the legacy scalar loops exactly."""

    def test_walk_values_match_legacy_step_loop(self):
        walk = RandomWalkGenerator(
            step_low=0.5,
            step_high=1.5,
            up_probability=0.6,
            start=10.0,
            rng=random.Random(5),
        )
        values = walk.steps_array(500)
        rng = random.Random(5)
        expected, value = [], 10.0
        for _ in range(500):
            magnitude = rng.uniform(0.5, 1.5)
            if rng.random() < 0.6:
                value += magnitude
            else:
                value -= magnitude
            expected.append(value)
        assert values == expected
        assert walk.value == expected[-1]

    def test_walk_batch_equals_scalar_steps(self):
        batched = RandomWalkGenerator(rng=random.Random(3)).steps_array(200)
        scalar_walk = RandomWalkGenerator(rng=random.Random(3))
        assert batched == [scalar_walk.step() for _ in range(200)]

    def test_schedule_times_match_accumulation_loop(self):
        stream = RandomWalkStream(
            RandomWalkGenerator(rng=random.Random(0)), interval=0.3
        )
        times, _ = stream.schedule(10.0)
        expected, time = [], 0.3
        while time <= 10.0 + 1e-9:
            expected.append(round(time, 9))
            time += 0.3
        assert times == expected

    def test_poisson_times_match_expovariate_loop(self):
        stream = CounterStream(mean_interval=2.0, poisson=True, rng=random.Random(11))
        times, values = stream.schedule(300.0)
        rng = random.Random(11)
        expected, time = [], 0.0
        while True:
            time += rng.expovariate(0.5)
            if time > 300.0 + 1e-9:
                break
            expected.append(time)
        assert times == expected
        assert values == [float(count) for count in range(1, len(expected) + 1)]

    def test_fill_burst_matches_jitter_loop(self):
        raw = SyntheticTrafficTraceGenerator(
            host_count=4, duration_seconds=600, seed=2
        ).generate_raw()
        assert raw.series == _legacy_raw_trace(4, 600, 2, 5.2e6)

    def test_finalize_series_matches_smooth_then_clamp(self):
        generator = SyntheticTrafficTraceGenerator(
            host_count=3, duration_seconds=300, seed=4, peak_rate=1e6
        )
        expected = {
            key: [
                min(max(value, 0.0), 1e6)
                for value in moving_window_average(values, 60)
            ]
            for key, values in generator.generate_raw().series.items()
        }
        assert generator.generate().series == expected

    def test_traffic_generator_defaults_to_reference(self):
        # The workload trace builder takes the data plane's name as its
        # fourth positional argument (the benchmark harness passes it) and
        # rejects any other name.
        from repro.experiments.workloads import traffic_trace

        assert DEFAULT_ENGINE == "reference"
        trace = traffic_trace(3, 120, 9, DEFAULT_ENGINE)
        assert traffic_trace(3, 120, 9, DEFAULT_ENGINE) is trace
        assert traffic_trace(3, 120, 9).series == trace.series
        with pytest.raises(ValueError, match="data plane"):
            traffic_trace(3, 120, 9, "vector")


class TestStreamContracts:
    def test_incomplete_stream_subclass_raises_cleanly(self):
        class Incomplete(UpdateStream):
            @property
            def initial_value(self):
                return 0.0

        with pytest.raises(NotImplementedError, match="Incomplete"):
            Incomplete().schedule(10.0)
        with pytest.raises(NotImplementedError, match="Incomplete"):
            list(Incomplete().updates(10.0))
