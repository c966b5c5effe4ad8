"""Property tests for the pluggable stream-generation engines.

Two families of guarantees:

* the **reference engine** must replay the historical scalar ``random.Random``
  loops draw for draw (byte-identity with the committed figure tables), and
* the **vector engine** must be statistically equivalent — same walk-step
  mean/variance, exponential Poisson inter-arrivals (KS check) — while being
  free to use different random sequences.
"""

import math
import random

import pytest

from repro.data.engine import (
    DEFAULT_ENGINE,
    ENGINE_NAMES,
    ReferenceEngine,
    VectorEngine,
    get_engine,
)
from repro.data.random_walk import RandomWalkGenerator
from repro.data.streams import CounterStream, RandomWalkStream
from repro.data.traffic import SyntheticTrafficTraceGenerator

REFERENCE = get_engine("reference")
VECTOR = get_engine("vector")


class TestRegistry:
    def test_engine_names(self):
        assert ENGINE_NAMES == ("reference", "vector")
        assert DEFAULT_ENGINE == "reference"

    def test_get_engine_returns_shared_instances(self):
        assert get_engine("reference") is REFERENCE
        assert isinstance(REFERENCE, ReferenceEngine)
        assert isinstance(VECTOR, VectorEngine)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown stream engine"):
            get_engine("warp")


class TestReferenceByteIdentity:
    """The reference engine replicates the legacy scalar loops exactly."""

    def test_walk_values_match_legacy_step_loop(self):
        values = REFERENCE.walk_values(random.Random(5), 10.0, 500, 0.5, 1.5, 0.6)
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

    def test_walk_batch_equals_scalar_steps(self):
        batched = RandomWalkGenerator(rng=random.Random(3)).steps_array(200)
        scalar_walk = RandomWalkGenerator(rng=random.Random(3))
        assert batched == [scalar_walk.step() for _ in range(200)]

    def test_schedule_times_match_accumulation_loop(self):
        times = REFERENCE.schedule_times(0.3, 10.0)
        expected, time = [], 0.3
        while time <= 10.0 + 1e-9:
            expected.append(round(time, 9))
            time += 0.3
        assert times == expected

    def test_poisson_times_match_expovariate_loop(self):
        times = REFERENCE.poisson_times(random.Random(11), 2.0, 300.0)
        rng = random.Random(11)
        expected, time = [], 0.0
        while True:
            time += rng.expovariate(0.5)
            if time > 300.0:
                break
            expected.append(time)
        assert times == expected

    def test_fill_burst_matches_jitter_loop(self):
        series = REFERENCE.new_series(80)
        REFERENCE.fill_burst(random.Random(2), series, 8, 64, 1e6, 1.2e6)
        rng = random.Random(2)
        expected = [0.0] * 80
        for index in range(8, 72):
            expected[index] = min(1e6 * rng.uniform(0.7, 1.3), 1.2e6)
        assert series == expected

    def test_finalize_series_matches_smooth_then_clamp(self):
        from repro.data.trace import moving_window_average

        series = REFERENCE.new_series(50)
        REFERENCE.fill_burst(random.Random(4), series, 5, 30, 4e6, 5.2e6)
        finalized = REFERENCE.finalize_series(series, 10, 0.0, 5.2e6)
        expected = [
            min(max(value, 0.0), 5.2e6)
            for value in moving_window_average(series, 10)
        ]
        assert finalized == expected

    def test_traffic_generator_defaults_to_reference(self):
        generator = SyntheticTrafficTraceGenerator(host_count=2, duration_seconds=120)
        assert generator.engine is REFERENCE


class TestEngineConsistency:
    """Both engines satisfy the stream contracts."""

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_updates_equals_schedule(self, name):
        engine = get_engine(name)
        build = lambda: RandomWalkStream(  # noqa: E731 - tiny local factory
            RandomWalkGenerator(start=50.0, rng=engine.rng(4), engine=engine)
        )
        assert list(build().updates(40.0)) == list(zip(*build().schedule(40.0)))

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_poisson_counter_updates_equals_schedule(self, name):
        engine = get_engine(name)
        build = lambda: CounterStream(  # noqa: E731 - tiny local factory
            mean_interval=1.5, poisson=True, rng=engine.rng(8), engine=engine
        )
        assert list(build().updates(100.0)) == list(zip(*build().schedule(100.0)))

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_poisson_times_sorted_within_horizon(self, name):
        engine = get_engine(name)
        times = engine.poisson_times(engine.rng(0), 1.0, 200.0)
        assert times == sorted(times)
        assert all(0.0 < time <= 200.0 for time in times)

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_trace_smoothed_accepts_engine(self, name):
        from repro.data.trace import Trace

        engine = get_engine(name)
        trace = Trace(series={"a": [float(value % 9) for value in range(120)]})
        smoothed = trace.smoothed(60.0, engine=engine)
        baseline = trace.smoothed(60.0)
        assert len(smoothed.series["a"]) == 120
        for ours, reference in zip(smoothed.series["a"], baseline.series["a"]):
            assert ours == pytest.approx(reference, rel=1e-12)

    def test_incomplete_stream_subclass_raises_cleanly(self):
        from repro.data.streams import UpdateStream

        class Incomplete(UpdateStream):
            @property
            def initial_value(self):
                return 0.0

        with pytest.raises(NotImplementedError, match="Incomplete"):
            Incomplete().schedule(10.0)
        with pytest.raises(NotImplementedError, match="Incomplete"):
            list(Incomplete().updates(10.0))

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_moving_average_matches_reference_shape(self, name):
        engine = get_engine(name)
        series = [float(value % 7) for value in range(100)]
        averaged = engine.moving_average(series, 10)
        assert len(averaged) == len(series)
        assert averaged[0] == pytest.approx(series[0])
        assert averaged[-1] == pytest.approx(sum(series[-10:]) / 10)

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_new_series_round_trips_as_plain_floats(self, name):
        engine = get_engine(name)
        series = engine.new_series(6)
        engine.fill_burst(engine.rng(1), series, 2, 3, 100.0, 120.0)
        as_list = engine.as_list(series)
        assert len(as_list) == 6
        assert as_list[:2] == [0.0, 0.0] and as_list[5] == 0.0
        assert all(type(value) is float for value in as_list)
        assert all(70.0 <= value <= 120.0 for value in as_list[2:5])

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_finalize_series_clamps(self, name):
        engine = get_engine(name)
        series = engine.new_series(4)
        engine.fill_burst(engine.rng(0), series, 0, 4, 10.0, 13.0)
        # Jittered values lie in [7, 13], so every windowed average exceeds
        # the cap of 6 and the clamp must flatten the whole series.
        finalized = engine.finalize_series(series, 2, 0.0, 6.0)
        assert finalized == [6.0] * 4

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_deterministic_per_seed(self, name):
        engine = get_engine(name)
        first = engine.walk_values(engine.rng(17), 0.0, 100, 0.5, 1.5, 0.5)
        second = engine.walk_values(engine.rng(17), 0.0, 100, 0.5, 1.5, 0.5)
        assert first == second


def _walk_deltas(engine, seed, count, up_probability=0.5):
    values = engine.walk_values(engine.rng(seed), 0.0, count, 0.5, 1.5, up_probability)
    return [b - a for a, b in zip([0.0] + values, values)]


class TestVectorStatisticalEquivalence:
    """The vector engine draws from the same distributions as the reference."""

    def test_walk_step_mean_and_variance(self):
        count = 40_000
        for engine in (REFERENCE, VECTOR):
            deltas = _walk_deltas(engine, seed=13, count=count)
            mean = sum(deltas) / count
            variance = sum(delta * delta for delta in deltas) / count
            # magnitude ~ U(0.5, 1.5) with a random sign: E=0, E[m^2]=13/12.
            assert mean == pytest.approx(0.0, abs=0.02)
            assert variance == pytest.approx(13.0 / 12.0, rel=0.03)

    def test_biased_walk_drift(self):
        count = 40_000
        for engine in (REFERENCE, VECTOR):
            deltas = _walk_deltas(engine, seed=13, count=count, up_probability=0.8)
            mean = sum(deltas) / count
            # E[delta] = (2p - 1) * E[magnitude] = 0.6 * 1.0
            assert mean == pytest.approx(0.6, rel=0.05)

    def test_poisson_interarrival_ks(self):
        # One-sample Kolmogorov-Smirnov distance between the empirical
        # inter-arrival distribution and Exponential(mean).  Seeds fixed, so
        # the check is deterministic; the bound is ~1.63/sqrt(n), the 1%
        # critical value.
        mean = 2.0
        for engine in (REFERENCE, VECTOR):
            times = engine.poisson_times(engine.rng(29), mean, 40_000.0)
            gaps = sorted(b - a for a, b in zip([0.0] + times, times))
            count = len(gaps)
            assert count > 10_000
            distance = max(
                max(
                    (index + 1) / count - (1.0 - math.exp(-gap / mean)),
                    (1.0 - math.exp(-gap / mean)) - index / count,
                )
                for index, gap in enumerate(gaps)
            )
            assert distance < 1.63 / math.sqrt(count)

    def test_poisson_rate(self):
        times = VECTOR.poisson_times(VECTOR.rng(1), 2.0, 20_000.0)
        assert len(times) == pytest.approx(10_000, rel=0.05)

    def test_burst_fill_distribution(self):
        count = 20_000
        series = VECTOR.new_series(count)
        VECTOR.fill_burst(VECTOR.rng(3), series, 0, count, 1e6, 5.2e6)
        values = VECTOR.as_list(series)
        assert all(0.7e6 <= value <= 1.3e6 for value in values)
        assert sum(values) / len(values) == pytest.approx(1e6, rel=0.01)

    def test_vector_trace_spans_reference_range(self):
        reference = SyntheticTrafficTraceGenerator(
            host_count=6, duration_seconds=400, seed=9
        ).generate()
        vector = SyntheticTrafficTraceGenerator(
            host_count=6, duration_seconds=400, seed=9, engine=VECTOR
        ).generate()
        assert set(vector.series) == set(reference.series)
        assert vector.length == reference.length
        flat = [value for values in vector.series.values() for value in values]
        assert min(flat) >= 0.0
        assert max(flat) <= 5.2e6
        # Bursty ON/OFF traffic: both engines must show idle time somewhere.
        assert any(min(values) == 0.0 for values in vector.series.values())

    def test_vector_engine_completes_hundred_source_section45_run(self):
        # The acceptance-scale smoke: a section45-style cell at a 100-source
        # population runs end to end on the vector data plane and produces a
        # sane cost rate.
        from repro.experiments.section45_variations import variation_rows

        rows = variation_rows(
            up_probability=0.5,
            variant="centred",
            duration=300.0,
            source_count=100,
            seed=23,
            engine="vector",
        )
        assert len(rows) == 1
        walk_kind, variant_label, cost_rate = rows[0]
        assert walk_kind == "unbiased walk"
        assert cost_rate > 0.0

    def test_vector_values_are_plain_floats(self):
        # JSON trace caching and the simulator's tuple timelines require
        # Python floats, not numpy scalars.
        values = VECTOR.walk_values(VECTOR.rng(0), 0.0, 5, 0.5, 1.5, 0.5)
        times = VECTOR.schedule_times(1.0, 5.0)
        assert all(type(value) is float for value in values)
        assert all(type(time) is float for time in times)
