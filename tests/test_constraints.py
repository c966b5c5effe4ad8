"""Unit tests for precision-constraint generation."""

import math
import random

import pytest

from repro.queries.constraints import (
    ConstraintDistribution,
    PrecisionConstraintGenerator,
)


class TestDistribution:
    def test_range_from_average_and_variation(self):
        generator = PrecisionConstraintGenerator(average=100.0, variation=0.5)
        dist = generator.distribution
        assert dist.minimum == pytest.approx(50.0)
        assert dist.maximum == pytest.approx(150.0)
        assert dist.average == pytest.approx(100.0)

    def test_zero_variation_collapses_range(self):
        dist = PrecisionConstraintGenerator(average=20.0, variation=0.0).distribution
        assert dist.minimum == dist.maximum == 20.0

    def test_variation_one_spans_zero_to_double(self):
        dist = PrecisionConstraintGenerator(average=20.0, variation=1.0).distribution
        assert dist.minimum == 0.0
        assert dist.maximum == 40.0

    def test_variation_above_one_clamps_minimum_at_zero(self):
        dist = PrecisionConstraintGenerator(average=20.0, variation=2.0).distribution
        assert dist.minimum == 0.0

    def test_distribution_validation(self):
        with pytest.raises(ValueError):
            ConstraintDistribution(minimum=-1.0, maximum=1.0)
        with pytest.raises(ValueError):
            ConstraintDistribution(minimum=5.0, maximum=1.0)
        with pytest.raises(ValueError):
            ConstraintDistribution(minimum=math.nan, maximum=1.0)

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            PrecisionConstraintGenerator(average=-1.0)
        with pytest.raises(ValueError):
            PrecisionConstraintGenerator(average=1.0, variation=-0.1)
        with pytest.raises(ValueError):
            PrecisionConstraintGenerator(average=math.nan)
        with pytest.raises(ValueError):
            PrecisionConstraintGenerator(average=1.0, variation=math.nan)
        with pytest.raises(ValueError):
            # inf * (1 - 1) is NaN: the range would have no lower end.
            PrecisionConstraintGenerator(average=math.inf, variation=1.0)


class TestSampling:
    def test_samples_within_range(self):
        generator = PrecisionConstraintGenerator(
            average=100.0, variation=0.5, rng=random.Random(0)
        )
        for _ in range(200):
            sample = generator.sample()
            assert 50.0 <= sample <= 150.0

    def test_zero_average_always_zero(self):
        generator = PrecisionConstraintGenerator(average=0.0, variation=1.0)
        assert all(generator.sample() == 0.0 for _ in range(10))

    def test_zero_variation_always_average(self):
        generator = PrecisionConstraintGenerator(average=42.0, variation=0.0)
        assert all(generator.sample() == 42.0 for _ in range(10))

    def test_sample_mean_approximates_average(self):
        generator = PrecisionConstraintGenerator(
            average=100.0, variation=1.0, rng=random.Random(1)
        )
        samples = [generator.sample() for _ in range(5000)]
        assert sum(samples) / len(samples) == pytest.approx(100.0, rel=0.05)

    def test_reproducible_with_seed(self):
        first = PrecisionConstraintGenerator(100.0, 1.0, rng=random.Random(3))
        second = PrecisionConstraintGenerator(100.0, 1.0, rng=random.Random(3))
        assert [first.sample() for _ in range(5)] == [second.sample() for _ in range(5)]

    def test_accessors(self):
        generator = PrecisionConstraintGenerator(average=10.0, variation=0.25)
        assert generator.average == 10.0
        assert generator.variation == 0.25


class TestFromBounds:
    def test_round_trip(self):
        generator = PrecisionConstraintGenerator.from_bounds(50.0, 150.0)
        dist = generator.distribution
        assert dist.minimum == pytest.approx(50.0)
        assert dist.maximum == pytest.approx(150.0)

    def test_zero_to_positive_range(self):
        generator = PrecisionConstraintGenerator.from_bounds(0.0, 100.0)
        dist = generator.distribution
        assert dist.minimum == pytest.approx(0.0)
        assert dist.maximum == pytest.approx(100.0)

    def test_degenerate_zero_range(self):
        generator = PrecisionConstraintGenerator.from_bounds(0.0, 0.0)
        assert generator.sample() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PrecisionConstraintGenerator.from_bounds(-1.0, 1.0)
        with pytest.raises(ValueError):
            PrecisionConstraintGenerator.from_bounds(5.0, 1.0)
        with pytest.raises(ValueError):
            PrecisionConstraintGenerator.from_bounds(math.nan, 1.0)
