"""Unit tests for the simulation configuration."""

import math
import random

import pytest

from repro.queries.aggregates import AggregateKind
from repro.simulation.config import SimulationConfig


def _config(**overrides):
    defaults = dict(duration=100.0)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestValidation:
    def test_minimal_config(self):
        config = _config()
        assert config.duration == 100.0
        assert config.query_period == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"duration": 0.0},
            {"warmup": -1.0},
            {"warmup": 100.0},
            {"query_period": 0.0},
            {"query_size": 0},
            {"aggregates": ()},
            {"constraint_average": -1.0},
            {"constraint_variation": -0.5},
            {"constraint_bounds": (-1.0, 5.0)},
            {"constraint_bounds": (5.0, 1.0)},
            {"cache_capacity": 0},
            {"value_refresh_cost": 0.0},
            {"query_refresh_cost": 0.0},
            # NaN compares false both ways, so a sign test alone lets it in.
            {"query_refresh_cost": math.nan},
            {"duration": math.nan},
            {"warmup": math.nan},
            {"query_period": math.nan},
            {"constraint_average": math.nan},
            {"constraint_variation": math.nan},
            {"constraint_bounds": (math.nan, 5.0)},
            {"value_refresh_cost": math.nan},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            _config(**kwargs)

    def test_warmup_must_be_shorter_than_duration(self):
        config = _config(warmup=50.0)
        assert config.warmup == 50.0


class TestDerived:
    def test_cost_factor(self):
        config = _config(value_refresh_cost=4.0, query_refresh_cost=2.0)
        assert config.cost_factor == pytest.approx(4.0)

    def test_constraint_generator_from_average_and_variation(self):
        config = _config(constraint_average=100.0, constraint_variation=0.5)
        generator = config.constraint_generator(random.Random(0))
        dist = generator.distribution
        assert dist.minimum == pytest.approx(50.0)
        assert dist.maximum == pytest.approx(150.0)

    def test_constraint_generator_from_bounds_overrides(self):
        config = _config(
            constraint_average=1.0,
            constraint_variation=0.0,
            constraint_bounds=(10.0, 30.0),
        )
        dist = config.constraint_generator(random.Random(0)).distribution
        assert dist.minimum == pytest.approx(10.0)
        assert dist.maximum == pytest.approx(30.0)

    def test_with_changes_returns_modified_copy(self):
        config = _config(query_period=1.0)
        changed = config.with_changes(query_period=5.0)
        assert changed.query_period == 5.0
        assert config.query_period == 1.0

    def test_default_aggregate_is_sum(self):
        assert _config().aggregates == (AggregateKind.SUM,)

    def test_track_keys_default_empty(self):
        assert _config().track_keys == ()
