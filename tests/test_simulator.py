"""Unit and small integration tests for the cache simulator."""

import math
import random
from typing import Dict, Iterator, Tuple

import pytest

from repro.caching.policies.adaptive import AdaptivePrecisionPolicy
from repro.caching.policies.exact_caching import ExactCachingPolicy
from repro.caching.policies.static import StaticWidthPolicy
from repro.core.parameters import PrecisionParameters
from repro.data.streams import UpdateStream
from repro.queries.aggregates import AggregateKind
from repro.simulation.config import SimulationConfig
from repro.simulation.simulator import CacheSimulation, run_simulation


class ScriptedStream(UpdateStream):
    """An update stream replaying a fixed list of (time, value) events."""

    def __init__(self, initial: float, events):
        self._initial = initial
        self._events = list(events)

    @property
    def initial_value(self) -> float:
        return self._initial

    def updates(self, duration: float) -> Iterator[Tuple[float, float]]:
        for time, value in self._events:
            if time <= duration:
                yield (time, value)


def _config(**overrides) -> SimulationConfig:
    defaults = dict(
        duration=10.0,
        warmup=0.0,
        query_period=1.0,
        query_size=1,
        constraint_average=0.0,
        constraint_variation=0.0,
        value_refresh_cost=1.0,
        query_refresh_cost=2.0,
        seed=0,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestBasicProtocol:
    def test_static_constant_value_costs_one_initial_fetch(self):
        # A value that never changes: the first (exact-precision) query fetches
        # it once; afterwards the exact cached copy answers everything free.
        streams = {"a": ScriptedStream(5.0, [])}
        policy = StaticWidthPolicy(width=0.0)
        result = run_simulation(_config(), streams, policy)
        assert result.query_refresh_count == 1
        assert result.value_refresh_count == 0
        assert result.total_cost == pytest.approx(2.0)

    def test_every_update_refreshes_exact_copy(self):
        # Width 0 cached copy plus a value that changes every second: after the
        # first query installs the copy, every change pushes a value refresh.
        events = [(float(t), float(t)) for t in range(1, 11)]
        streams = {"a": ScriptedStream(0.0, events)}
        policy = StaticWidthPolicy(width=0.0)
        result = run_simulation(_config(constraint_average=0.0), streams, policy)
        assert result.value_refresh_count > 0
        assert result.query_refresh_count == 1

    def test_wide_static_interval_avoids_all_refreshes_for_loose_queries(self):
        events = [(float(t), math.sin(t)) for t in range(1, 11)]
        streams = {"a": ScriptedStream(0.0, events)}
        policy = StaticWidthPolicy(width=100.0)
        config = _config(constraint_average=1000.0)
        result = run_simulation(config, streams, policy)
        # One initial fetch (cache empty, unbounded approx fails the constraint
        # only if constraint < inf) -- with a finite constraint the first query
        # must fetch; afterwards the wide interval absorbs everything.
        assert result.value_refresh_count == 0
        assert result.query_refresh_count == 1

    def test_unchanged_updates_are_not_modifications(self):
        # Re-reporting the same value must not trigger refreshes of an exact copy.
        events = [(float(t), 5.0) for t in range(1, 11)]
        streams = {"a": ScriptedStream(5.0, events)}
        policy = StaticWidthPolicy(width=0.0)
        result = run_simulation(_config(), streams, policy)
        assert result.value_refresh_count == 0

    def test_infinite_constraint_queries_never_refresh(self):
        events = [(float(t), float(t) * 10.0) for t in range(1, 11)]
        streams = {"a": ScriptedStream(0.0, events)}
        policy = StaticWidthPolicy(width=1.0)
        config = _config(constraint_average=math.inf)
        # Infinite average constraint is not allowed by the config validation;
        # emulate "no precision requirement" with a huge constraint instead.
        config = _config(constraint_average=1e18)
        result = run_simulation(config, streams, policy)
        assert result.query_refresh_count <= 1

    def test_cost_accounting_matches_refresh_counts(self):
        events = [(float(t), float(t)) for t in range(1, 11)]
        streams = {"a": ScriptedStream(0.0, events)}
        policy = AdaptivePrecisionPolicy(
            PrecisionParameters(), initial_width=1.0, rng=random.Random(0)
        )
        config = _config(
            constraint_average=5.0, value_refresh_cost=1.0, query_refresh_cost=2.0
        )
        result = run_simulation(config, streams, policy)
        expected = result.value_refresh_count * 1.0 + result.query_refresh_count * 2.0
        assert result.total_cost == pytest.approx(expected)

    def test_simulation_can_only_run_once(self):
        streams = {"a": ScriptedStream(0.0, [])}
        simulation = CacheSimulation(_config(), streams, StaticWidthPolicy(1.0))
        simulation.run()
        with pytest.raises(RuntimeError):
            simulation.run()

    def test_requires_at_least_one_stream(self):
        with pytest.raises(ValueError):
            CacheSimulation(_config(), {}, StaticWidthPolicy(1.0))


class TestAdaptiveBehaviourInSimulation:
    def test_adaptive_widths_grow_under_volatile_data_and_loose_queries(self):
        # Data jumps wildly; queries are rare and loose -> the best width is
        # large, so the controller should grow it well beyond its initial value.
        events = [(float(t), (-100.0) ** (t % 2) * t) for t in range(1, 40)]
        streams = {"a": ScriptedStream(0.0, events)}
        policy = AdaptivePrecisionPolicy(
            PrecisionParameters(), initial_width=1.0, rng=random.Random(1)
        )
        config = _config(duration=40.0, query_period=20.0, constraint_average=1e6)
        run_simulation(config, streams, policy)
        assert policy.current_width("a") > 1.0

    def test_adaptive_widths_shrink_under_stable_data_and_tight_queries(self):
        events = [(float(t), 0.001 * t) for t in range(1, 40)]
        streams = {"a": ScriptedStream(0.0, events)}
        policy = AdaptivePrecisionPolicy(
            PrecisionParameters(), initial_width=1000.0, rng=random.Random(2)
        )
        config = _config(duration=40.0, query_period=1.0, constraint_average=0.5)
        run_simulation(config, streams, policy)
        assert policy.current_width("a") < 1000.0

    def test_final_widths_reported_for_adaptive_policy(self):
        events = [(float(t), float(t)) for t in range(1, 10)]
        streams = {"a": ScriptedStream(0.0, events)}
        policy = AdaptivePrecisionPolicy(
            PrecisionParameters(), initial_width=1.0, rng=random.Random(3)
        )
        result = run_simulation(_config(constraint_average=3.0), streams, policy)
        assert "a" in result.final_widths

    def test_final_widths_empty_for_policies_without_controllers(self):
        streams = {"a": ScriptedStream(0.0, [])}
        result = run_simulation(_config(), streams, StaticWidthPolicy(1.0))
        assert result.final_widths == {}


class TestCapacityAndEvictionNotification:
    def _streams(self, count) -> Dict[str, ScriptedStream]:
        return {
            f"s{i}": ScriptedStream(
                0.0, [(float(t), float(t * (i + 1))) for t in range(1, 20)]
            )
            for i in range(count)
        }

    def test_cache_respects_capacity(self):
        streams = self._streams(6)
        policy = AdaptivePrecisionPolicy(
            PrecisionParameters(), initial_width=5.0, rng=random.Random(4)
        )
        config = _config(
            duration=20.0, cache_capacity=3, query_size=3, constraint_average=2.0
        )
        simulation = CacheSimulation(config, streams, policy)
        simulation.run()
        assert len(simulation.cache) <= 3

    def test_exact_caching_policy_uncached_values_not_tracked_by_source(self):
        # With the WJH97 policy, a write-heavy value is decided "do not cache";
        # after that decision the source stops pushing refreshes for it.
        events = [(float(t), float(t)) for t in range(1, 30)]
        streams = {"a": ScriptedStream(0.0, events)}
        policy = ExactCachingPolicy(reevaluation_window=4)
        config = _config(duration=30.0, query_period=10.0, constraint_average=0.0)
        simulation = CacheSimulation(config, streams, policy)
        simulation.run()
        assert simulation.sources["a"].is_tracked is False

    def test_tracked_key_time_series_recorded(self):
        events = [(float(t), float(t)) for t in range(1, 10)]
        streams = {"a": ScriptedStream(0.0, events)}
        policy = AdaptivePrecisionPolicy(
            PrecisionParameters(), initial_width=2.0, rng=random.Random(5)
        )
        config = _config(constraint_average=2.0, track_keys=("a",))
        result = run_simulation(config, streams, policy)
        assert len(result.interval_samples["a"]) > 0

    def test_max_queries_supported(self):
        streams = self._streams(4)
        policy = AdaptivePrecisionPolicy(
            PrecisionParameters(), initial_width=5.0, rng=random.Random(6)
        )
        config = _config(
            duration=20.0,
            query_size=3,
            aggregates=(AggregateKind.MAX,),
            constraint_average=1.0,
        )
        result = run_simulation(config, streams, policy)
        assert result.query_count > 0


class _WriteLoggingPolicy(AdaptivePrecisionPolicy):
    """The adaptive policy plus a write observer."""

    def __init__(self):
        super().__init__(PrecisionParameters(), initial_width=4.0, rng=random.Random(3))
        self.writes = []

    def record_write(self, key, time):
        self.writes.append((key, time))


class TestPolicyObservers:
    def test_write_observer_sees_each_modifying_update_in_order(self):
        # Identical grids make a lockstep walk, which applies a whole grid
        # instant per call; the write observer must still see each
        # modifying update once, instant by instant in key order, and never
        # a re-reported unchanged value.
        rng = random.Random(3)
        events = {
            f"s{index}": [
                (float(time), float(rng.choice((0, 1, 2, 5))))
                for time in range(1, 60)
            ]
            for index in range(6)
        }
        expected = []
        for order, (key, updates) in enumerate(events.items()):
            previous = 0.0
            for time, value in updates:
                if value != previous:
                    expected.append((time, order, key))
                previous = value
        expected.sort()
        streams = {key: ScriptedStream(0.0, updates) for key, updates in events.items()}
        config = _config(
            duration=60.0,
            query_size=3,
            constraint_average=2.0,
            track_keys=("s1", "s4"),
        )
        policy = _WriteLoggingPolicy()
        result = run_simulation(config, streams, policy)
        assert len(expected) < 6 * 59
        assert policy.writes == [(key, time) for time, _, key in expected]
        assert set(result.interval_samples) == {"s1", "s4"}
        assert all(result.interval_samples.values())
