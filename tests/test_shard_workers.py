"""Concurrent shard workers reproduce the in-process sharded run.

These tests spawn real worker processes (small durations keep them fast) and
assert the merged :class:`SimulationResult` equals the serial sharded run's
field for field — the decomposability contract of
:mod:`repro.sharding.workers` under ``rho = 1`` policies.
"""

import math
import random

import pytest

from repro.caching.cache import ApproximateCache, CacheStatistics
from repro.caching.policies.adaptive import AdaptivePrecisionPolicy
from repro.caching.policies.static import StaticWidthPolicy
from repro.core.parameters import PrecisionParameters
from repro.data.random_walk import RandomWalkGenerator
from repro.data.streams import RandomWalkStream
from repro.sharding.coordinator import (
    ShardedCacheCoordinator,
    merge_cache_statistics,
)
from repro.simulation.config import SimulationConfig
from repro.simulation.simulator import CacheSimulation


def _walk_streams(count, seed=3):
    return {
        f"walk-{index}": RandomWalkStream(
            RandomWalkGenerator(start=100.0, rng=random.Random(seed * 100 + index))
        )
        for index in range(count)
    }


def _config(shards, shard_workers, **overrides):
    defaults = dict(
        duration=240.0,
        warmup=24.0,
        query_period=2.0,
        query_size=5,
        constraint_average=40.0,
        constraint_variation=1.0,
        seed=3,
        shards=shards,
        shard_workers=shard_workers,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def _adaptive_policy(seed=3):
    # rho = 1: growth and shrink probabilities are both exactly 1, so the
    # shared-RNG draws are outcome-independent and the run decomposes.
    return AdaptivePrecisionPolicy(
        PrecisionParameters(), initial_width=4.0, rng=random.Random(seed)
    )


def _assert_results_equal(serial, merged):
    assert merged.cost_rate == serial.cost_rate
    assert merged.total_cost == serial.total_cost
    assert merged.duration == serial.duration
    assert merged.value_refresh_count == serial.value_refresh_count
    assert merged.query_refresh_count == serial.query_refresh_count
    assert merged.value_refresh_rate == serial.value_refresh_rate
    assert merged.query_refresh_rate == serial.query_refresh_rate
    assert merged.query_count == serial.query_count
    assert merged.events_processed == serial.events_processed
    assert merged.cache_hit_rate == serial.cache_hit_rate
    assert merged.shard_hit_rates == serial.shard_hit_rates
    assert merged.final_widths == serial.final_widths
    assert merged.interval_samples == serial.interval_samples


@pytest.mark.parametrize("shard_workers", [2, 4])
def test_concurrent_equals_serial_sharded_run(shard_workers):
    serial = CacheSimulation(_config(4, 0), _walk_streams(8), _adaptive_policy()).run()
    merged = CacheSimulation(
        _config(4, shard_workers), _walk_streams(8), _adaptive_policy()
    ).run()
    _assert_results_equal(serial, merged)


def test_concurrent_equals_single_cache_run_when_unbounded():
    """The acceptance diff: unbounded capacity makes sharding invisible, so
    the concurrent sharded run must also equal the --shards 1 run."""
    single = CacheSimulation(_config(1, 0), _walk_streams(8), _adaptive_policy()).run()
    merged = CacheSimulation(_config(4, 2), _walk_streams(8), _adaptive_policy()).run()
    assert merged.cost_rate == single.cost_rate
    assert merged.total_cost == single.total_cost
    assert merged.value_refresh_count == single.value_refresh_count
    assert merged.query_refresh_count == single.query_refresh_count
    assert merged.events_processed == single.events_processed


def test_concurrent_with_capacity_bounded_shards():
    """Eviction is shard-local, so capacity-bounded runs decompose too."""
    serial = CacheSimulation(
        _config(4, 0, cache_capacity=5), _walk_streams(10), _adaptive_policy()
    ).run()
    merged = CacheSimulation(
        _config(4, 2, cache_capacity=5), _walk_streams(10), _adaptive_policy()
    ).run()
    _assert_results_equal(serial, merged)


def test_concurrent_with_tracked_keys_and_scheduler_kernel():
    """Workers honour config.kernel and partition tracked-key sampling."""
    kwargs = dict(track_keys=("walk-0", "walk-3", "walk-6"), kernel="scheduler")
    serial = CacheSimulation(
        _config(3, 0, **kwargs), _walk_streams(7), _adaptive_policy()
    ).run()
    merged = CacheSimulation(
        _config(3, 3, **kwargs), _walk_streams(7), _adaptive_policy()
    ).run()
    _assert_results_equal(serial, merged)


def test_concurrent_with_static_policy():
    serial = CacheSimulation(
        _config(4, 0), _walk_streams(6), StaticWidthPolicy(width=16.0)
    ).run()
    merged = CacheSimulation(
        _config(4, 2), _walk_streams(6), StaticWidthPolicy(width=16.0)
    ).run()
    _assert_results_equal(serial, merged)


def test_more_shards_than_populated_workers():
    """Workers owning no sources are skipped; their shards merge as empty."""
    serial = CacheSimulation(_config(8, 0), _walk_streams(3), _adaptive_policy()).run()
    merged = CacheSimulation(_config(8, 4), _walk_streams(3), _adaptive_policy()).run()
    _assert_results_equal(serial, merged)


def test_concurrent_with_mixed_aggregates_and_capacity():
    """MAX/MIN queries decode the merged rows (``ShmWorkerExchange.read_merged``)
    instead of screening widths; under evictions and tracked keys the
    merged run still equals the serial one."""
    from repro.queries.aggregates import AggregateKind

    kwargs = dict(
        aggregates=(AggregateKind.SUM, AggregateKind.MAX, AggregateKind.MIN),
        cache_capacity=6,
        track_keys=("walk-0", "walk-5"),
    )
    serial = CacheSimulation(
        _config(4, 0, **kwargs), _walk_streams(10), _adaptive_policy()
    ).run()
    merged = CacheSimulation(
        _config(4, 2, **kwargs), _walk_streams(10), _adaptive_policy()
    ).run()
    _assert_results_equal(serial, merged)


def test_nondecomposable_policy_warns():
    """rho != 1 makes the shared-RNG draws outcome-dependent: warn."""
    policy = AdaptivePrecisionPolicy(
        PrecisionParameters.for_cost_factor(4.0),
        initial_width=4.0,
        rng=random.Random(3),
    )
    simulation = CacheSimulation(_config(4, 2), _walk_streams(6), policy)
    with pytest.warns(RuntimeWarning, match="shard-worker execution reorders"):
        simulation.run()


def test_nondecomposable_warning_names_policy_parameters():
    """The warning spells out the offending rho and adaptivity values."""
    policy = AdaptivePrecisionPolicy(
        PrecisionParameters.for_cost_factor(4.0, adaptivity=1.0),
        initial_width=4.0,
        rng=random.Random(3),
    )
    simulation = CacheSimulation(_config(4, 2), _walk_streams(6), policy)
    with pytest.warns(RuntimeWarning) as captured:
        simulation.run()
    messages = [str(warning.message) for warning in captured]
    matching = [m for m in messages if "shard-worker execution reorders" in m]
    assert matching, messages
    assert "rho=4" in matching[0]
    assert "adaptivity=1" in matching[0]
    assert "exact for rho = 1 or adaptivity = 0" in matching[0]


def test_shard_worker_config_validation():
    with pytest.raises(ValueError, match="requires a sharded run"):
        SimulationConfig(duration=10.0, shards=1, shard_workers=2)
    with pytest.raises(ValueError, match="may not exceed the shard count"):
        SimulationConfig(duration=10.0, shards=2, shard_workers=3)
    with pytest.raises(ValueError, match="non-negative"):
        SimulationConfig(duration=10.0, shard_workers=-1)
    # 0 and 1 mean "in-process" and are valid without sharding.
    SimulationConfig(duration=10.0, shard_workers=1)


def test_shard_hit_rates_accessor_is_polymorphic():
    assert ApproximateCache().shard_hit_rates() == ()
    coordinator = ShardedCacheCoordinator(shard_count=3)
    assert coordinator.shard_hit_rates() == (0.0, 0.0, 0.0)


def test_merge_cache_statistics_rollup():
    first = CacheStatistics(insertions=3, evictions=1, hits=10, misses=2)
    second = CacheStatistics(insertions=2, evictions=0, hits=5, misses=3)
    merged = merge_cache_statistics([first, second])
    assert merged.insertions == 5
    assert merged.evictions == 1
    assert merged.hits == 15
    assert merged.misses == 5
    assert math.isclose(merged.hit_rate, 15 / 20)
    # The coordinator's statistics property goes through the same rollup.
    coordinator = ShardedCacheCoordinator(shard_count=2)
    assert coordinator.statistics == merge_cache_statistics(
        coordinator.shard_statistics
    )


# ---------------------------------------------------------------------------
# The shared-memory exchange: only constant-size tokens are pickled
# ---------------------------------------------------------------------------


def test_exchange_pickles_constant_bytes_per_tick():
    """The interval/value rows ride the shared-memory exchange array, so the
    coordinator pickles only constant-size control tokens: bytes per query
    tick are identical at a 5-key and a 25-key query fan-out.  The traffic
    is metered by the ``repro.obs`` registry counters."""
    from repro.obs.metrics import REGISTRY

    def bytes_per_tick(query_size):
        REGISTRY.reset()
        REGISTRY.enable()
        try:
            CacheSimulation(
                _config(4, 2, duration=120.0, warmup=12.0, query_size=query_size),
                _walk_streams(30),
                _adaptive_policy(),
            ).run()
            ticks = REGISTRY.value("repro_exchange_ticks_total")
            assert ticks > 0
            assert REGISTRY.value("repro_exchange_messages_total") > 0
            return REGISTRY.value("repro_exchange_bytes_pickled_total") / ticks
        finally:
            REGISTRY.disable()
            REGISTRY.reset()

    assert bytes_per_tick(5) == bytes_per_tick(25)
