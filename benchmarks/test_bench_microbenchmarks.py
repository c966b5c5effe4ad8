"""Microbenchmarks of the core primitives (real repeated-timing benchmarks).

Unlike the figure benchmarks (which run one large regeneration per test),
these measure the throughput of the hot paths a deployment would care about:
the width controller, the cache, refresh selection, and the simulator's event
loop.
"""

import random

from repro.caching.cache import ApproximateCache
from repro.caching.policies.adaptive import AdaptivePrecisionPolicy
from repro.core.parameters import PrecisionParameters
from repro.core.policy import AdaptiveWidthController
from repro.data.engine import get_engine
from repro.data.random_walk import RandomWalkGenerator
from repro.data.streams import RandomWalkStream
from repro.data.traffic import SyntheticTrafficTraceGenerator
from repro.intervals.interval import Interval
from repro.queries.refresh_selection import select_sum_refreshes
from repro.simulation.config import SimulationConfig
from repro.simulation.simulator import CacheSimulation

#: Scale of the data-plane generation benchmarks: a 100-host trace (twice the
#: paper's host population, a 900 s window so burst batches amortise numpy
#: call overhead) and 20k-step walk schedules.  The reference and vector rows
#: measure the same work on the two engines, so their ratio is the
#: vector-engine speedup recorded per PR in BENCH_micro.json.
BENCH_TRACE_HOSTS = 100
BENCH_TRACE_DURATION = 900
BENCH_WALK_STEPS = 20_000


def _generate_trace(engine_name):
    return SyntheticTrafficTraceGenerator(
        host_count=BENCH_TRACE_HOSTS,
        duration_seconds=BENCH_TRACE_DURATION,
        seed=7,
        engine=get_engine(engine_name),
    ).generate()


def _generate_walk_schedule(engine_name):
    engine = get_engine(engine_name)
    walk = RandomWalkGenerator(start=100.0, rng=engine.rng(11), engine=engine)
    return RandomWalkStream(walk).schedule(float(BENCH_WALK_STEPS))


def test_controller_adjustment_throughput(benchmark):
    controller = AdaptiveWidthController(
        PrecisionParameters(), initial_width=4.0, rng=random.Random(0)
    )

    def adjust_many():
        for _ in range(500):
            controller.on_value_initiated_refresh()
            controller.on_query_initiated_refresh()
        return controller.width

    width = benchmark(adjust_many)
    assert width > 0


def test_cache_put_get_throughput(benchmark):
    cache = ApproximateCache(capacity=256)
    rng = random.Random(1)

    def churn():
        for index in range(1000):
            key = index % 512
            cache.put(
                key,
                Interval.centered(rng.random(), rng.random()),
                rng.random(),
                float(index),
            )
            cache.get(key, float(index))
        return len(cache)

    size = benchmark(churn)
    assert size <= 256


def test_sum_refresh_selection_throughput(benchmark):
    rng = random.Random(2)
    intervals = {
        index: Interval.centered(rng.uniform(0, 100), rng.uniform(0, 50))
        for index in range(200)
    }

    def select():
        return select_sum_refreshes(intervals, constraint=500.0)

    refreshed = benchmark(select)
    assert isinstance(refreshed, list)


def test_columnar_sum_selection_throughput(benchmark):
    # The array twin of test_sum_refresh_selection_throughput: the same
    # 200-interval SUM selection off a width array.
    import numpy as np

    from repro.queries.refresh_selection import select_sum_refreshes_columnar

    rng = random.Random(2)
    intervals = [
        Interval.centered(rng.uniform(0, 100), rng.uniform(0, 50))
        for _ in range(200)
    ]
    keys = list(range(200))
    widths = np.array([interval.width for interval in intervals])

    def select():
        return select_sum_refreshes_columnar(keys, widths, constraint=500.0)

    refreshed = benchmark(select)
    assert isinstance(refreshed, list)


def test_trace_generation_reference_throughput(benchmark):
    trace = benchmark(_generate_trace, "reference")
    assert len(trace.keys) == BENCH_TRACE_HOSTS


def test_trace_generation_vector_throughput(benchmark):
    trace = benchmark(_generate_trace, "vector")
    assert len(trace.keys) == BENCH_TRACE_HOSTS


def test_walk_schedule_reference_throughput(benchmark):
    times, values = benchmark(_generate_walk_schedule, "reference")
    assert len(times) == len(values) == BENCH_WALK_STEPS


def test_walk_schedule_vector_throughput(benchmark):
    times, values = benchmark(_generate_walk_schedule, "vector")
    assert len(times) == len(values) == BENCH_WALK_STEPS


def _run_small_simulation():
    streams = {
        f"walk-{index}": RandomWalkStream(
            RandomWalkGenerator(start=100.0, rng=random.Random(index))
        )
        for index in range(5)
    }
    config = SimulationConfig(
        duration=200.0,
        warmup=20.0,
        query_period=1.0,
        query_size=3,
        constraint_average=20.0,
        constraint_variation=1.0,
        seed=3,
    )
    policy = AdaptivePrecisionPolicy(
        PrecisionParameters(), initial_width=4.0, rng=random.Random(3)
    )
    return CacheSimulation(config, streams, policy).run()


def test_simulator_event_throughput(benchmark):
    # The headline row: the whole-simulation event loop on the batch
    # kernel.
    result = benchmark(_run_small_simulation)
    assert result.duration > 0


def test_serving_loopback_query_throughput(benchmark):
    # The serving layer's hot path: one deterministic trace replay (updates
    # plus queries, every RPC awaited) against the loopback CacheServer.
    # Measures protocol framing, dispatch and async refresh selection.
    import asyncio

    from repro.data.traffic import SyntheticTrafficTraceGenerator
    from repro.experiments.workloads import serving_policy, traffic_config
    from repro.serving.loadgen import replay_trace_deterministic
    from repro.serving.server import CacheServer

    trace = SyntheticTrafficTraceGenerator(
        host_count=10, duration_seconds=120, seed=7
    ).generate()
    config = traffic_config(trace, seed=5).with_changes(warmup=0.0)

    def replay():
        async def drive():
            server = CacheServer(
                serving_policy(cost_factor=1.0, seed=5),
                value_refresh_cost=config.value_refresh_cost,
                query_refresh_cost=config.query_refresh_cost,
            )
            try:
                return await replay_trace_deterministic(server, trace, config)
            finally:
                await server.close()

        return asyncio.run(drive())

    report = benchmark(replay)
    assert report.queries > 0


def test_serving_loopback_metrics_throughput(benchmark):
    # The identical replay with the full metrics registry ENABLED (every
    # stats collector registered, the query-keys histogram observing each
    # query): the delta against test_serving_loopback_query_throughput is
    # the price of observability, which the PR-10 acceptance bounds at 5%.
    import asyncio

    from repro.data.traffic import SyntheticTrafficTraceGenerator
    from repro.experiments.workloads import serving_policy, traffic_config
    from repro.obs.metrics import MetricsRegistry
    from repro.serving.loadgen import replay_trace_deterministic
    from repro.serving.server import CacheServer

    trace = SyntheticTrafficTraceGenerator(
        host_count=10, duration_seconds=120, seed=7
    ).generate()
    config = traffic_config(trace, seed=5).with_changes(warmup=0.0)

    def replay():
        async def drive():
            server = CacheServer(
                serving_policy(cost_factor=1.0, seed=5),
                value_refresh_cost=config.value_refresh_cost,
                query_refresh_cost=config.query_refresh_cost,
                registry=MetricsRegistry(enabled=True),
            )
            try:
                return await replay_trace_deterministic(server, trace, config)
            finally:
                await server.close()

        return asyncio.run(drive())

    report = benchmark(replay)
    assert report.queries > 0
    assert report.hit_rate >= 0


def test_serving_loopback_wal_throughput(benchmark):
    # The identical replay with the write-ahead log on (fresh WAL directory
    # per round, default checkpoint cadence, the crash-safe 'checkpoint'
    # fsync policy): the WAL-on vs WAL-off delta against
    # test_serving_loopback_query_throughput is the price of durability.
    import asyncio
    import shutil
    import tempfile

    from repro.data.traffic import SyntheticTrafficTraceGenerator
    from repro.experiments.workloads import serving_policy, traffic_config
    from repro.serving.durability import PartitionDurability
    from repro.serving.loadgen import replay_trace_deterministic
    from repro.serving.server import CacheServer

    trace = SyntheticTrafficTraceGenerator(
        host_count=10, duration_seconds=120, seed=7
    ).generate()
    config = traffic_config(trace, seed=5).with_changes(warmup=0.0)

    def replay():
        wal_dir = tempfile.mkdtemp(prefix="bench-wal-")

        async def drive():
            server = CacheServer(
                serving_policy(cost_factor=1.0, seed=5),
                value_refresh_cost=config.value_refresh_cost,
                query_refresh_cost=config.query_refresh_cost,
                durability=PartitionDurability(wal_dir),
            )
            try:
                return await replay_trace_deterministic(server, trace, config)
            finally:
                await server.close()

        try:
            return asyncio.run(drive())
        finally:
            shutil.rmtree(wal_dir, ignore_errors=True)

    report = benchmark(replay)
    assert report.queries > 0
    assert report.server_stats["wal_records"] > 0


def test_gateway_partitioned_query_throughput(benchmark):
    # The same deterministic replay routed through the partitioned gateway
    # (two in-process partition servers): measures the gateway hop — key
    # routing, partition snapshots, global selection, routed refreshes —
    # relative to test_serving_loopback_query_throughput's direct path.
    import asyncio

    from repro.data.traffic import SyntheticTrafficTraceGenerator
    from repro.experiments.workloads import serving_policy, traffic_config
    from repro.serving.gateway import GatewayServer
    from repro.serving.loadgen import replay_trace_deterministic
    from repro.serving.server import CacheServer

    trace = SyntheticTrafficTraceGenerator(
        host_count=10, duration_seconds=120, seed=7
    ).generate()
    config = traffic_config(trace, seed=5).with_changes(warmup=0.0)

    def replay():
        async def drive():
            partitions = [
                CacheServer(
                    serving_policy(cost_factor=1.0, seed=5),
                    value_refresh_cost=config.value_refresh_cost,
                    query_refresh_cost=config.query_refresh_cost,
                )
                for _ in range(2)
            ]
            gateway = GatewayServer(partitions)
            await gateway.start()
            try:
                return await replay_trace_deterministic(gateway, trace, config)
            finally:
                await gateway.close()
                for partition in partitions:
                    await partition.close()

        return asyncio.run(drive())

    report = benchmark(replay)
    assert report.queries > 0
