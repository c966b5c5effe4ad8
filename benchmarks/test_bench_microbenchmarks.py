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
    # The columnar twin of test_sum_refresh_selection_throughput: the same
    # 200-interval SUM selection off a width array (the layout the columnar
    # simulator core and the shared-memory exchange hand in directly).
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


#: Scale of the shard-exchange microbenchmark: a 100-host population queried
#: at full fan-out, 2 simulated workers, 200 query ticks per round.
EXCHANGE_BENCH_HOSTS = 100
EXCHANGE_BENCH_TICKS = 200


def _exchange_bench_ticks():
    """Pre-draw the query sequence and per-worker owned entries.

    Workload generation and the owned-entry cache lookups are not part of
    the exchange, so the benchmark hoists them and times only the per-tick
    exchange: encode, the token round-trips, the coordinator merge, and each
    worker's refresh screen over the merged state.
    """
    from repro.queries.constraints import PrecisionConstraintGenerator
    from repro.queries.workload import QueryWorkload

    keys = [f"host-{index}" for index in range(EXCHANGE_BENCH_HOSTS)]
    workload = QueryWorkload(
        keys=keys,
        query_size=EXCHANGE_BENCH_HOSTS,
        period=1.0,
        constraint_generator=PrecisionConstraintGenerator(
            average=20.0, variation=1.0, rng=random.Random(5)
        ),
        rng=random.Random(4),
    )
    rng = random.Random(7)
    intervals = {
        key: Interval.centered(rng.uniform(0, 100), rng.uniform(0, 50))
        for key in keys
    }
    values = {key: rng.uniform(0, 100) for key in keys}
    owner = {key: index % 2 for index, key in enumerate(keys)}
    ticks = []
    time = 1.0
    for _ in range(EXCHANGE_BENCH_TICKS):
        query = workload.generate(time)
        time += 1.0
        locals_by_worker = tuple(
            {
                key: (intervals[key], values[key])
                for key in query.keys
                if owner[key] == worker
            }
            for worker in range(2)
        )
        owners = [owner[key] for key in query.keys]
        ticks.append((query, locals_by_worker, owners))
    return ticks


def test_exchange_shm_tick_throughput(benchmark):
    # The shared-memory exchange, per tick: workers encode owned rows into
    # their plane, pipes carry only constant-size tokens, the coordinator
    # merges with one fancy-indexed copy, and each worker screens widths
    # straight off the merged plane (no decode).  Both sides run in one
    # process (as they time-share the 1-core benchmark box anyway), over
    # real multiprocessing pipes.
    import multiprocessing

    import numpy as np

    from repro.queries.refresh_selection import select_sum_refreshes_columnar
    from repro.sharding.workers import ExchangeArray, ShmWorkerExchange

    ticks = _exchange_bench_ticks()

    def run_ticks():
        pipes = [multiprocessing.Pipe() for _ in range(2)]
        exchange = ExchangeArray(2, EXCHANGE_BENCH_HOSTS)
        views = [ShmWorkerExchange(exchange, plane) for plane in range(2)]
        planes = exchange.array
        merged_rows = planes[-1]
        positions = np.arange(EXCHANGE_BENCH_HOSTS)
        try:
            for query, locals_by_worker, owners in ticks:
                for (_, worker_end), view, local in zip(
                    pipes, views, locals_by_worker
                ):
                    view.write_tick(query, local)
                    worker_end.send(("tick", None))
                for coordinator_end, _ in pipes:
                    coordinator_end.recv()
                merged_rows[:] = planes[owners, positions]
                for coordinator_end, _ in pipes:
                    coordinator_end.send(None)
                for (_, worker_end), view in zip(pipes, views):
                    worker_end.recv()
                    rows = view.merged_rows()
                    widths = rows[:, 1] - rows[:, 0]
                    select_sum_refreshes_columnar(
                        query.keys, widths, query.constraint
                    )
        finally:
            for coordinator_end, worker_end in pipes:
                coordinator_end.close()
                worker_end.close()
            exchange.close()
            exchange.unlink()
        return len(ticks)

    count = benchmark(run_ticks)
    assert count == EXCHANGE_BENCH_TICKS


def test_trace_generation_reference_throughput(benchmark):
    trace = benchmark(_generate_trace, "reference")
    assert len(trace.keys) == BENCH_TRACE_HOSTS


def test_trace_generation_vector_throughput(benchmark):
    trace = benchmark(_generate_trace, "vector")
    assert len(trace.keys) == BENCH_TRACE_HOSTS


def test_walk_schedule_reference_throughput(benchmark):
    schedule = benchmark(_generate_walk_schedule, "reference")
    assert len(schedule) == BENCH_WALK_STEPS


def test_walk_schedule_vector_throughput(benchmark):
    schedule = benchmark(_generate_walk_schedule, "vector")
    assert len(schedule) == BENCH_WALK_STEPS


def _run_small_simulation(kernel="batch", shards=1, shard_workers=0):
    streams = {
        f"walk-{index}": RandomWalkStream(
            RandomWalkGenerator(start=100.0, rng=random.Random(index))
        )
        for index in range(5 if shards == 1 else 8)
    }
    config = SimulationConfig(
        duration=200.0,
        warmup=20.0,
        query_period=1.0,
        query_size=3,
        constraint_average=20.0,
        constraint_variation=1.0,
        seed=3,
        kernel=kernel,
        shards=shards,
        shard_workers=shard_workers,
    )
    policy = AdaptivePrecisionPolicy(
        PrecisionParameters(), initial_width=4.0, rng=random.Random(3)
    )
    return CacheSimulation(config, streams, policy).run()


def test_simulator_event_throughput(benchmark):
    # The headline row: the whole-simulation event loop on the default
    # (batch-kernel) execution path.
    result = benchmark(_run_small_simulation)
    assert result.duration > 0


def test_simulator_scheduler_fallback_throughput(benchmark):
    # The same workload through the general EventScheduler fallback; the
    # ratio against test_simulator_event_throughput is the batch kernel's
    # recorded dispatch speedup.
    result = benchmark(_run_small_simulation, kernel="scheduler")
    assert result.duration > 0


def test_shard_worker_concurrent_throughput(benchmark):
    # Shard-worker scaling row: a 4-shard run executed on 2 worker
    # processes.  Wall-clock includes process spawn and per-tick exchange,
    # so this measures the real end-to-end cost of the concurrent topology
    # at small scale (it amortises on paper-scale runs); compare against
    # test_shard_worker_serial_throughput.
    result = benchmark(_run_small_simulation, shards=4, shard_workers=2)
    assert result.duration > 0


def test_shard_worker_serial_throughput(benchmark):
    # The same 4-shard run executed serially through the routing
    # coordinator (the pre-PR4 behaviour of --shards).
    result = benchmark(_run_small_simulation, shards=4)
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
