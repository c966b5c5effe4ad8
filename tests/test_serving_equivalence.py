"""The serving layer's acceptance property: online == offline.

The deterministic load generator replays the committed monitoring trace's
event sequence — updates through the merged-timeline walk, queries through
the config-seeded workload — against a live :class:`CacheServer` over the
loopback transport, awaiting every RPC (serialised query order).  The server
must then reproduce the offline :class:`CacheSimulation`'s total refresh
counts, hit rate and total cost bit for bit.  The CI serving smoke runs the
same comparison at the 100-host scale through ``repro loadgen
--compare-offline``.
"""

import asyncio

import pytest

from repro.caching.policies.static import StaticWidthPolicy
from repro.experiments.workloads import (
    KILO,
    adaptive_policy,
    traffic_config,
    traffic_streams,
    traffic_trace,
)
from repro.queries.aggregates import AggregateKind
from repro.serving.loadgen import replay_trace_concurrent, replay_trace_deterministic
from repro.serving.server import CacheServer
from repro.simulation.simulator import CacheSimulation

HOSTS = 20
DURATION = 120


def _policy(seed=5):
    return adaptive_policy(
        cost_factor=1.0,
        lower_threshold=1.0 * KILO,
        initial_width=KILO,
        seed=seed,
    )


def _config(**overrides):
    trace = traffic_trace(host_count=HOSTS, duration=DURATION)
    options = dict(seed=5)
    options.update(overrides)
    # The server has no warm-up notion, so the offline twin measures from 0.
    return trace, traffic_config(trace, **options).with_changes(warmup=0.0)


def _offline(trace, config, policy):
    return CacheSimulation(config, traffic_streams(trace), policy).run()


def _online(config, trace, policy, **server_options):
    async def drive():
        server = CacheServer(
            policy,
            value_refresh_cost=config.value_refresh_cost,
            query_refresh_cost=config.query_refresh_cost,
            **server_options,
        )
        try:
            return await replay_trace_deterministic(server, trace, config)
        finally:
            await server.close()

    return asyncio.run(drive())


def _assert_equivalent(report, offline):
    assert report.value_refreshes == offline.value_refresh_count
    assert report.query_refreshes == offline.query_refresh_count
    assert report.hit_rate == offline.cache_hit_rate
    assert report.total_cost == offline.total_cost
    assert report.queries == offline.query_count


class TestDeterministicEquivalence:
    def test_adaptive_policy_single_cache(self):
        trace, config = _config()
        offline = _offline(trace, config, _policy())
        report = _online(config, trace, _policy())
        _assert_equivalent(report, offline)

    def test_mixed_aggregates(self):
        trace, config = _config(
            aggregates=(AggregateKind.SUM, AggregateKind.MAX, AggregateKind.MIN)
        )
        offline = _offline(trace, config, _policy())
        report = _online(config, trace, _policy())
        _assert_equivalent(report, offline)

    def test_capacity_bounded_cache(self):
        trace, config = _config(cache_capacity=HOSTS // 2)
        offline = _offline(trace, config, _policy())
        report = _online(config, trace, _policy(), capacity=HOSTS // 2)
        _assert_equivalent(report, offline)

    def test_static_policy(self):
        trace, config = _config()
        offline = _offline(trace, config, StaticWidthPolicy(width=50.0 * KILO))
        report = _online(config, trace, StaticWidthPolicy(width=50.0 * KILO))
        _assert_equivalent(report, offline)


class TestConcurrentRun:
    @pytest.mark.parametrize("clients", [1, 4])
    def test_completes_with_hits_and_latencies(self, clients):
        trace, config = _config()

        async def drive():
            server = CacheServer(
                _policy(),
                value_refresh_cost=config.value_refresh_cost,
                query_refresh_cost=config.query_refresh_cost,
            )
            try:
                return await replay_trace_concurrent(
                    server,
                    trace,
                    config,
                    clients=clients,
                    queries_per_client=40,
                    feeders=2,
                )
            finally:
                await server.close()

        report = asyncio.run(drive())
        assert report.queries == clients * 40
        assert report.hits > 0
        assert report.updates_sent > 0
        assert report.p99_latency_ms >= report.p50_latency_ms >= 0.0
        assert report.throughput_qps > 0.0
        assert report.mode == "concurrent"

    def test_rate_paced_run_completes(self):
        trace, config = _config()

        async def drive():
            server = CacheServer(
                _policy(),
                value_refresh_cost=config.value_refresh_cost,
                query_refresh_cost=config.query_refresh_cost,
            )
            try:
                return await replay_trace_concurrent(
                    server,
                    trace,
                    config,
                    clients=2,
                    queries_per_client=5,
                    rate=500.0,
                )
            finally:
                await server.close()

        report = asyncio.run(drive())
        assert report.queries == 10
        assert report.queries_rejected == 0
