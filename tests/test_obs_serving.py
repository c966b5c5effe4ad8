"""Observability through the serving stack, end to end.

Covers the tentpole's serving surface: the ``metrics`` protocol op on a
:class:`CacheServer`, the gateway's merged per-partition snapshot (and its
skip rule for in-process partitions that share the gateway's registry),
``GET /metrics`` on the HTTP edge, the ``GET /stats`` regressions of the
merged-dict path (gateway connection counters, ``partitions_unreachable``),
the partition-RPC-free ``/healthz``, and the determinism acceptance: a
deterministic replay is identical with metrics on or off.
"""

import asyncio

from repro.experiments.workloads import (
    serving_policy,
    traffic_config,
    traffic_streams,
    traffic_trace,
)
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.prom import parse_text
from repro.queries.aggregates import AggregateKind
from repro.serving.api import Client
from repro.serving.gateway import GatewayServer
from repro.serving.http import HttpEdge
from repro.serving.loadgen import replay_trace_deterministic
from repro.serving.server import CacheServer
from repro.simulation.simulator import CacheSimulation


def _registry(**labels):
    return MetricsRegistry(enabled=True, constant_labels=labels or None)


def _server(registry=None):
    return CacheServer(serving_policy(), registry=registry)


async def _drive(server, values):
    """Register ``values``, push one update per key, run one query.

    Returns both clients so callers can keep the connections open while
    they scrape metrics, then close them.  Explicit updates (changed
    values) are what increments ``updates_applied``; registration alone
    does not.
    """
    feeder = await Client.from_transport(server.connect())
    await feeder.register(list(values), list(values.values()), feeder="f0")
    for key, value in values.items():
        await feeder.update(key, value + 1.0, time=1.0)
    querier = await Client.from_transport(server.connect())
    await querier.query(list(values))
    return feeder, querier


def _samples(snapshot, name):
    for metric in snapshot["metrics"]:
        if metric["name"] == name:
            return metric["samples"]
    return []


class TestServerMetricsOp:
    def test_metrics_op_returns_collected_snapshot(self):
        async def drive():
            server = _server(_registry(role="partition"))
            feeder, querier = await _drive(server, {"h0": 1.0, "h1": 2.0})
            try:
                return await querier.metrics()
            finally:
                await querier.close()
                await feeder.close()
                await server.close()

        snapshot = asyncio.run(drive())
        (served,) = _samples(snapshot, "repro_queries_served_total")
        assert served["value"] == 1.0
        assert served["labels"] == {"role": "partition"}
        (applied,) = _samples(snapshot, "repro_updates_applied_total")
        assert applied["value"] == 2.0
        # The query-fanout histogram recorded the one 2-key query.
        (keys_histogram,) = _samples(snapshot, "repro_query_keys")
        assert keys_histogram["count"] == 1
        assert keys_histogram["sum"] == 2.0

    def test_refresh_batch_histogram_counts_victims_per_batch(self):
        """SUM sends its victims as one batch; MAX sends one per batch."""

        async def drive():
            server = _server(_registry(role="partition"))
            values = {"h0": 1.0, "h1": 2.0, "h2": 3.0, "h3": 4.0, "h4": 5.0}
            feeder = await Client.from_transport(
                server.connect(), on_refresh=values.__getitem__
            )
            await feeder.register(list(values), list(values.values()), feeder="f0")
            querier = await Client.from_transport(server.connect())
            try:
                await querier.query(["h0", "h1", "h2"], constraint=0.0, time=1.0)
                await querier.query(
                    ["h3", "h4"], aggregate=AggregateKind.MAX, constraint=0.0, time=2.0
                )
                return await querier.metrics()
            finally:
                await querier.close()
                await feeder.close()
                await server.close()

        snapshot = asyncio.run(drive())
        (batches,) = _samples(snapshot, "repro_refresh_batch_size")
        # SUM over three uncached keys: one batch of 3.  MAX over two
        # uncached keys: h3 first, and with h4 still unbounded the bound
        # stays infinite, so h4 follows in a batch of its own.
        assert batches["count"] == 3
        assert batches["sum"] == 5.0

    def test_disabled_registry_records_nothing(self):
        async def drive():
            server = _server(MetricsRegistry())  # disabled
            feeder, querier = await _drive(server, {"h0": 1.0})
            try:
                return await querier.metrics()
            finally:
                await querier.close()
                await feeder.close()
                await server.close()

        snapshot = asyncio.run(drive())
        # Registrations are visible (the scrape shape is stable) but the
        # collectors never ran, so every series is still zero.
        for metric in snapshot["metrics"]:
            for sample in metric["samples"]:
                if metric["kind"] == "histogram":
                    assert sample["count"] == 0
                else:
                    assert sample["value"] == 0.0, metric["name"]


class TestGatewayMerge:
    def test_gateway_merges_per_partition_registries(self):
        async def drive():
            partitions = [
                _server(_registry(role="partition", partition=str(index)))
                for index in range(2)
            ]
            gateway = GatewayServer(
                partitions, registry=_registry(role="gateway")
            )
            await gateway.start()
            values = {"h0": 1.0, "h1": 2.0, "h2": 3.0}
            feeder, querier = await _drive(gateway, values)
            try:
                return await querier.metrics()
            finally:
                await querier.close()
                await feeder.close()
                await gateway.close()
                for partition in partitions:
                    await partition.close()

        snapshot = asyncio.run(drive())
        applied = _samples(snapshot, "repro_updates_applied_total")
        roles = sorted(
            (s["labels"].get("role"), s["labels"].get("partition"))
            for s in applied
        )
        assert roles == [
            ("gateway", None),
            ("partition", "0"),
            ("partition", "1"),
        ]
        # The gateway's own series counts every update once; the partition
        # series split the keys between them.
        by_role = {
            (s["labels"].get("role"), s["labels"].get("partition")): s["value"]
            for s in applied
        }
        assert by_role[("gateway", None)] == 3.0
        assert (
            by_role[("partition", "0")] + by_role[("partition", "1")] == 3.0
        )
        (fanout,) = _samples(snapshot, "repro_gateway_fanout_partitions")
        assert fanout["count"] == 1

    def test_shared_registry_partitions_are_not_double_counted(self):
        async def drive():
            shared = _registry()
            partitions = [_server(shared) for _ in range(2)]
            gateway = GatewayServer(partitions, registry=shared)
            await gateway.start()
            feeder, querier = await _drive(gateway, {"h0": 1.0, "h1": 2.0})
            try:
                return await querier.metrics()
            finally:
                await querier.close()
                await feeder.close()
                await gateway.close()
                for partition in partitions:
                    await partition.close()

        snapshot = asyncio.run(drive())
        # One registry, fetched exactly once: every metric exposes exactly
        # one series (identical labels would have merged into 2x sums had
        # the gateway also fetched each partition's copy).
        for metric in snapshot["metrics"]:
            assert len(metric["samples"]) == 1, metric["name"]
        (served,) = _samples(snapshot, "repro_queries_served_total")
        assert served["value"] == 1.0


class TestHttpEdge:
    def test_get_metrics_serves_prometheus_text(self):
        async def drive():
            server = _server(_registry(role="partition"))
            edge = HttpEdge(server)
            listener = await edge.start("127.0.0.1", 0)
            port = listener.sockets[0].getsockname()[1]
            feeder, querier = await _drive(server, {"h0": 4.0})
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(
                    b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                await writer.wait_closed()
                return raw
            finally:
                await querier.close()
                await feeder.close()
                await edge.close()
                await server.close()

        raw = asyncio.run(drive())
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"200 OK" in head.splitlines()[0]
        assert b"text/plain; version=0.0.4" in head
        types, samples = parse_text(body.decode("utf-8"))
        assert types["repro_queries_served_total"] == "counter"
        values = {
            name: value
            for name, labels, value in samples
            if name == "repro_queries_served_total"
        }
        assert values["repro_queries_served_total"] == 1.0


class TestStatsRegression:
    def test_merged_stats_includes_gateway_connection_counters(self):
        async def drive():
            partitions = [_server() for _ in range(2)]
            gateway = GatewayServer(partitions)
            await gateway.start()
            feeder, querier = await _drive(
                gateway, {"h0": 1.0, "h1": 2.0, "h2": 3.0}
            )
            try:
                return await querier.stats()
            finally:
                await querier.close()
                await feeder.close()
                await gateway.close()
                for partition in partitions:
                    await partition.close()

        stats = asyncio.run(drive())
        # Partition-summed counters (the PR-7 merge) are still there...
        assert stats["updates_applied"] == 3
        assert stats["partitions"] == 2
        # ...plus the gateway-edge counters /stats used to drop entirely.
        assert stats["gateway_connections_opened"] >= 2
        assert stats["gateway_connections_closed"] >= 0
        assert stats["partitions_unreachable"] == 0

    def test_healthz_makes_no_partition_rpcs(self):
        async def drive():
            partitions = [_server() for _ in range(2)]
            gateway = GatewayServer(partitions)
            await gateway.start()
            try:
                before = [
                    p.statistics.connections_opened for p in partitions
                ]
                health = gateway.health()
                after = [
                    p.statistics.connections_opened for p in partitions
                ]
                return health, before, after
            finally:
                await gateway.close()
                for partition in partitions:
                    await partition.close()

        health, before, after = asyncio.run(drive())
        assert health["ok"] is True
        assert health["role"] == "gateway"
        assert before == after


class TestReplayDeterminism:
    def test_deterministic_replay_identical_with_metrics_on_and_off(self):
        trace = traffic_trace(host_count=6, duration=40)
        config = traffic_config(trace, seed=5).with_changes(warmup=0.0)

        def run():
            async def drive():
                server = CacheServer(
                    serving_policy(),
                    value_refresh_cost=config.value_refresh_cost,
                    query_refresh_cost=config.query_refresh_cost,
                )
                try:
                    return await replay_trace_deterministic(
                        server, trace, config
                    )
                finally:
                    await server.close()

            return asyncio.run(drive()).deterministic_summary()

        plain = run()
        REGISTRY.reset()
        REGISTRY.enable()
        try:
            instrumented = run()
        finally:
            REGISTRY.disable()
            REGISTRY.reset()
        assert instrumented == plain
        # And both still match the offline simulator (the PR-5 contract).
        offline = CacheSimulation(
            config, traffic_streams(trace), serving_policy()
        ).run()
        assert plain["value_refreshes"] == offline.value_refresh_count
        assert plain["query_refreshes"] == offline.query_refresh_count
        assert plain["hit_rate"] == offline.cache_hit_rate
