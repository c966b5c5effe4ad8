"""The partitioned gateway's acceptance property: partitioned == single == offline.

A serialised replay through :class:`~repro.serving.gateway.GatewayServer`
must be bit-identical to the offline :class:`CacheSimulation` — and hence to
a single directly-driven :class:`CacheServer` — at *any* partition count,
because the gateway re-creates the single-server query pipeline exactly
(partition snapshots assembled in query key order, policy-free selection at
the gateway, refreshes routed in selection order).  The chaos replay then
verifies the paper's containment guarantee holds through the gateway under
injected faults, and the process-pool tests cover partition crash, restart
and mirror resync.
"""

import asyncio
import gc
import warnings

import pytest

from repro.experiments.workloads import (
    serving_policy,
    traffic_config,
    traffic_streams,
    traffic_trace,
)
from repro.serving.api import Client
from repro.serving.errors import RequestRejected
from repro.serving.faults import FaultPlan
from repro.serving.gateway import GatewayServer
from repro.serving.loadgen import replay_trace_deterministic
from repro.obs.trace import configure_tracer
from repro.serving.procs import ProcessPartitionPool
from repro.serving.server import CacheServer
from repro.simulation.simulator import CacheSimulation

HOSTS = 20
DURATION = 120


def _config(duration=DURATION, **overrides):
    trace = traffic_trace(host_count=HOSTS, duration=duration)
    options = dict(seed=5)
    options.update(overrides)
    return trace, traffic_config(trace, **options).with_changes(warmup=0.0)


def _offline(trace, config):
    return CacheSimulation(config, traffic_streams(trace), serving_policy()).run()


def _partition_server(config):
    return CacheServer(
        serving_policy(),
        value_refresh_cost=config.value_refresh_cost,
        query_refresh_cost=config.query_refresh_cost,
    )


async def _replay_via_gateway(trace, config, partitions, **replay_options):
    servers = [_partition_server(config) for _ in range(partitions)]
    gateway = GatewayServer(servers)
    await gateway.start()
    try:
        return await replay_trace_deterministic(
            gateway, trace, config, **replay_options
        )
    finally:
        await gateway.close()
        for server in servers:
            await server.close()


def _assert_equivalent(report, offline):
    assert report.value_refreshes == offline.value_refresh_count
    assert report.query_refreshes == offline.query_refresh_count
    assert report.hit_rate == offline.cache_hit_rate
    assert report.total_cost == offline.total_cost
    assert report.queries == offline.query_count


class TestGatewayEquivalence:
    @pytest.mark.parametrize("partitions", [1, 4])
    def test_matches_offline_simulation(self, partitions):
        trace, config = _config()
        offline = _offline(trace, config)
        report = asyncio.run(_replay_via_gateway(trace, config, partitions))
        _assert_equivalent(report, offline)

    def test_matches_single_server(self):
        trace, config = _config()

        async def single():
            server = _partition_server(config)
            try:
                return await replay_trace_deterministic(server, trace, config)
            finally:
                await server.close()

        direct = asyncio.run(single())
        via_gateway = asyncio.run(_replay_via_gateway(trace, config, 4))
        assert via_gateway.value_refreshes == direct.value_refreshes
        assert via_gateway.query_refreshes == direct.query_refreshes
        assert via_gateway.hit_rate == direct.hit_rate
        assert via_gateway.total_cost == direct.total_cost
        assert via_gateway.queries == direct.queries

    def test_stats_aggregate_partitions(self):
        trace, config = _config()
        report = asyncio.run(_replay_via_gateway(trace, config, 4))
        stats = report.server_stats
        assert stats["partitions"] == 4
        assert stats["keys"] == HOSTS
        assert stats["queries_served"] == report.queries
        assert stats["value_refreshes"] == report.value_refreshes
        assert stats["query_refreshes"] == report.query_refreshes
        assert stats["partition_restarts"] == 0


class TestGatewayChaos:
    def test_containment_invariant_under_faults(self):
        trace, config = _config()
        plan = FaultPlan.parse("seed=7,drop=0.05,kill_every=40,outage=2")
        report = asyncio.run(
            _replay_via_gateway(
                trace,
                config,
                4,
                fault_plan=plan,
                check_invariant=True,
                deadline=5.0,
            )
        )
        assert report.invariant_checks == report.queries
        assert report.invariant_violations == 0
        assert report.queries > 0


class TestGatewayFrontDoor:
    def test_partition_internal_ops_are_rejected(self):
        trace, config = _config()

        async def drive():
            server = _partition_server(config)
            gateway = GatewayServer([server])
            await gateway.start()
            client = await Client.from_transport(gateway.connect())
            try:
                for op in ("snapshot", "refresh_key", "refresh"):
                    with pytest.raises(RequestRejected, match="unknown operation"):
                        await client.request(op, key="h0", keys=["h0"])
            finally:
                await client.close()
                await gateway.close()
                await server.close()

        asyncio.run(drive())

    def test_admission_control_rejects_overload(self):
        trace, config = _config()

        async def drive():
            server = _partition_server(config)
            gateway = GatewayServer(
                [server], max_inflight_queries=1, admission_queue_limit=0
            )
            await gateway.start()
            feeder_values = {f"h{i}": float(i) for i in range(4)}
            feeder = await Client.from_transport(
                gateway.connect(), on_refresh=feeder_values.__getitem__
            )
            await feeder.register(
                list(feeder_values), list(feeder_values.values()), feeder="f0"
            )
            clients = [
                await Client.from_transport(gateway.connect()) for _ in range(8)
            ]
            try:
                results = await asyncio.gather(
                    *(
                        client.query(list(feeder_values), constraint=0.0)
                        for client in clients
                    ),
                    return_exceptions=True,
                )
                rejected = [
                    r
                    for r in results
                    if isinstance(r, RequestRejected) and "overloaded" in str(r)
                ]
                answered = [r for r in results if not isinstance(r, Exception)]
                assert answered, "some queries must still be served"
                assert rejected, "the overflow beyond the gate must be rejected"
            finally:
                for client in clients:
                    await client.close()
                await feeder.close()
                await gateway.close()
                await server.close()

        asyncio.run(drive())

    def test_needs_at_least_one_partition(self):
        with pytest.raises(ValueError, match="at least one partition"):
            GatewayServer([])


class TestRefreshRelay:
    """A partition's refresh RPC relayed through the gateway to the feeder."""

    def test_closing_feeder_connection_answers_degraded_at_once(self):
        """A feeder connection marked closing by a failed write, with its
        transport still open, gets no relayed frame: the partition is
        answered at once and the query degrades well inside the partition's
        30 s ``refresh_timeout``."""

        async def drive():
            server = CacheServer(serving_policy(), refresh_timeout=30.0)
            gateway = GatewayServer([server])
            await gateway.start()
            values = {"h0": 5.0}
            feeder = await Client.from_transport(
                gateway.connect(), on_refresh=values.__getitem__
            )
            await feeder.register(["h0"], [5.0], feeder="f0")
            querier = await Client.from_transport(gateway.connect())
            try:
                (connection,) = [
                    c for c in gateway._connections if c.feeder_id == "f0"
                ]
                connection.closing = True
                answer = await asyncio.wait_for(
                    querier.query(["h0"], constraint=0.0, time=2.0), 2.0
                )
                stats = await querier.stats()
            finally:
                await querier.close()
                await feeder.close()
                await gateway.close()
                await server.close()
            return answer, stats

        answer, stats = asyncio.run(drive())
        assert answer.degraded
        assert answer.degraded_keys == ("h0",)
        assert answer.refreshed == ()
        assert answer.low <= 5.0 <= answer.high
        assert stats["refreshes_failed"] == 1

    def test_refresh_counters_agree_on_a_replay(self):
        """Every query-initiated refresh is one key fetched by its partition
        and one key relayed by the gateway, and each relayed frame and each
        partition frame records one ``refresh_rpc`` span."""
        trace, config = _config()
        tracer = configure_tracer(role="gateway", ring_size=1 << 20)
        try:
            report = asyncio.run(_replay_via_gateway(trace, config, 2))
            spans = [
                event
                for event in tracer.recorder.events()
                if event["name"] == "refresh_rpc"
            ]
        finally:
            configure_tracer(role="proc", enabled=False)
        stats = report.server_stats
        assert stats["gateway_refresh_rpcs"] == stats["refresh_rpcs"] == 203
        assert stats["query_refreshes"] == report.query_refreshes == 203
        # A ``refresh_key`` fetches one key, so each frame carries one key.
        assert len(spans) == stats["gateway_refresh_rpcs"] + stats["refresh_rpcs"]

    def test_relay_records_one_span_per_relayed_frame(self):
        async def drive():
            servers = [CacheServer(serving_policy()) for _ in range(2)]
            gateway = GatewayServer(servers)
            await gateway.start()
            values = {f"h{i}": float(i) for i in range(4)}
            # Gateway connection 1 is the feeder, 2 the querier; each
            # partition's connection 1 is the gateway's control link and 2
            # the feeder's upstream link.
            feeder = await Client.from_transport(
                gateway.connect(), on_refresh=values.__getitem__
            )
            await feeder.register(list(values), list(values.values()), feeder="f0")
            querier = await Client.from_transport(gateway.connect())
            try:
                answer = await querier.query(list(values), constraint=0.0, time=1.0)
                stats = await querier.stats()
            finally:
                await querier.close()
                await feeder.close()
                await gateway.close()
                for server in servers:
                    await server.close()
            return answer, stats

        tracer = configure_tracer(role="t")
        try:
            answer, stats = asyncio.run(drive())
            spans = [
                (event["span"], event["keys"])
                for event in tracer.recorder.events()
                if event["name"] == "refresh_rpc"
            ]
        finally:
            configure_tracer(role="proc", enabled=False)
        assert answer.refreshed == ("h0", "h1", "h2", "h3")
        assert stats["gateway_refresh_rpcs"] == stats["refresh_rpcs"] == 4
        relayed = [span for span in spans if span[0].startswith("t:1:")]
        assert relayed == [(f"t:1:r{n + 1}", [f"'h{n}'"]) for n in range(4)]
        assert len(spans) == 2 * len(relayed)


class _DroppingPartition(CacheServer):
    """Closes the connection the first ``drop_op`` frame arrives on,
    without answering it: the link dies between the send and the reply."""

    def __init__(self, drop_op=None):
        super().__init__(serving_policy())
        self.drop_op = drop_op
        self.dropped = 0

    async def _dispatch(self, connection, frame, payload):
        if frame.get("op") == self.drop_op and not self.dropped:
            self.dropped += 1
            connection.transport.close()
            return
        await super()._dispatch(connection, frame, payload)


class _SamePartitionPool:
    """A pool whose restart brings back the same in-process partition."""

    def __init__(self, servers):
        self.servers = servers
        self.restarts = 0

    def is_alive(self, index):
        return True

    def restart(self, index):
        self.restarts += 1
        return self.servers[index]


class TestFanOutFailures:
    """A partition link that dies mid-fan-out falls back to its retry loop."""

    @pytest.mark.parametrize("recovers", [True, False], ids=["recovered", "mirror"])
    @pytest.mark.parametrize("drop_op", ["snapshot", "update_batch"])
    def test_link_dies_between_send_and_reply(self, drop_op, recovers):
        async def drive():
            loop = asyncio.get_running_loop()
            reported = []
            loop.set_exception_handler(lambda loop, context: reported.append(context))
            servers = [_DroppingPartition(drop_op), _DroppingPartition()]
            pool = _SamePartitionPool(servers) if recovers else None
            gateway = GatewayServer(servers, pool=pool)
            await gateway.start()
            if recovers:
                gateway.start_supervisor(poll_interval=0.01)
            values = {f"h{i}": float(i) for i in range(8)}
            on_first = {key for key in values if gateway.partition_of(key) == 0}
            assert 0 < len(on_first) < len(values)
            feeder = await Client.from_transport(
                gateway.connect(), on_refresh=values.__getitem__
            )
            querier = await Client.from_transport(gateway.connect())
            try:
                await feeder.register(list(values), list(values.values()), feeder="f0")
                values.update((key, 100.0 + value) for key, value in values.items())
                await asyncio.wait_for(
                    feeder.update_batch(list(values.items()), time=1.0), 5.0
                )
                answer = await asyncio.wait_for(
                    querier.query(list(values), constraint=0.0, time=1.0), 5.0
                )
                mirrored = [gateway._values[key] for key in values]
                applied = {
                    key: servers[gateway.partition_of(key)].sources[key].value
                    for key in values
                }
                states = [gateway.partition_state(index) for index in range(2)]
            finally:
                await querier.close()
                await feeder.close()
                await gateway.close()
                for server in servers:
                    await server.close()
            gc.collect()
            await asyncio.sleep(0)
            return answer, mirrored, applied, states, on_first, reported

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            answer, mirrored, applied, states, on_first, reported = asyncio.run(
                drive()
            )
            gc.collect()
        assert reported == []
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        total = sum(mirrored)
        assert mirrored == [100.0 + i for i in range(8)]
        assert answer.low <= total <= answer.high
        if recovers:
            # The recovered partition took the re-sent batch, and the
            # query refreshed every key through the feeder.
            assert states == ["ok", "ok"]
            assert applied == dict(zip(applied, mirrored))
            assert not answer.degraded
            assert answer.low == answer.high == total
        else:
            # Partition 0 is down for good: its keys answer from the
            # gateway's mirror, which holds the batch.
            assert states == ["down", "ok"]
            assert answer.degraded
            assert set(answer.degraded_keys) == on_first


class TestProcessPartitionPool:
    def test_replay_and_restart_resync(self):
        trace, config = _config(duration=60)

        async def drive():
            with ProcessPartitionPool(2, {"seed": 0}) as pool:
                gateway = GatewayServer(pool.targets(), pool=pool)
                await gateway.start()
                try:
                    report = await replay_trace_deterministic(gateway, trace, config)
                    assert report.queries > 0
                    assert report.hit_rate > 0.0

                    loop = asyncio.get_running_loop()
                    pool.kill(0)
                    assert not pool.is_alive(0)
                    target = await loop.run_in_executor(None, pool.restart, 0)
                    await gateway.resync_partition(0, target)
                    assert pool.is_alive(0)
                    assert pool.restarts == 1

                    # The fresh partition was repopulated from the gateway's
                    # mirror; its keys have no live feeder (the replay's
                    # feeder disconnected), so answers are honest degraded
                    # intervals rather than errors or forgotten keys.
                    probe = await Client.from_transport(gateway.connect())
                    try:
                        keys = list(trace.series)
                        answer = await probe.query(keys, constraint=0.0)
                        assert answer.degraded
                        assert answer.low <= answer.high
                        stats = await probe.stats()
                        assert stats["partition_restarts"] == 1
                        assert stats["keys"] == HOSTS
                    finally:
                        await probe.close()
                finally:
                    await gateway.close()

        asyncio.run(drive())

    def test_supervisor_restarts_dead_partition(self):
        async def drive():
            with ProcessPartitionPool(2, {"seed": 0}) as pool:
                gateway = GatewayServer(pool.targets(), pool=pool)
                await gateway.start()
                gateway.start_supervisor(poll_interval=0.05)
                try:
                    feeder_values = {f"h{i}": float(i) for i in range(6)}
                    feeder = await Client.from_transport(
                        gateway.connect(), on_refresh=feeder_values.__getitem__
                    )
                    await feeder.register(
                        list(feeder_values), list(feeder_values.values()), feeder="f0"
                    )
                    pool.kill(1)
                    for _ in range(200):
                        await asyncio.sleep(0.05)
                        if pool.restarts == 1 and pool.is_alive(1):
                            break
                    assert pool.restarts == 1

                    # Keys on the restarted partition re-registered under the
                    # live feeder, so a precise query refreshes through it.
                    # The restart becomes visible before the supervisor's
                    # resync finishes, so retry until the answer is exact.
                    probe = await Client.from_transport(gateway.connect())
                    try:
                        answer = None
                        for _ in range(200):
                            try:
                                answer = await probe.query(
                                    list(feeder_values), constraint=0.0
                                )
                            except RequestRejected:
                                answer = None
                            if answer is not None and not answer.degraded:
                                break
                            await asyncio.sleep(0.05)
                        assert answer is not None and not answer.degraded
                        assert answer.low == answer.high == sum(
                            feeder_values.values()
                        )
                    finally:
                        await probe.close()
                    await feeder.close()
                finally:
                    await gateway.close()

        asyncio.run(drive())

    def test_pool_validates_partition_count(self):
        with pytest.raises(ValueError, match="at least 1"):
            ProcessPartitionPool(0)


class TestServerProcess:
    def test_single_deployment_serves_over_tcp(self):
        from repro.serving.procs import ServerProcess

        with ServerProcess("single", {"seed": 0}) as target:
            assert target.startswith("tcp://")

            async def drive():
                # A zero-width constraint forces refresh RPCs back through
                # this connection, so the client must answer them.
                values = {"a": 1.0, "b": 2.0}
                client = await Client.connect(target, on_refresh=values.__getitem__)
                try:
                    await client.register(
                        list(values), list(values.values()), feeder="f"
                    )
                    answer = await client.query(list(values), constraint=0.0)
                    assert answer.low == answer.high == 3.0
                finally:
                    await client.close()

            asyncio.run(drive())

    def test_gateway_deployment_fronts_existing_partitions(self):
        from repro.serving.procs import ServerProcess

        with ProcessPartitionPool(2, {"seed": 0}) as pool:
            edge = ServerProcess("gateway", {"seed": 0, "targets": pool.targets()})
            try:
                target = edge.start()
                assert edge.is_alive()

                async def drive():
                    values = {"a": 1.0, "b": 2.0}
                    client = await Client.connect(
                        target, on_refresh=values.__getitem__
                    )
                    try:
                        await client.register(
                            list(values), list(values.values()), feeder="f"
                        )
                        answer = await client.query(list(values), constraint=0.0)
                        assert answer.low == answer.high == 3.0
                        stats = await client.stats()
                        assert stats["partitions"] == 2
                    finally:
                        await client.close()

                asyncio.run(drive())
            finally:
                edge.stop()

    def test_rejects_unknown_role(self):
        from repro.serving.procs import ServerProcess

        with pytest.raises(ValueError, match="role"):
            ServerProcess("cluster")


class TestMultiTargetDialer:
    def test_round_robins_urls_through_dial(self, monkeypatch):
        import repro.serving.loadgen as loadgen

        dialled = []

        async def fake_dial(target):
            dialled.append(target)
            return target

        monkeypatch.setattr(loadgen, "dial", fake_dial)
        targets = ["tcp://127.0.0.1:1", "127.0.0.1:2"]
        dialer = loadgen.MultiTargetDialer(targets)

        async def drive():
            return [await dialer.connect() for _ in range(5)]

        assert asyncio.run(drive()) == targets * 2 + targets[:1]
        assert dialled == targets * 2 + targets[:1]

    @pytest.mark.parametrize(
        "targets, match",
        [([], "at least one target"), (["127.0.0.1"], "cannot parse")],
        ids=["empty", "no-port"],
    )
    def test_rejects_bad_targets(self, targets, match):
        from repro.serving.loadgen import MultiTargetDialer

        with pytest.raises(ValueError, match=match):
            MultiTargetDialer(targets)
