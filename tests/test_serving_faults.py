"""Chaos tests: the serving fabric under deterministic fault injection.

Three layers of coverage:

* the fault plan and transport wrapper themselves (parsing, seeded
  determinism, each injected misbehaviour);
* the server's fault-tolerance protocol (feeder epochs, stale-session
  fencing, resync, degraded-but-never-wrong answers, failed-refresh
  fallback) driven directly over the loopback transport;
* whole chaos replays: seeded fault plans through the deterministic load
  generator, auditing the paper's containment guarantee on every answer,
  plus the bit-identity guarantees (zero-fault and lossless kill+reconnect
  replays equal the offline simulator exactly).
"""

import asyncio
import math

import pytest

from repro.caching.policies.static import StaticWidthPolicy
from repro.experiments.workloads import (
    KILO,
    adaptive_policy,
    traffic_config,
    traffic_streams,
    traffic_trace,
)
from repro.serving.errors import (
    ConnectionLost,
    DeadlineExceeded,
    RequestRejected,
    StaleEpochError,
)
from repro.serving.durability import PartitionDurability
from repro.serving.faults import FaultPlan, FaultyTransport
from repro.serving.gateway import GatewayServer
from repro.serving.api import Client
from repro.serving.loadgen import (
    RetryPolicy,
    replay_trace_deterministic,
)
from repro.serving.protocol import ProtocolError
from repro.serving.server import CacheServer
from repro.serving.transport import loopback_pair
from repro.simulation.simulator import CacheSimulation

HOSTS = 6
DURATION = 60


def run(coroutine):
    return asyncio.run(coroutine)


# ----------------------------------------------------------------------
# Fault plans: parsing, validation, seeded determinism
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_parse_round_trips_through_describe(self):
        spec = "seed=7,drop=0.05,truncate=0.02,kill_every=10,outage=2"
        plan = FaultPlan.parse(spec)
        assert plan.seed == 7
        assert plan.drop_rate == 0.05
        assert plan.truncate_rate == 0.02
        assert plan.kill_every == 10
        assert plan.outage_queries == 2
        assert FaultPlan.parse(plan.describe()) == plan

    def test_none_and_empty_are_the_zero_plan(self):
        assert FaultPlan.parse("none").is_zero
        assert FaultPlan.parse("").is_zero
        assert FaultPlan.parse("none").describe() == "none"

    def test_delay_ms_converts_to_seconds(self):
        assert FaultPlan.parse("delay=1,delay_ms=5").delay_seconds == 0.005

    def test_bad_entries_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("bogus=1")
        with pytest.raises(ValueError):
            FaultPlan.parse("drop")

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=0.7, truncate_rate=0.7)
        with pytest.raises(ValueError):
            FaultPlan(kill_every=-1)

    def test_sessions_are_deterministic_and_position_keyed(self):
        plan = FaultPlan(seed=3, drop_rate=0.3, truncate_rate=0.2)

        def sequence(role, index, draws=50):
            session = plan.session(role, index)
            return [session.next_write_fault() for _ in range(draws)]

        # Same (seed, role, ordinal) => identical fault sequence, on every
        # construction — the property that makes chaos runs replayable.
        assert sequence("feeder", 0) == sequence("feeder", 0)
        # Different ordinals and roles draw independent streams.
        assert sequence("feeder", 0) != sequence("feeder", 1)
        assert sequence("feeder", 0) != sequence("client", 0)


# ----------------------------------------------------------------------
# FaultyTransport: each injected misbehaviour over the loopback pair
# ----------------------------------------------------------------------
class TestFaultyTransport:
    def test_drop_kills_the_connection_mid_write(self):
        async def scenario():
            client, server = loopback_pair()
            faulty = FaultyTransport(
                client, FaultPlan(drop_rate=1.0).session("feeder", 0)
            )
            with pytest.raises(ConnectionLost):
                await faulty.write_frame({"op": "update"})
            # ConnectionLost *is* a ConnectionResetError: existing handlers
            # cannot tell scheduled faults from real resets.
            assert issubclass(ConnectionLost, ConnectionResetError)
            assert await server.read_frame() is None
            assert faulty.faults.counters["drops"] == 1

        run(scenario())

    def test_truncate_feeds_the_peer_a_corrupt_frame(self):
        async def scenario():
            client, server = loopback_pair()
            faulty = FaultyTransport(
                client, FaultPlan(truncate_rate=1.0).session("feeder", 0)
            )
            with pytest.raises(ConnectionLost):
                await faulty.write_frame({"op": "update"})
            # The peer observes a well-framed but undecodable payload — the
            # same ProtocolError path a half-written TCP frame causes.
            with pytest.raises(ProtocolError):
                await server.read_frame()
            assert faulty.faults.counters["truncations"] == 1

        run(scenario())

    def test_delay_delivers_late_but_intact(self):
        async def scenario():
            client, server = loopback_pair()
            plan = FaultPlan(delay_rate=1.0, delay_seconds=0.001)
            faulty = FaultyTransport(server, plan.session("client", 0))
            await client.write_frame({"op": "query", "id": 1})
            frame = await faulty.read_frame()
            assert frame == {"op": "query", "id": 1}
            assert faulty.faults.counters["delays"] == 1

        run(scenario())

    def test_reorder_swaps_a_frame_behind_its_follower(self):
        async def scenario():
            client, server = loopback_pair()
            plan = FaultPlan(reorder_rate=1.0)
            faulty = FaultyTransport(server, plan.session("client", 0))
            await client.write_frame({"id": 1})
            await client.write_frame({"id": 2})
            first = await faulty.read_frame()
            second = await faulty.read_frame()
            assert (first["id"], second["id"]) == (2, 1)
            assert faulty.faults.counters["reorders"] >= 1

        run(scenario())

    def test_reorder_on_a_quiet_connection_degrades_to_delivery(self):
        async def scenario():
            client, server = loopback_pair()
            plan = FaultPlan(reorder_rate=1.0, reorder_window=0.01)
            faulty = FaultyTransport(server, plan.session("client", 0))
            await client.write_frame({"id": 1})
            # No follower ever arrives; the held frame must still be
            # delivered once the reorder window closes.
            frame = await asyncio.wait_for(faulty.read_frame(), timeout=2.0)
            assert frame == {"id": 1}

        run(scenario())


# ----------------------------------------------------------------------
# Client: deadlines, typed errors
# ----------------------------------------------------------------------
class TestClientResilience:
    def test_deadline_fires_instead_of_hanging(self):
        async def scenario():
            client_end, server_end = loopback_pair()
            client = await Client.from_transport(client_end, default_deadline=0.05)
            # The "server" reads the request and never answers — without a
            # deadline this request would hang forever.
            with pytest.raises(DeadlineExceeded) as failure:
                await asyncio.wait_for(client.request("stats"), timeout=5.0)
            # DeadlineExceeded *is* asyncio.TimeoutError for old handlers.
            assert isinstance(failure.value, asyncio.TimeoutError)
            await client.close()

        run(scenario())

    def test_per_request_deadline_overrides_the_default(self):
        async def scenario():
            client_end, server_end = loopback_pair()
            client = await Client.from_transport(client_end, default_deadline=30.0)

            async def answer_late():
                frame = await server_end.read_frame()
                await asyncio.sleep(0.2)
                await server_end.write_frame({"id": frame["id"], "ok": True})

            task = asyncio.ensure_future(answer_late())
            with pytest.raises(DeadlineExceeded):
                await client.request("stats", deadline=0.01)
            await task
            await client.close()

        run(scenario())

    def test_requests_fail_fast_once_the_connection_died(self):
        async def scenario():
            client_end, server_end = loopback_pair()
            client = await Client.from_transport(client_end)
            server_end.close()
            await asyncio.sleep(0.01)
            with pytest.raises(ConnectionLost):
                await asyncio.wait_for(client.request("stats"), timeout=5.0)
            await client.close()

        run(scenario())

    def test_error_replies_raise_typed_rejections(self):
        async def scenario():
            server = CacheServer(StaticWidthPolicy(width=10.0))
            client = await Client.from_transport(server.connect())
            try:
                with pytest.raises(RequestRejected) as failure:
                    await client.request("no_such_op")
                # RequestRejected still is the RuntimeError callers caught.
                assert isinstance(failure.value, RuntimeError)
            finally:
                await client.close()
                await server.close()

        run(scenario())

    def test_retry_policy_backoff_is_seeded_and_bounded(self):
        first = RetryPolicy(seed=9)
        second = RetryPolicy(seed=9)
        delays = [first.delay(attempt) for attempt in range(1, 6)]
        assert delays == [second.delay(attempt) for attempt in range(1, 6)]
        assert all(0 < delay <= first.max_delay * 1.5 for delay in delays)


# ----------------------------------------------------------------------
# Server protocol: epochs, resync, degraded answers
# ----------------------------------------------------------------------
def _server(**overrides):
    options = dict(value_refresh_cost=1.0, query_refresh_cost=2.0)
    options.update(overrides)
    return CacheServer(StaticWidthPolicy(width=10.0), **options)


async def _feeder_client(server, values, feeder_id="feeder-0", resync=False,
                         time=None):
    async def answer(frame):
        return {"value": values[frame["key"]]}

    client = await Client.from_transport(server.connect(), on_request=answer)
    request = {
        "keys": list(values),
        "values": [values[key] for key in values],
        "feeder": feeder_id,
    }
    if resync:
        request["resync"] = True
        request["time"] = time
    reply = await client.request("register", **request)
    return client, reply


class TestFeederEpochs:
    def test_reconnect_fences_the_stale_session(self):
        async def scenario():
            server = _server()
            values = {"a": 10.0}
            old, old_reply = await _feeder_client(server, values)
            new, new_reply = await _feeder_client(
                server, values, resync=True, time=1.0
            )
            assert new_reply["epoch"] == old_reply["epoch"] + 1
            # The superseded session's updates are rejected, typed.
            with pytest.raises(StaleEpochError):
                await old.request("update", key="a", value=11.0, time=2.0)
            # The new session keeps feeding normally.
            await new.request("update", key="a", value=11.0, time=3.0)
            stats = await new.request("stats")
            assert stats["stale_epoch_rejections"] == 1
            assert stats["feeder_resyncs"] == 1
            await old.close()
            await new.close()
            await server.close()

        run(scenario())

    def test_resync_folds_missed_updates_through_the_normal_path(self):
        async def scenario():
            server = _server()
            values = {"a": 10.0}
            feeder, _ = await _feeder_client(server, values)
            querier = await Client.from_transport(server.connect())
            # Publish an interval around 10.0.
            await querier.request(
                "query", keys=["a"], aggregate="SUM", constraint=100.0, time=1.0
            )
            await feeder.close()
            # The value escaped the published interval while the feeder was
            # down; the resync must fire the same value-initiated refresh a
            # live update would have.
            values["a"] = 50.0
            fresh, reply = await _feeder_client(
                server, values, resync=True, time=2.0
            )
            assert reply["refreshes"] == 1
            response = await querier.request(
                "query", keys=["a"], aggregate="SUM", constraint=100.0, time=3.0
            )
            assert "degraded" not in response
            assert response["low"] <= 50.0 <= response["high"]
            await querier.close()
            await fresh.close()
            await server.close()

        run(scenario())


class TestDegradedAnswers:
    def test_down_feeder_answers_degraded_then_converges_back(self):
        async def scenario():
            server = _server()
            values = {"a": 10.0}
            feeder, _ = await _feeder_client(server, values)
            querier = await Client.from_transport(server.connect())
            await feeder.close()
            await asyncio.sleep(0.01)
            # Feeder down: the mirror answers, tagged degraded — never an
            # error, and the interval still contains the mirror value.
            degraded = await querier.request(
                "query", keys=["a"], aggregate="SUM", constraint=1.0, time=1.0
            )
            assert degraded["degraded"] is True
            assert degraded["degraded_keys"] == ["a"]
            assert degraded["low"] <= 10.0 <= degraded["high"]
            # Reconnect and resync: the very next query is served live.
            fresh, _ = await _feeder_client(server, values, resync=True, time=2.0)
            live = await querier.request(
                "query", keys=["a"], aggregate="SUM", constraint=1.0, time=3.0
            )
            assert "degraded" not in live
            stats = await querier.request("stats")
            assert stats["queries_degraded"] == 1
            assert stats["keys_down"] == 0
            await querier.close()
            await fresh.close()
            await server.close()

        run(scenario())

    def test_degraded_interval_widens_with_observed_drift(self):
        async def scenario():
            server = _server()
            values = {"a": 100.0}
            feeder, _ = await _feeder_client(server, values)
            # Teach the drift model: steps of 5.0 every 1.0s.
            for step in range(1, 4):
                await feeder.request(
                    "update", key="a", value=100.0 + 5.0 * step, time=float(step)
                )
            await feeder.close()
            await asyncio.sleep(0.01)
            querier = await Client.from_transport(server.connect())
            response = await querier.request(
                "query", keys=["a"], aggregate="SUM", constraint=1.0, time=13.0
            )
            assert response["degraded"] is True
            # 10 missed 1.0s gaps x 5.0 max step x slack — the answer brackets
            # the mirror value with real margin, not a point answer.
            assert response["low"] < 115.0 < response["high"]
            assert response["high"] - response["low"] >= 2 * 5.0
            await querier.close()
            await server.close()

        run(scenario())

    def test_failed_refresh_counts_and_degrades_instead_of_erroring(self):
        async def scenario():
            server = _server()
            # A raw-transport feeder that dies mid-refresh: it registers,
            # then closes instead of answering the server's refresh RPC.
            transport = server.connect()
            await transport.write_frame(
                {
                    "op": "register",
                    "id": 1,
                    "keys": ["a"],
                    "values": [7.0],
                    "feeder": "feeder-0",
                }
            )
            assert (await transport.read_frame())["ok"] is True
            querier = await Client.from_transport(server.connect())
            query = asyncio.ensure_future(
                querier.request(
                    "query", keys=["a"], aggregate="SUM", constraint=0.0, time=1.0
                )
            )
            refresh = await transport.read_frame()
            assert refresh["op"] == "refresh"
            transport.close()
            response = await asyncio.wait_for(query, timeout=5.0)
            assert response["degraded"] is True
            assert response["low"] <= 7.0 <= response["high"]
            stats = await querier.request("stats")
            assert stats["refreshes_failed"] == 1
            await querier.close()
            await server.close()

        run(scenario())


# ----------------------------------------------------------------------
# Invalid stamps and constraints are rejected before any state changes
# ----------------------------------------------------------------------
FRONT_DOORS = pytest.mark.parametrize(
    "partitions", [None, 2], ids=["server", "gateway-2"]
)


async def _front_door(partitions, directory=None):
    """A single server (``partitions=None``) or a gateway over that many
    partition servers; returns ``(front, partition servers)``.  With a
    ``directory`` every partition logs to its own WAL under it."""

    def partition(index):
        if directory is None:
            return _server()
        return _server(durability=PartitionDurability(directory / f"p{index}"))

    if partitions is None:
        server = partition(0)
        return server, [server]
    servers = [partition(index) for index in range(partitions)]
    gateway = GatewayServer(servers)
    await gateway.start()
    return gateway, servers


async def _close_front_door(front, servers):
    await front.close()
    for server in servers:
        await server.close()


class TestRejectedRequests:
    @FRONT_DOORS
    @pytest.mark.parametrize(
        "stamp", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"]
    )
    def test_non_finite_time_is_rejected_and_the_clock_kept(self, partitions, stamp):
        async def scenario():
            front, servers = await _front_door(partitions)
            feeder, _ = await _feeder_client(front, {"x": 100.0}, "feeder-x")
            for step in range(1, 4):
                await feeder.request(
                    "update", key="x", value=100.0 + 5.0 * step, time=float(step)
                )
            await feeder.close()
            await asyncio.sleep(0.01)
            other, _ = await _feeder_client(front, {"y": 1.0}, "feeder-y")
            with pytest.raises(RequestRejected, match="time must be a finite"):
                await other.request("update", key="z", value=1.0, time=stamp)
            with pytest.raises(RequestRejected, match="time must be a finite"):
                await other.request(
                    "update_batch", updates=[["z", 1.0]], time=stamp
                )
            querier = await Client.from_transport(front.connect())
            assert (await querier.request("stats"))["clock"] == 3.0
            assert all(server.clock <= 3.0 for server in servers)
            # The clock still moves, so the degraded answer's drift
            # allowance stays finite.
            response = await querier.request(
                "query", keys=["x"], aggregate="SUM", constraint=1.0, time=13.0
            )
            assert response["degraded"] is True
            assert response["low"] < 115.0 < response["high"]
            await querier.close()
            await other.close()
            await _close_front_door(front, servers)

        run(scenario())

    @FRONT_DOORS
    @pytest.mark.parametrize("constraint", [-1.0, math.nan], ids=["negative", "nan"])
    def test_invalid_constraint_changes_no_state(
        self, partitions, constraint, tmp_path
    ):
        async def scenario():
            front, servers = await _front_door(partitions, tmp_path)
            values = {"a": 10.0, "b": 20.0}
            feeder, _ = await _feeder_client(front, values)
            querier = await Client.from_transport(front.connect())
            await querier.request(
                "query", keys=["a", "b"], aggregate="SUM", constraint=100.0, time=1.0
            )
            before = await querier.request("stats")
            for aggregate in ("SUM", "MAX"):
                with pytest.raises(RequestRejected, match="constraint must be"):
                    await querier.request(
                        "query",
                        keys=["a", "b"],
                        aggregate=aggregate,
                        constraint=constraint,
                        time=2.0,
                    )
            if partitions is None:
                with pytest.raises(RequestRejected, match="constraint must be"):
                    await querier.request(
                        "snapshot", keys=["a", "b"], constraint=constraint, time=2.0
                    )
            after = await querier.request("stats")
            for name in ("hits", "misses", "wal_records", "query_refreshes"):
                assert after[name] == before[name], name
            assert before["wal_records"] > 0
            await querier.close()
            await feeder.close()
            await _close_front_door(front, servers)

        run(scenario())


# ----------------------------------------------------------------------
# Chaos replays: containment under fire, bit-identity without it
# ----------------------------------------------------------------------
def _policy(seed=5):
    return adaptive_policy(
        cost_factor=1.0,
        lower_threshold=1.0 * KILO,
        initial_width=KILO,
        seed=seed,
    )


def _workload():
    trace = traffic_trace(host_count=HOSTS, duration=DURATION)
    return trace, traffic_config(trace, seed=5).with_changes(warmup=0.0)


def _chaos_replay(plan, **kwargs):
    trace, config = _workload()

    async def drive():
        server = CacheServer(
            _policy(),
            value_refresh_cost=config.value_refresh_cost,
            query_refresh_cost=config.query_refresh_cost,
        )
        try:
            return await replay_trace_deterministic(
                server,
                trace,
                config,
                fault_plan=plan,
                check_invariant=True,
                **kwargs,
            )
        finally:
            await server.close()

    return asyncio.run(drive())


def _offline():
    trace, config = _workload()
    return CacheSimulation(config, traffic_streams(trace), _policy()).run()


def _assert_matches_offline(report):
    offline = _offline()
    assert report.value_refreshes == offline.value_refresh_count
    assert report.query_refreshes == offline.query_refresh_count
    assert report.hit_rate == offline.cache_hit_rate
    assert report.total_cost == offline.total_cost


class TestChaosReplay:
    def test_seeded_chaos_never_violates_containment(self):
        plan = FaultPlan.parse("seed=7,drop=0.05,truncate=0.02,kill_every=10,outage=2")
        report = _chaos_replay(plan)
        # Every answer was audited against the replay's ground truth: the
        # paper's containment guarantee holds under fire...
        assert report.invariant_checks == report.queries
        assert report.invariant_violations == 0
        # ...and the run genuinely exercised the fault machinery.
        assert report.degraded_answers > 0
        assert report.reconnects > 0
        assert report.faults_injected.get("drops", 0) > 0
        assert report.fault_plan == plan.describe()

    def test_chaos_replay_is_deterministic_per_seed(self):
        plan = FaultPlan.parse("seed=7,drop=0.05,truncate=0.02,kill_every=10,outage=2")
        first = _chaos_replay(plan)
        second = _chaos_replay(plan)
        assert first.faults_injected == second.faults_injected
        assert first.degraded_answers == second.degraded_answers
        assert first.reconnects == second.reconnects
        assert first.value_refreshes == second.value_refreshes
        assert first.query_refreshes == second.query_refreshes
        assert first.hit_rate == second.hit_rate

    def test_zero_fault_plan_stays_bit_identical_to_offline(self):
        report = _chaos_replay(FaultPlan(seed=7))
        assert report.invariant_violations == 0
        assert report.degraded_answers == 0
        assert report.faults_injected == {}
        _assert_matches_offline(report)

    def test_lossless_kill_reconnect_stays_bit_identical_to_offline(self):
        # Reconnection equivalence: a kill with zero outage loses no
        # updates and no queries; resync folds unchanged values in as
        # no-ops, so the whole replay still equals the offline simulator.
        report = _chaos_replay(FaultPlan(seed=3, kill_every=10, outage_queries=0))
        assert report.reconnects > 0
        assert report.invariant_violations == 0
        assert report.degraded_answers == 0
        _assert_matches_offline(report)

    def test_outage_degrades_then_converges(self):
        report = _chaos_replay(FaultPlan(seed=3, kill_every=10, outage_queries=4))
        assert report.invariant_violations == 0
        # The outage windows produce degraded answers, but the feeder
        # reconnects and the run converges back: most answers stay live.
        assert 0 < report.degraded_answers < report.queries / 2
        assert report.server_stats["feeder_resyncs"] == report.reconnects
        assert report.server_stats["keys_down"] == 0
