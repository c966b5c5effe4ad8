"""Unit and integration tests for the serving layer (protocol to server)."""

import asyncio
import math
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.intervals.interval import UNBOUNDED, Interval
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import configure_tracer
from repro.queries.aggregates import AggregateKind
from repro.queries.refresh_selection import execute_bounded_query
from repro.serving.execution import execute_bounded_query_async
from repro.serving.api import Client
from repro.serving.errors import RequestRejected
from repro.serving.loadgen import LoadgenReport, percentile
from repro.serving.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_length,
    decode_payload,
    encode_frame,
    encode_json,
    is_request,
)
from repro.serving.durability import PartitionDurability
from repro.serving.gateway import GatewayServer
from repro.serving.server import CacheServer
from repro.serving.transport import loopback_pair
from repro.caching.policies.base import PrecisionDecision
from repro.caching.core import UpdateOrderError
from repro.caching.policies.static import StaticWidthPolicy
from repro.experiments.workloads import serving_policy
from refresh_feeder import refresh_answerer, refresh_reply


def run(coroutine):
    return asyncio.run(coroutine)


# ----------------------------------------------------------------------
# Protocol framing
# ----------------------------------------------------------------------
class TestProtocol:
    def test_round_trip(self):
        message = {"op": "query", "id": 3, "keys": ["a", "b"], "constraint": 1.5}
        frame = encode_frame(message)
        assert decode_length(frame[:4]) == len(frame) - 4
        assert decode_payload(frame[4:]) == message

    def test_non_finite_floats_round_trip(self):
        message = {"low": -math.inf, "high": math.inf, "constraint": math.inf}
        decoded = decode_payload(encode_frame(message)[4:])
        assert decoded == message

    def test_floats_round_trip_exactly(self):
        value = 0.1 + 0.2  # not representable prettily; repr must survive
        decoded = decode_payload(encode_frame({"v": value})[4:])
        assert decoded["v"] == value

    def test_oversized_length_rejected(self):
        import struct

        with pytest.raises(ProtocolError):
            decode_length(struct.pack(">I", MAX_FRAME_BYTES + 1))

    def test_non_object_payload_rejected(self):
        with pytest.raises(ProtocolError):
            decode_payload(b"[1, 2, 3]")
        with pytest.raises(ProtocolError):
            decode_payload(b"\xff\xfe")

    def test_request_response_discrimination(self):
        assert is_request({"op": "stats", "id": 1})
        assert not is_request({"id": 1, "ok": True})


# ----------------------------------------------------------------------
# Loopback transport
# ----------------------------------------------------------------------
class TestLoopbackTransport:
    def test_frames_cross_the_pair_in_order(self):
        async def scenario():
            client, server = loopback_pair()
            await client.write_frame({"op": "a", "id": 1})
            await client.write_frame({"op": "b", "id": 2})
            first = await server.read_frame()
            second = await server.read_frame()
            return first["op"], second["op"]

        assert run(scenario()) == ("a", "b")

    def test_close_wakes_blocked_reader_on_both_ends(self):
        async def scenario():
            client, server = loopback_pair()
            reader = asyncio.ensure_future(server.read_frame())
            await asyncio.sleep(0)
            client.close()
            assert await reader is None
            # The closing end's own reads also see EOF (socket semantics).
            assert await client.read_frame() is None
            with pytest.raises(ConnectionResetError):
                await client.write_frame({"op": "x"})

        run(scenario())

    def test_bounded_buffer_backpressures_writer(self):
        async def scenario():
            client, server = loopback_pair(buffer=2)
            await client.write_frame({"n": 1})
            await client.write_frame({"n": 2})
            blocked = asyncio.ensure_future(client.write_frame({"n": 3}))
            await asyncio.sleep(0.01)
            assert not blocked.done()
            assert (await server.read_frame())["n"] == 1
            await asyncio.wait_for(blocked, timeout=1.0)
            assert (await server.read_frame())["n"] == 2
            assert (await server.read_frame())["n"] == 3

        run(scenario())

    def test_close_wakes_peer_writer_blocked_on_full_buffer(self):
        """Closing one end must release the *peer's* blocked writers too —
        the socket analog raises ConnectionResetError rather than hanging."""

        async def scenario():
            client, server = loopback_pair(buffer=1)
            await client.write_frame({"n": 1})
            blocked = asyncio.ensure_future(client.write_frame({"n": 2}))
            await asyncio.sleep(0.01)
            assert not blocked.done()
            server.close()
            with pytest.raises(ConnectionResetError):
                await asyncio.wait_for(blocked, timeout=1.0)

        run(scenario())

    def test_rejects_empty_buffer(self):
        with pytest.raises(ValueError):
            loopback_pair(0)

    def test_cancelled_blocked_writer_keeps_its_slot_free(self):
        """A writer cancelled while blocked must neither hold a slot nor
        stay queued ahead of later writers — whether it was cancelled
        before a slot freed up or just after one was handed to it."""

        async def scenario():
            client, server = loopback_pair(buffer=1)
            await client.write_frame({"n": 1})
            parked = asyncio.ensure_future(client.write_frame({"n": "lost"}))
            await asyncio.sleep(0)
            parked.cancel()
            await asyncio.sleep(0)
            assert (await server.read_frame())["n"] == 1
            # The freed slot is free, not owed to the cancelled writer.
            await asyncio.wait_for(client.write_frame({"n": 2}), timeout=1.0)

            handed = asyncio.ensure_future(client.write_frame({"n": "lost"}))
            await asyncio.sleep(0)
            assert (await server.read_frame())["n"] == 2  # slot goes to handed
            handed.cancel()
            await asyncio.sleep(0)
            assert handed.cancelled()
            await asyncio.wait_for(client.write_frame({"n": 3}), timeout=1.0)
            # ... and exactly one slot is back: the buffer is full again.
            blocked = asyncio.ensure_future(client.write_frame({"n": 4}))
            await asyncio.sleep(0.01)
            assert not blocked.done()
            assert (await server.read_frame())["n"] == 3
            await asyncio.wait_for(blocked, timeout=1.0)
            assert (await server.read_frame())["n"] == 4

        run(scenario())

    def test_writers_on_a_full_buffer_are_admitted_in_fifo_order(self):
        async def scenario():
            client, server = loopback_pair(buffer=1)
            await client.write_frame({"n": 0})
            writers = []
            for n in range(1, 6):
                writers.append(asyncio.ensure_future(client.write_frame({"n": n})))
                await asyncio.sleep(0)
            assert not any(writer.done() for writer in writers)
            assert (await server.read_frame())["n"] == 0
            # A writer arriving after the slot was handed on queues behind
            # the ones already waiting.
            writers.append(asyncio.ensure_future(client.write_frame({"n": 6})))
            order = [(await server.read_frame())["n"] for _ in range(6)]
            await asyncio.wait_for(asyncio.gather(*writers), timeout=1.0)
            return order

        assert run(scenario()) == [1, 2, 3, 4, 5, 6]

    def test_frames_buffered_before_close_are_read_before_eof(self):
        async def scenario():
            client, server = loopback_pair()
            await client.write_frame({"n": 1})
            await client.write_frame({"n": 2})
            await server.write_frame({"n": 3})
            client.close()
            assert [(await server.read_frame())["n"] for _ in range(2)] == [1, 2]
            assert await server.read_frame() is None
            assert await server.read_frame() is None  # EOF stays visible
            # The closing end still reads what was buffered to it.
            assert (await client.read_frame())["n"] == 3
            assert await client.read_frame() is None

        run(scenario())


# ----------------------------------------------------------------------
# Async query execution mirrors the synchronous selection
# ----------------------------------------------------------------------
class TestAsyncExecution:
    @pytest.mark.parametrize(
        "kind",
        [AggregateKind.SUM, AggregateKind.MAX, AggregateKind.MIN, AggregateKind.AVG],
    )
    @pytest.mark.parametrize("constraint", [0.0, 3.0, 10.0, math.inf])
    def test_matches_sync_execution(self, kind, constraint):
        import random

        rng = random.Random(hash((kind.name, constraint)) & 0xFFFF)
        exacts = {f"k{i}": rng.uniform(-50, 50) for i in range(12)}
        intervals = {
            key: Interval(value - rng.uniform(0, 6), value + rng.uniform(0, 6))
            for key, value in exacts.items()
        }
        sync_fetches = []
        sync_result = execute_bounded_query(
            kind,
            dict(intervals),
            constraint,
            lambda key: sync_fetches.append(key) or exacts[key],
        )

        async_fetches = []

        async def fetch(batch):
            await asyncio.sleep(0)
            async_fetches.extend(batch)
            return [exacts[key] for key in batch]

        async_result = run(
            execute_bounded_query_async(kind, dict(intervals), constraint, fetch)
        )
        assert async_fetches == sync_fetches
        assert async_result.refreshed_keys == sync_result.refreshed_keys
        assert async_result.result_bound.low == sync_result.result_bound.low
        assert async_result.result_bound.high == sync_result.result_bound.high

    def test_validation(self):
        async def fetch(batch):  # pragma: no cover - never called
            return [0.0] * len(batch)

        with pytest.raises(ValueError):
            run(execute_bounded_query_async(AggregateKind.SUM, {}, 1.0, fetch))
        with pytest.raises(ValueError):
            run(
                execute_bounded_query_async(
                    AggregateKind.SUM, {"a": UNBOUNDED}, -1.0, fetch
                )
            )


# ----------------------------------------------------------------------
# Server RPCs over the loopback transport
# ----------------------------------------------------------------------
def _server(**overrides):
    options = dict(value_refresh_cost=1.0, query_refresh_cost=2.0)
    options.update(overrides)
    return CacheServer(StaticWidthPolicy(width=10.0), **options)


class TestCacheServer:
    def test_register_update_query_stats(self):
        async def scenario():
            server = _server()
            feeder_values = {"a": 10.0, "b": 20.0}
            feeder = await Client.from_transport(
                server.connect(), on_request=refresh_answerer(feeder_values)
            )
            client = await Client.from_transport(server.connect())
            await feeder.request("register", keys=["a", "b"], values=[10.0, 20.0])
            # Nothing cached yet: the first tight query misses and refreshes.
            response = await client.request(
                "query", keys=["a", "b"], aggregate="SUM", constraint=0.0, time=1.0
            )
            assert response["misses"] == 2 and response["hits"] == 0
            assert sorted(response["refreshed"]) == ["a", "b"]
            assert response["low"] == response["high"] == 30.0
            # Now both are cached with width-10 intervals.
            response = await client.request(
                "query", keys=["a", "b"], aggregate="SUM", constraint=50.0, time=2.0
            )
            assert response["hits"] == 2 and response["refreshed"] == []
            stats = await client.request("stats")
            assert stats["queries_served"] == 2
            assert stats["query_refreshes"] == 2
            assert stats["refresh_rpcs"] == 2
            assert stats["total_cost"] == 4.0
            await feeder.close()
            await client.close()
            await server.close()

        run(scenario())

    def test_update_escaping_interval_triggers_value_refresh(self):
        async def scenario():
            server = _server()
            feeder = await Client.from_transport(
                server.connect(), on_request=refresh_answerer({"a": 0.0})
            )
            client = await Client.from_transport(server.connect())
            await feeder.request("register", keys=["a"], values=[0.0])
            await client.request(
                "query", keys=["a"], aggregate="SUM", constraint=0.0, time=1.0
            )
            inside = await feeder.request("update", key="a", value=4.0, time=2.0)
            assert inside["refresh"] is False
            outside = await feeder.request("update", key="a", value=25.0, time=3.0)
            assert outside["refresh"] is True
            stats = await client.request("stats")
            assert stats["value_refreshes"] == 1
            assert stats["updates_applied"] == 2
            await feeder.close()
            await client.close()
            await server.close()

        run(scenario())

    def test_duplicate_update_is_ignored(self):
        async def scenario():
            server = _server()
            feeder = await Client.from_transport(server.connect())
            await feeder.request("register", keys=["a"], values=[5.0])
            await feeder.request("update", key="a", value=5.0, time=1.0)
            stats_client = await Client.from_transport(server.connect())
            stats = await stats_client.request("stats")
            assert stats["updates_ignored"] == 1
            assert stats["updates_applied"] == 0
            await feeder.close()
            await stats_client.close()
            await server.close()

        run(scenario())

    def test_update_batch_applies_in_order(self):
        async def scenario():
            server = _server()
            feeder = await Client.from_transport(server.connect())
            response = await feeder.request(
                "update_batch",
                updates=[["a", 1.0], ["b", 2.0], ["a", 3.0]],
                time=1.0,
            )
            assert response["refreshes"] == 0
            assert server.sources["a"].value == 3.0
            assert server.sources["b"].value == 2.0
            await feeder.close()
            await server.close()

        run(scenario())

    def test_reregistration_resets_key_state(self):
        """A second replay against a persistent server starts clean: the new
        initial value replaces stale mirror state and drops the cached
        approximation, and early-timestamp updates are accepted again."""

        async def scenario():
            server = _server()
            first = await Client.from_transport(
                server.connect(), on_request=refresh_answerer({"a": 30.0})
            )
            await first.request("register", keys=["a"], values=[10.0])
            await first.request("update", key="a", value=30.0, time=500.0)
            client = await Client.from_transport(server.connect())
            await client.request(
                "query", keys=["a"], aggregate="SUM", constraint=0.0, time=600.0
            )
            assert server.sources["a"].last_update_time == 500.0
            await first.close()
            second = await Client.from_transport(server.connect())
            await second.request("register", keys=["a"], values=[7.0])
            source = server.sources["a"]
            assert source.value == 7.0
            assert source.last_update_time == 0.0
            assert source.published_interval is None
            assert "a" not in server.cache
            # An update stamped before the first run's horizon is accepted.
            response = await second.request("update", key="a", value=8.0, time=1.0)
            assert response["refresh"] is False
            await second.close()
            await client.close()
            await server.close()

        run(scenario())

    def test_feeder_querying_its_own_key_does_not_deadlock(self):
        """A refresh RPC can target the querying connection itself: queries
        run as tasks, so the connection's read loop stays free to deliver
        the refresh response (previously this was a permanent deadlock that
        leaked an admission slot)."""

        async def scenario():
            server = _server()
            peer = await Client.from_transport(
                server.connect(), on_request=refresh_answerer({"a": 42.0})
            )
            await peer.request("register", keys=["a"], values=[42.0])
            response = await asyncio.wait_for(
                peer.request(
                    "query", keys=["a"], aggregate="SUM", constraint=0.0, time=1.0
                ),
                timeout=2.0,
            )
            assert response["refreshed"] == ["a"]
            assert response["low"] == response["high"] == 42.0
            await peer.close()
            await server.close()

        run(scenario())

    def test_query_then_immediate_disconnect_does_not_wedge_close(self):
        """A connection that queries its own key and disconnects in the same
        breath must not hang teardown: the query task's refresh falls back
        to the mirror (or its future is failed), the reply is dropped, and
        server.close() returns."""

        async def scenario():
            server = _server()
            transport = server.connect()
            # Raw frames, no read loop: send register + query, then close
            # so the server reads the query and the EOF back to back.
            await transport.write_frame(
                {"op": "register", "id": 1, "keys": ["a"], "values": [9.0]}
            )
            await transport.write_frame(
                {
                    "op": "query",
                    "id": 2,
                    "keys": ["a"],
                    "aggregate": "SUM",
                    "constraint": 0.0,
                    "time": 1.0,
                }
            )
            transport.close()
            await asyncio.wait_for(server.close(), timeout=2.0)
            # The admission slot was released: a fresh client still queries.
            client = await Client.from_transport(server.connect())
            response = await client.request(
                "query", keys=["a"], aggregate="SUM", constraint=0.0, time=2.0
            )
            assert response["low"] == 9.0
            await client.close()
            await server.close()

        run(scenario())

    def test_refresh_falls_back_to_mirror_when_feeder_gone(self):
        async def scenario():
            server = _server()
            feeder = await Client.from_transport(server.connect())
            await feeder.request("register", keys=["a"], values=[7.0])
            await feeder.close()
            client = await Client.from_transport(server.connect())
            response = await client.request(
                "query", keys=["a"], aggregate="SUM", constraint=0.0, time=1.0
            )
            assert response["low"] == response["high"] == 7.0
            await client.close()
            await server.close()

        run(scenario())

    def test_unknown_operation_and_bad_query_error(self):
        async def scenario():
            server = _server()
            client = await Client.from_transport(server.connect())
            with pytest.raises(RuntimeError, match="unknown operation"):
                await client.request("frobnicate")
            with pytest.raises(RuntimeError, match="failed"):
                await client.request("query", keys=[], aggregate="SUM", constraint=1.0)
            with pytest.raises(RuntimeError, match="failed"):
                await client.request(
                    "query", keys=["a"], aggregate="MEDIAN", constraint=1.0
                )
            # Unexpected exception classes also become error replies (never a
            # silent hang or a dropped connection): 10**400 overflows float().
            with pytest.raises(RuntimeError, match="OverflowError"):
                await asyncio.wait_for(
                    client.request(
                        "query", keys=["a"], aggregate="SUM", constraint=10**400
                    ),
                    timeout=2.0,
                )
            # The connection survived and still serves.
            stats = await client.request("stats")
            assert stats["connections"] == 1
            await client.close()
            await server.close()

        run(scenario())

    def test_admission_control_rejects_overload(self):
        async def scenario():
            server = _server(max_inflight_queries=1, admission_queue_limit=0)
            gate = asyncio.Event()

            async def slow_answer(frame):
                await gate.wait()
                return refresh_reply({"a": 0.0}, frame)

            feeder = await Client.from_transport(
                server.connect(), on_request=slow_answer
            )
            await feeder.request("register", keys=["a"], values=[0.0])
            first_client = await Client.from_transport(server.connect())
            second_client = await Client.from_transport(server.connect())
            # The first query blocks inside its refresh RPC, holding the gate.
            blocked = asyncio.ensure_future(
                first_client.request(
                    "query", keys=["a"], aggregate="SUM", constraint=0.0, time=1.0
                )
            )
            await asyncio.sleep(0.01)
            rejected = await second_client.request(
                "query", keys=["a"], aggregate="SUM", constraint=0.0, time=1.0
            )
            assert rejected["overloaded"] is True
            gate.set()
            completed = await asyncio.wait_for(blocked, timeout=1.0)
            assert completed["refreshed"] == ["a"]
            stats = await second_client.request("stats")
            assert stats["queries_rejected"] == 1
            assert stats["queries_served"] == 1
            await feeder.close()
            await first_client.close()
            await second_client.close()
            await server.close()

        run(scenario())

    def test_clean_shutdown_leaves_no_tasks(self):
        async def scenario():
            server = _server()
            client = await Client.from_transport(server.connect())
            await client.request("stats")
            await client.close()
            await server.close()
            pending = [
                task
                for task in asyncio.all_tasks()
                if task is not asyncio.current_task() and not task.done()
            ]
            assert pending == []

        run(scenario())

    def test_tcp_transport_round_trip_and_clean_close(self):
        """The TCP path: real sockets, stats RPC, close() waits for the
        tracked per-connection handler tasks."""

        async def scenario():
            from repro.serving.transport import StreamFrameTransport

            server = _server()
            tcp = await server.start_tcp("127.0.0.1", 0)
            port = tcp.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            client = await Client.from_transport(StreamFrameTransport(reader, writer))
            stats = await client.request("stats")
            assert stats["connections"] == 1
            await client.close()
            await server.close()
            pending = [
                task
                for task in asyncio.all_tasks()
                if task is not asyncio.current_task() and not task.done()
            ]
            assert pending == []
            assert server.statistics.connections_closed == 1

        run(scenario())

    @pytest.mark.parametrize(
        "error", [ConnectionResetError, BrokenPipeError, RuntimeError]
    )
    def test_failed_send_marks_connection_closing(self, error):
        """A reply whose transport write raises is dropped: the connection
        is marked closing, later replies are not written, and the error
        never surfaces in the dispatcher or the read loop."""

        class FailingTransport:
            def __init__(self):
                self.frames = [{"op": "stats", "id": 1}, {"op": "stats", "id": 2}]
                self.writes = 0

            async def read_frame_with_payload(self):
                if not self.frames:
                    return None
                frame = self.frames.pop(0)
                return frame, encode_json(frame).encode()

            async def write_frame(self, message):
                self.writes += 1
                raise error("peer gone")

            def close(self):
                pass

            async def wait_closed(self):
                pass

        async def scenario():
            server = _server()
            dispatched = []
            dispatch = server._dispatch

            async def recording_dispatch(connection, frame, payload):
                await dispatch(connection, frame, payload)
                dispatched.append((frame["id"], connection.closing))

            server._dispatch = recording_dispatch
            transport = FailingTransport()
            await server.serve_transport(transport)
            assert transport.writes == 1
            assert dispatched == [(1, True), (2, True)]
            assert server.statistics.connections_closed == 1

        run(scenario())

    def test_validation(self):
        with pytest.raises(ValueError):
            _server(max_inflight_queries=0)


# ----------------------------------------------------------------------
# One core call per run of known keys
# ----------------------------------------------------------------------
def _per_update_feed(server, updates, time):
    """The per-update loop ``_feed`` replaced: one core call per update.

    Returns the refreshes fired (``"out-of-order"`` when an update raised)
    and the applied and ignored counts, kept here because the server's own
    counters also count through its update hook.
    """
    sources = server._core.sources
    counts = [0, 0]
    refreshes = 0
    for key, value in updates:
        source = sources.get(key)
        if source is None:
            server._register_key(None, key, value)
            counts[0] += 1
            continue
        update_count = source.update_count
        try:
            refreshes += server._core.apply_updates(((source, (value,)),), time)
        except UpdateOrderError:
            return "out-of-order", tuple(counts)
        counts[0 if source.update_count != update_count else 1] += 1
    return refreshes, tuple(counts)


def _feed_server():
    """Known keys a, b, c published around 0; c is stamped ahead of t = 5."""
    server = CacheServer(serving_policy(seed=3))
    for key in "abc":
        server._register_key(None, key, 0.0)
        server._core.refresh(key, 1.0, False)
    server.sources["c"].last_update_time = 9.0
    return server


def _feed_state(server):
    core = server._core
    return pickle.dumps(
        (core.sources, core.cache, core.network, core.policy, server._drift)
    )


_FEED_UPDATES = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", "x", "y"]),
        st.sampled_from([0.0, 1.0, 500.0, 5000.0]),
    ),
    max_size=12,
)


class TestFeed:
    @given(updates=_FEED_UPDATES)
    @example(updates=[("a", 1.0), ("x", 2.0), ("a", 1.0), ("x", 3.0), ("b", 0.0)])
    @example(updates=[("a", 5000.0), ("b", 0.0), ("c", 1.0), ("a", 1.0)])
    @example(updates=[("c", 0.0), ("c", 0.0), ("y", 1.0), ("c", 500.0), ("a", 1.0)])
    @settings(max_examples=200, deadline=None)
    def test_counts_and_refreshes_match_the_per_update_loop(self, updates):
        """Unknown keys mid-batch, repeated keys, unchanged values and an
        out-of-order update (c's) part-way through: ``_feed`` fires the same
        refreshes, counts the same applied and ignored updates and leaves
        the same state as one core call per update."""
        reference = _feed_server()
        expected = _per_update_feed(reference, updates, 5.0)
        server = _feed_server()
        statistics = server.statistics
        try:
            refreshes = server._feed(None, updates, 5.0)
        except ProtocolError as error:
            assert "non-decreasing" in str(error)
            refreshes = "out-of-order"
        counts = (statistics.updates_applied, statistics.updates_ignored)
        assert (refreshes, counts) == expected
        assert _feed_state(server) == _feed_state(reference)


# ----------------------------------------------------------------------
# Pipelined query-initiated refreshes
# ----------------------------------------------------------------------
class _CountingWidthPolicy(StaticWidthPolicy):
    """Publishes width ``10 * n`` on its n-th query-initiated refresh.

    The width records the order installs happened in, so a test can derive
    the whole resulting state by hand.
    """

    def __init__(self):
        super().__init__(width=10.0)
        self.refreshed = []

    def on_query_initiated_refresh(self, key, exact_value, time):
        self.refreshed.append(key)
        width = 10.0 * len(self.refreshed)
        return PrecisionDecision(
            interval=Interval(exact_value - width / 2, exact_value + width / 2),
            original_width=width,
        )


async def _raw_feeder(server, keys, values, feeder):
    """A feeder with no read loop: the test reads and answers its frames."""
    transport = server.connect()
    await transport.write_frame(
        {"op": "register", "id": 1, "keys": keys, "values": values, "feeder": feeder}
    )
    assert (await transport.read_frame())["ok"] is True
    return transport


def _wal_records(directory):
    durability = PartitionDurability(directory)
    _, records = durability.load()
    durability.close()
    return records


class TestPipelinedRefreshes:
    def test_second_feeder_answering_first_keeps_selection_order(self, tmp_path):
        """Two feeders, the second answering first.

        The query SUM(a, b) with constraint 0 misses both keys, so both are
        unbounded and the selection takes them in key order: a, then b.
        Feeder B (b = 20) answers before feeder A (a = 7).  Installs still
        run in selection order, so the policy's first refresh is a (width
        10, [2, 12]) and its second is b (width 20, [10, 30]); the WAL's one
        ``qr`` record lists a before b, and a server recovered from that WAL holds
        the same intervals, two query refreshes and a cost of 2 x 2.0.
        Installing in reply order would have swapped both widths.
        """

        async def scenario():
            policy = _CountingWidthPolicy()
            server = CacheServer(
                policy,
                value_refresh_cost=1.0,
                query_refresh_cost=2.0,
                durability=PartitionDurability(tmp_path),
            )
            feeder_a = await _raw_feeder(server, ["a"], [7.0], "feeder-a")
            feeder_b = await _raw_feeder(server, ["b"], [20.0], "feeder-b")
            querier = await Client.from_transport(server.connect())
            query = asyncio.ensure_future(
                querier.request(
                    "query", keys=["a", "b"], aggregate="SUM", constraint=0.0, time=1.0
                )
            )
            refresh_a = await asyncio.wait_for(feeder_a.read_frame(), timeout=2.0)
            refresh_b = await asyncio.wait_for(feeder_b.read_frame(), timeout=2.0)
            assert (refresh_a["keys"], refresh_b["keys"]) == (["a"], ["b"])
            await feeder_b.write_frame(refresh_reply({"b": 20.0}, refresh_b))
            await asyncio.sleep(0.01)
            assert not query.done()
            await feeder_a.write_frame(refresh_reply({"a": 7.0}, refresh_a))
            response = await asyncio.wait_for(query, timeout=2.0)
            assert response["refreshed"] == ["a", "b"]
            assert response["low"] == response["high"] == 27.0
            assert policy.refreshed == ["a", "b"]
            assert server.sources["a"].published_interval == Interval(2.0, 12.0)
            assert server.sources["b"].published_interval == Interval(10.0, 30.0)
            await querier.close()
            feeder_a.close()
            feeder_b.close()
            await server.close()

            (qr,) = [record for record in _wal_records(tmp_path) if record["k"] == "qr"]
            assert (qr["keys"], qr["vals"]) == (["a", "b"], [7.0, 20.0])

            recovered = CacheServer(
                _CountingWidthPolicy(),
                value_refresh_cost=1.0,
                query_refresh_cost=2.0,
                durability=PartitionDurability(tmp_path),
            )
            assert recovered.sources["a"].published_interval == Interval(2.0, 12.0)
            assert recovered.sources["b"].published_interval == Interval(10.0, 30.0)
            assert recovered.network.query_refreshes == 2
            assert recovered.network.total_cost == 4.0
            await recovered.close()

        run(scenario())

    def test_sum_victims_arrive_together(self):
        """A SUM query's k victims reach their feeder as one frame."""

        async def scenario():
            server = _server()
            keys = ["a", "b", "c", "d"]
            values = [1.0, 2.0, 3.0, 4.0]
            feeder = await _raw_feeder(server, keys, values, "feeder-0")
            querier = await Client.from_transport(server.connect())
            query = asyncio.ensure_future(
                querier.request(
                    "query", keys=keys, aggregate="SUM", constraint=0.0, time=1.0
                )
            )
            frame = await asyncio.wait_for(feeder.read_frame(), timeout=2.0)
            assert frame["op"] == "refresh"
            assert frame["keys"] == keys
            following = asyncio.ensure_future(feeder.read_frame())
            await asyncio.sleep(0.01)
            assert not following.done()
            following.cancel()
            await feeder.write_frame(refresh_reply(dict(zip(keys, values)), frame))
            response = await asyncio.wait_for(query, timeout=2.0)
            assert response["refreshed"] == keys
            assert response["low"] == response["high"] == 10.0
            await querier.close()
            feeder.close()
            await server.close()

        run(scenario())

    def test_max_victims_arrive_one_at_a_time(self):
        """A MAX victim depends on the values before it: one single-key
        frame per step."""

        async def scenario():
            server = _server()
            keys = ["a", "b", "c"]
            values = {"a": 1.0, "b": 3.0, "c": 2.0}
            feeder = await _raw_feeder(
                server, keys, [values[key] for key in keys], "feeder-0"
            )
            querier = await Client.from_transport(server.connect())
            query = asyncio.ensure_future(
                querier.request(
                    "query", keys=keys, aggregate="MAX", constraint=0.0, time=1.0
                )
            )
            seen = []
            for _ in keys:
                frame = await asyncio.wait_for(feeder.read_frame(), timeout=2.0)
                seen.append(frame["keys"])
                following = asyncio.ensure_future(feeder.read_frame())
                await asyncio.sleep(0.01)
                assert not following.done()
                following.cancel()
                await feeder.write_frame(refresh_reply(values, frame))
            response = await asyncio.wait_for(query, timeout=2.0)
            assert seen == [[key] for key in keys]
            assert response["low"] == response["high"] == 3.0
            await querier.close()
            feeder.close()
            await server.close()

        run(scenario())

    def test_answers_after_a_lost_victim_are_dropped(self):
        """A lost victim ends the installable prefix, even if later ones answer.

        SUM(a, b) selects a then b.  Feeder A dies with its refresh in
        flight; feeder B answers 20.  Nothing precedes a, so nothing
        installs: B's answer is dropped (no install, no charge).  The retry
        pass answers a from its mirror (7, no widening) and refreshes b
        again, which B answers: one query refresh, cost 2.0, one failed
        refresh, three refresh RPCs, answer [27, 27].
        """

        async def scenario():
            server = _server()
            feeder_a = await _raw_feeder(server, ["a"], [7.0], "feeder-a")
            feeder_b = await _raw_feeder(server, ["b"], [20.0], "feeder-b")
            querier = await Client.from_transport(server.connect())
            query = asyncio.ensure_future(
                querier.request(
                    "query", keys=["a", "b"], aggregate="SUM", constraint=0.0, time=1.0
                )
            )
            await asyncio.wait_for(feeder_a.read_frame(), timeout=2.0)
            refresh_b = await asyncio.wait_for(feeder_b.read_frame(), timeout=2.0)
            feeder_a.close()
            await feeder_b.write_frame(refresh_reply({"b": 20.0}, refresh_b))
            retry_b = await asyncio.wait_for(feeder_b.read_frame(), timeout=2.0)
            assert retry_b["keys"] == ["b"]
            await feeder_b.write_frame(refresh_reply({"b": 20.0}, retry_b))
            response = await asyncio.wait_for(query, timeout=2.0)
            assert response["degraded_keys"] == ["a"]
            assert response["refreshed"] == ["b"]
            assert response["low"] == response["high"] == 27.0
            stats = await querier.request("stats")
            assert stats["refreshes_failed"] == 1
            assert stats["refresh_rpcs"] == 3
            assert stats["query_refreshes"] == 1
            assert stats["total_cost"] == 2.0
            await querier.close()
            feeder_b.close()
            await server.close()

        run(scenario())

    def test_unanswered_victim_times_out_under_one_batch_deadline(self):
        """One deadline covers the batch; the answered prefix still installs.

        SUM(a, b) selects a then b.  Feeder A answers 7; feeder B reads its
        frame and never answers.  After one 0.2 s deadline, a is installed
        (the prefix), b counts one failed refresh, B is fenced, and the
        retry pass answers b degraded from its mirror (20, never updated,
        so no widening): [27, 27].
        """

        async def scenario():
            server = _server(refresh_timeout=0.2)
            feeder_a = await _raw_feeder(server, ["a"], [7.0], "feeder-a")
            feeder_b = await _raw_feeder(server, ["b"], [20.0], "feeder-b")
            querier = await Client.from_transport(server.connect())
            query = asyncio.ensure_future(
                querier.request(
                    "query", keys=["a", "b"], aggregate="SUM", constraint=0.0, time=1.0
                )
            )
            refresh_a = await asyncio.wait_for(feeder_a.read_frame(), timeout=2.0)
            await asyncio.wait_for(feeder_b.read_frame(), timeout=2.0)
            await feeder_a.write_frame(refresh_reply({"a": 7.0}, refresh_a))
            response = await asyncio.wait_for(query, timeout=2.0)
            assert response["degraded"] is True
            assert response["degraded_keys"] == ["b"]
            assert response["refreshed"] == ["a"]
            assert response["low"] == response["high"] == 27.0
            stats = await querier.request("stats")
            assert stats["refreshes_failed"] == 1
            assert stats["query_refreshes"] == 1
            assert all(not connection.pending for connection in server._connections)
            await querier.close()
            feeder_a.close()
            feeder_b.close()
            await server.close()

        run(scenario())

    def test_update_overtaking_refresh_reply_is_not_rolled_back(self, tmp_path):
        """A reply that an update overtakes must not roll the mirror back.

        The feeder registers a = 7, answers the query's refresh with 7.0 and
        sends ``update a = 100`` straight after.  The server reads the
        update before the query installs the reply, so it installs around
        the mirror's 100 (width 10: [95, 105]) and logs 100, not 7.
        """

        async def scenario():
            server = _server(durability=PartitionDurability(tmp_path))
            feeder = await _raw_feeder(server, ["a"], [7.0], "feeder-0")
            querier = await Client.from_transport(server.connect())
            query = asyncio.ensure_future(
                querier.request(
                    "query", keys=["a"], aggregate="SUM", constraint=0.0, time=1.0
                )
            )
            refresh = await asyncio.wait_for(feeder.read_frame(), timeout=2.0)
            await feeder.write_frame(refresh_reply({"a": 7.0}, refresh))
            await feeder.write_frame(
                {"op": "update", "id": 2, "key": "a", "value": 100.0, "time": 2.0}
            )
            response = await asyncio.wait_for(query, timeout=2.0)
            assert response["low"] <= 100.0 <= response["high"]
            assert server.sources["a"].value == 100.0
            assert server.sources["a"].published_interval == Interval(95.0, 105.0)
            await querier.close()
            feeder.close()
            await server.close()
            (qr,) = [r for r in _wal_records(tmp_path) if r["k"] == "qr"]
            assert (qr["keys"], qr["vals"]) == (["a"], [100.0])

        run(scenario())

    def test_feeder_failing_mid_frame_installs_the_answered_prefix(self, tmp_path):
        """A feeder that cannot answer key 3 of 5 replies with keys 1-2.

        The client's responder stops at the KeyError for c and replies
        ``ok: false`` with the values of a and b.  Those two install and
        log; c fails the feeder (one failed refresh, fenced), so the retry
        pass answers every key of the feeder degraded, c, d and e from
        their never-updated mirrors: [15, 15].
        """

        async def scenario():
            server = _server(durability=PartitionDurability(tmp_path))
            values = {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0, "e": 5.0}
            answers = {key: values[key] for key in ("a", "b", "d", "e")}
            feeder = await Client.from_transport(
                server.connect(), on_refresh=answers.__getitem__
            )
            await feeder.register(list(values), list(values.values()), feeder="f0")
            querier = await Client.from_transport(server.connect())
            response = await querier.request(
                "query", keys=list(values), aggregate="SUM", constraint=0.0, time=1.0
            )
            assert response["refreshed"] == ["a", "b"]
            assert response["degraded_keys"] == list(values)
            assert response["low"] == response["high"] == 15.0
            stats = await querier.request("stats")
            assert stats["refresh_rpcs"] == 5
            assert stats["query_refreshes"] == 2
            assert stats["refreshes_failed"] == 1
            assert stats["total_cost"] == 4.0
            await querier.close()
            await feeder.close()
            await server.close()
            (qr,) = [r for r in _wal_records(tmp_path) if r["k"] == "qr"]
            assert (qr["keys"], qr["vals"]) == (["a", "b"], [1.0, 2.0])

        run(scenario())

    @pytest.mark.parametrize(
        "values",
        [7.0, [7.0, 20.0, 1.0], [7.0, "20.0"], [7.0, math.nan]],
        ids=["not-a-list", "too-long", "string", "nan"],
    )
    def test_malformed_reply_installs_and_logs_nothing(self, values, tmp_path):
        """A malformed ``values`` fails every key of its frame with
        ``ValueError``: the query errors, nothing installs or logs, and the
        feeder is not fenced."""

        async def scenario():
            server = _server(durability=PartitionDurability(tmp_path))
            feeder = await _raw_feeder(server, ["a", "b"], [7.0, 20.0], "feeder-0")
            querier = await Client.from_transport(server.connect())
            query = asyncio.ensure_future(
                querier.request(
                    "query", keys=["a", "b"], aggregate="SUM", constraint=0.0, time=1.0
                )
            )
            frame = await asyncio.wait_for(feeder.read_frame(), timeout=2.0)
            assert frame["keys"] == ["a", "b"]
            await feeder.write_frame({"id": frame["id"], "values": values})
            with pytest.raises(RequestRejected, match="malformed refresh reply"):
                await asyncio.wait_for(query, timeout=2.0)
            stats = await querier.request("stats")
            assert stats["query_refreshes"] == 0
            assert stats["refreshes_failed"] == 0
            assert stats["total_cost"] == 0.0
            assert stats["keys_down"] == 0
            assert server.sources["a"].published_interval is None
            assert server.sources["b"].published_interval is None
            await querier.close()
            feeder.close()
            await server.close()
            assert [r for r in _wal_records(tmp_path) if r["k"] == "qr"] == []

        run(scenario())

    def test_batch_split_over_two_owners_installs_in_selection_order(self, tmp_path):
        """SUM(a, b, c, d) with A owning a, c and B owning b, d.

        The selection takes the unbounded keys in key order, so A's frame
        carries [a, c] and B's [b, d].  B answers first; installs still run
        a, b, c, d, so the policy's widths are 10, 20, 30, 40 in that
        order, and the WAL's one ``qr`` record lists the keys in that order too.
        """

        async def scenario():
            policy = _CountingWidthPolicy()
            server = CacheServer(
                policy,
                value_refresh_cost=1.0,
                query_refresh_cost=2.0,
                durability=PartitionDurability(tmp_path),
            )
            values = {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0}
            feeder_a = await _raw_feeder(server, ["a", "c"], [1.0, 3.0], "feeder-a")
            feeder_b = await _raw_feeder(server, ["b", "d"], [2.0, 4.0], "feeder-b")
            querier = await Client.from_transport(server.connect())
            query = asyncio.ensure_future(
                querier.request(
                    "query",
                    keys=list(values),
                    aggregate="SUM",
                    constraint=0.0,
                    time=1.0,
                )
            )
            refresh_a = await asyncio.wait_for(feeder_a.read_frame(), timeout=2.0)
            refresh_b = await asyncio.wait_for(feeder_b.read_frame(), timeout=2.0)
            assert (refresh_a["keys"], refresh_b["keys"]) == (["a", "c"], ["b", "d"])
            await feeder_b.write_frame(refresh_reply(values, refresh_b))
            await asyncio.sleep(0.01)
            assert not query.done()
            await feeder_a.write_frame(refresh_reply(values, refresh_a))
            response = await asyncio.wait_for(query, timeout=2.0)
            assert response["refreshed"] == ["a", "b", "c", "d"]
            assert response["low"] == response["high"] == 10.0
            assert policy.refreshed == ["a", "b", "c", "d"]
            for width, key in zip((10.0, 20.0, 30.0, 40.0), "abcd"):
                assert server.sources[key].published_interval == Interval(
                    values[key] - width / 2, values[key] + width / 2
                )
            await querier.close()
            feeder_a.close()
            feeder_b.close()
            await server.close()
            (qr,) = [r for r in _wal_records(tmp_path) if r["k"] == "qr"]
            assert qr["keys"] == ["a", "b", "c", "d"]

        run(scenario())

    def test_one_deadline_covers_every_frame_of_a_batch(self):
        """B's frame expires at the batch's one deadline, taken at the sends.

        SUM(a, b) sends A's and B's frames together under a 0.4 s deadline.
        A answers after 0.3 s; B never does.  B's key fails at the 0.4 s
        mark, not 0.4 s after A's reply (0.7 s): a installs, b answers
        degraded from its mirror.
        """

        async def scenario():
            server = _server(refresh_timeout=0.4)
            feeder_a = await _raw_feeder(server, ["a"], [7.0], "feeder-a")
            feeder_b = await _raw_feeder(server, ["b"], [20.0], "feeder-b")
            querier = await Client.from_transport(server.connect())
            loop = asyncio.get_running_loop()
            started = loop.time()
            query = asyncio.ensure_future(
                querier.request(
                    "query", keys=["a", "b"], aggregate="SUM", constraint=0.0, time=1.0
                )
            )
            refresh_a = await asyncio.wait_for(feeder_a.read_frame(), timeout=2.0)
            await asyncio.wait_for(feeder_b.read_frame(), timeout=2.0)
            await asyncio.sleep(0.3)
            await feeder_a.write_frame(refresh_reply({"a": 7.0}, refresh_a))
            response = await asyncio.wait_for(query, timeout=2.0)
            assert loop.time() - started < 0.6
            assert response["refreshed"] == ["a"]
            assert response["degraded_keys"] == ["b"]
            assert response["low"] == response["high"] == 27.0
            assert all(not connection.pending for connection in server._connections)
            await querier.close()
            feeder_a.close()
            feeder_b.close()
            await server.close()

        run(scenario())

    def test_refresh_rpcs_count_keys_and_trace_one_record_per_frame(self):
        """SUM(a, b, c) over two owners is two frames but three refresh RPCs:
        ``refresh_rpcs`` and ``repro_refresh_rpcs_total`` count keys, and the
        trace holds one ``refresh_rpc`` record per frame, with its keys."""

        async def scenario():
            server = _server(registry=MetricsRegistry(enabled=True))
            values = {"a": 1.0, "b": 2.0, "c": 3.0}
            feeder_a = await Client.from_transport(
                server.connect(), on_refresh=values.__getitem__
            )
            await feeder_a.register(["a", "c"], [1.0, 3.0], feeder="feeder-a")
            feeder_b = await Client.from_transport(
                server.connect(), on_refresh=values.__getitem__
            )
            await feeder_b.register(["b"], [2.0], feeder="feeder-b")
            querier = await Client.from_transport(server.connect())
            response = await querier.request(
                "query", keys=["a", "b", "c"], aggregate="SUM", constraint=0.0, time=1.0
            )
            assert response["refreshed"] == ["a", "b", "c"]
            stats = await querier.request("stats")
            snapshot = await querier.metrics()
            await querier.close()
            await feeder_a.close()
            await feeder_b.close()
            await server.close()
            return stats, snapshot

        tracer = configure_tracer(role="partition0")
        try:
            stats, snapshot = run(scenario())
            events = [
                event
                for event in tracer.recorder.events()
                if event["name"] == "refresh_rpc"
            ]
        finally:
            configure_tracer(role="proc", enabled=False)
        assert stats["refresh_rpcs"] == 3
        assert stats["query_refreshes"] == 3
        (rpcs,) = [
            metric["samples"]
            for metric in snapshot["metrics"]
            if metric["name"] == "repro_refresh_rpcs_total"
        ]
        assert rpcs[0]["value"] == 3.0
        assert [(event["span"], event["keys"]) for event in events] == [
            ("partition0:1:r1", ["'a'", "'c'"]),
            ("partition0:2:r1", ["'b'"]),
        ]


# ----------------------------------------------------------------------
# Shutdown: close() ends, and never eats its own cancel
# ----------------------------------------------------------------------
class _SlowTeardown:
    """Mixin: each connection's teardown hangs, so ``close`` must wait."""

    async def _connection_lost(self, connection):
        await asyncio.sleep(60)
        await super()._connection_lost(connection)


async def _backend(kind, mixin=()):
    """A started ``kind`` backend and everything to close after it."""
    if kind == "server":
        server = type("Server", (*mixin, CacheServer), {})(
            StaticWidthPolicy(width=10.0)
        )
        return server, []
    partitions = [_server(), _server()]
    gateway = type("Gateway", (*mixin, GatewayServer), {})(partitions)
    await gateway.start()
    return gateway, partitions


class TestCloseContract:
    @pytest.mark.parametrize("kind", ["server", "gateway"])
    def test_close_right_after_connect_ends(self, kind):
        # No yield between the dial and close(): the serve task of the
        # loopback connection has not run when close() looks for it.
        bound = 2.0

        async def scenario():
            backend, partitions = await _backend(kind)
            loop = asyncio.get_running_loop()
            backend.connect()
            started = loop.time()
            timer = loop.call_later(bound, asyncio.current_task().cancel)
            try:
                await backend.close()
            finally:
                timer.cancel()
            elapsed = loop.time() - started
            for partition in partitions:
                await partition.close()
            return elapsed

        assert run(scenario()) < bound

    @pytest.mark.parametrize("kind", ["server", "gateway"])
    def test_cancelled_close_raises(self, kind):
        async def scenario():
            backend, _ = await _backend(kind, (_SlowTeardown,))
            client = await Client.connect(backend)
            closing = asyncio.ensure_future(backend.close())
            await asyncio.sleep(0.05)
            assert not closing.done()  # held up by the slow teardown
            closing.cancel()
            with pytest.raises(asyncio.CancelledError):
                await closing
            await client.close()

        run(scenario())


# ----------------------------------------------------------------------
# Loadgen helpers
# ----------------------------------------------------------------------
class TestLoadgenHelpers:
    def test_percentile_nearest_rank(self):
        values = sorted(float(v) for v in range(1, 101))
        assert percentile(values, 0.50) == 50.0
        assert percentile(values, 0.99) == 99.0
        assert percentile(values, 1.0) == 100.0
        assert percentile([], 0.5) == 0.0
        with pytest.raises(ValueError):
            percentile(values, 1.5)

    def test_report_hit_rate(self):
        report = LoadgenReport(
            mode="open-loop/steady",
            clients=2,
            queries=10,
            updates_sent=5,
            hits=8,
            misses=2,
            value_refreshes=1,
            query_refreshes=2,
            queries_rejected=0,
            total_cost=5.0,
            omega=0.5,
            wall_seconds=1.0,
            throughput_qps=10.0,
            p50_latency_ms=1.0,
            p99_latency_ms=2.0,
            max_latency_ms=3.0,
        )
        assert report.hit_rate == 0.8
        assert report.refresh_count == 3
        assert "hit_rate=0.8000" in report.describe()
