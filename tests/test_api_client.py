"""The one typed client API and its deployment-description dataclass.

``connect``/``dial`` on ``repro.serving.api.Client`` must accept every
documented target form, and :class:`ServeConfig` must reject the flag
combinations the CLI forwards to it.
"""

import asyncio
import math

import pytest

from repro.experiments.workloads import serving_policy
from repro.serving.api import Client, ServeConfig, check_reply, dial
from repro.serving.errors import ConnectionLost, RequestRejected
from repro.serving.server import CacheServer


def _server():
    return CacheServer(serving_policy())


class TestClientConnect:
    def test_connect_loopback_and_query(self):
        async def drive():
            server = _server()
            client = await Client.connect(server)
            try:
                await client.register(["a", "b"], [1.0, 2.0], feeder="f")
                answer = await client.query(["a", "b"])
                assert answer.low <= 3.0 <= answer.high
            finally:
                await client.close()
                await server.close()

        asyncio.run(drive())

    def test_connect_tcp_url_and_tuple(self):
        async def drive():
            server = _server()
            tcp = await server.start_tcp("127.0.0.1", 0)
            port = tcp.sockets[0].getsockname()[1]
            try:
                for target in (
                    f"tcp://127.0.0.1:{port}",
                    f"127.0.0.1:{port}",
                    ("127.0.0.1", port),
                ):
                    client = await Client.connect(target)
                    stats = await client.stats()
                    assert stats["ok"] is True
                    await client.close()
            finally:
                await server.close()

        asyncio.run(drive())

    def test_dial_rejects_garbage(self):
        async def drive():
            with pytest.raises(ValueError, match="cannot parse"):
                await dial("tcp://nonsense")
            with pytest.raises(TypeError, match="cannot dial"):
                await dial(object())

        asyncio.run(drive())

    def test_default_deadline_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            Client(None, default_deadline=0)


class TestClientSend:
    """``send`` writes a request and returns its reply future; ``request``
    is send-then-await on top of it."""

    def test_reply_equals_request_reply(self):
        async def drive():
            server = _server()
            client = await Client.connect(server)
            try:
                await client.register(["a", "b"], [1.0, 2.0], feeder="f")
                fields = {"keys": ["a", "b"], "aggregate": "SUM", "time": 1.0}
                sent = await (await client.send("query", **fields))
                requested = await client.request("query", **fields)
            finally:
                await client.close()
                await server.close()
            return sent, requested

        sent, requested = asyncio.run(drive())
        assert sent.pop("id") != requested.pop("id")
        assert sent == requested

    def test_error_reply_is_checked_only_on_request(self):
        async def drive():
            server = _server()
            client = await Client.connect(server)
            try:
                reply = await (await client.send("no_such_op"))
                with pytest.raises(RequestRejected, match="unknown operation"):
                    await client.request("no_such_op")
            finally:
                await client.close()
                await server.close()
            return reply

        reply = asyncio.run(drive())
        assert reply["ok"] is False
        with pytest.raises(RequestRejected, match="no_such_op failed"):
            check_reply("no_such_op", reply)

    @pytest.mark.parametrize("reader_done", [True, False])
    def test_closed_link_raises_at_send_and_leaves_nothing_pending(self, reader_done):
        async def drive():
            server = _server()
            client = await Client.connect(server)
            try:
                if reader_done:
                    await client.close()
                else:
                    # The transport is closed but the read loop has not
                    # seen it yet: the write itself fails.
                    client._transport.close()
                with pytest.raises(ConnectionLost):
                    await client.send("stats")
                pending = dict(client._pending)
            finally:
                await client.close()
                await server.close()
            return pending

        assert asyncio.run(drive()) == {}

    def test_ids_stay_unique_across_both_paths(self):
        async def drive():
            server = _server()
            client = await Client.connect(server)
            try:
                first = await client.send("stats")
                second = await client.send("stats")
                replies = await asyncio.gather(
                    client.request("stats"), first, client.request("stats"), second
                )
                late = await (await client.send("stats"))
            finally:
                await client.close()
                await server.close()
            return [reply["id"] for reply in (*replies, late)]

        ids = asyncio.run(drive())
        assert len(set(ids)) == len(ids) == 5


class TestServeConfig:
    def test_defaults_are_single_role(self):
        config = ServeConfig()
        assert config.role == "single"
        assert config.partitions == 1

    @pytest.mark.parametrize("role", ["cluster", "partition"])
    def test_rejects_unknown_role(self, role):
        with pytest.raises(ValueError, match="role"):
            ServeConfig(role=role)

    def test_partitions_require_gateway_role(self):
        with pytest.raises(ValueError, match="gateway"):
            ServeConfig(role="single", partitions=4)
        ServeConfig(role="gateway", partitions=4)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError, match="partitions"):
            ServeConfig(role="gateway", partitions=0)
        with pytest.raises(ValueError, match="max_inflight"):
            ServeConfig(max_inflight=0)

    @pytest.mark.parametrize("cost_factor", [0.0, -1.0, math.nan])
    def test_rejects_non_positive_or_nan_cost_factor(self, cost_factor):
        # Checked at construction, before a gateway spawns any partition.
        with pytest.raises(ValueError, match="cost_factor"):
            ServeConfig(role="gateway", partitions=2, cost_factor=cost_factor)
