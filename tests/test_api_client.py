"""The one typed client API and its deployment-description dataclass.

``connect``/``dial`` on ``repro.serving.api.Client`` must accept every
documented target form, and :class:`ServeConfig` must reject the flag
combinations the CLI forwards to it.
"""

import asyncio

import pytest

from repro.experiments.workloads import serving_policy
from repro.serving.api import Client, ServeConfig, dial
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

    def test_subscribe_stats_yields_and_stops(self):
        async def drive():
            server = _server()
            client = await Client.connect(server)
            try:
                seen = []
                async for stats in client.subscribe_stats(0.01, count=3):
                    seen.append(stats)
                assert len(seen) == 3
                assert all("hit_rate" in s for s in seen)
            finally:
                await client.close()
                await server.close()

        asyncio.run(drive())

    def test_default_deadline_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            Client(None, default_deadline=0)


class TestServeConfig:
    def test_defaults_are_single_role(self):
        config = ServeConfig()
        assert config.role == "single"
        assert config.partitions == 1

    def test_rejects_unknown_role(self):
        with pytest.raises(ValueError, match="role"):
            ServeConfig(role="cluster")

    def test_partitions_require_gateway_role(self):
        with pytest.raises(ValueError, match="gateway"):
            ServeConfig(role="single", partitions=4)
        ServeConfig(role="gateway", partitions=4)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError, match="partitions"):
            ServeConfig(role="gateway", partitions=0)
        with pytest.raises(ValueError, match="max_inflight"):
            ServeConfig(max_inflight=0)
