"""The HTTP edge: its two routes, and what it answers to anything else.

The edge serves ``GET /healthz`` and ``GET /metrics`` (the scrape is
covered in ``tests/test_obs_serving.py``) beside the framed protocol.
These tests drive a real :class:`CacheServer` through a real socket:
the health surface, a 404 for every other route, a 400 for a malformed
request, and a ``close`` that ends the connections it accepted.
"""

import asyncio
import json

import pytest

from repro.experiments.workloads import serving_policy
from repro.serving.http import HttpEdge
from repro.serving.protocol import MAX_FRAME_BYTES
from repro.serving.server import CacheServer


def _server():
    return CacheServer(serving_policy())


async def _edge(server):
    edge = HttpEdge(server)
    listener = await edge.start("127.0.0.1", 0)
    port = listener.sockets[0].getsockname()[1]
    return edge, port


async def _http(port, request: bytes) -> tuple:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(request)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body) if body else None


def _request(method, path, content_length="0"):
    return (
        f"{method} {path} HTTP/1.1\r\n"
        "Host: 127.0.0.1\r\n"
        f"Content-Length: {content_length}\r\n"
        "\r\n"
    ).encode("ascii")


async def _ask(request: bytes) -> tuple:
    """Send one raw request to an edge over a fresh server."""
    server = _server()
    edge, port = await _edge(server)
    try:
        return await _http(port, request)
    finally:
        await edge.close()
        await server.close()


class TestHttpRoutes:
    def test_healthz(self):
        status, health = asyncio.run(_ask(_request("GET", "/healthz")))
        assert status == 200
        assert health["ok"] is True
        assert health["role"] == "cache"
        assert health["state"] == "ok"
        assert health["keys"] == 0
        assert "durability" not in health  # no WAL configured

    def test_healthz_reports_durability_counters(self, tmp_path):
        from repro.serving.durability import PartitionDurability

        async def drive():
            server = CacheServer(
                serving_policy(), durability=PartitionDurability(tmp_path)
            )
            edge, port = await _edge(server)
            try:
                return await _http(port, _request("GET", "/healthz"))
            finally:
                await edge.close()
                await server.close()

        status, health = asyncio.run(drive())
        assert status == 200
        durability = health["durability"]
        assert durability["durable"] is True
        assert durability["wal_records"] == 0
        assert durability["snapshot_restored"] is False

    def test_healthz_on_backend_without_health_surface(self):
        class Minimal:
            async def _execute(self, request):  # pragma: no cover
                raise NotImplementedError

        async def drive():
            edge, port = await _edge(Minimal())
            try:
                return await _http(port, _request("GET", "/healthz"))
            finally:
                await edge.close()

        status, health = asyncio.run(drive())
        assert status == 200
        assert health == {"ok": True}

    @pytest.mark.parametrize(
        "method, path",
        [("GET", "/nope"), ("POST", "/query"), ("GET", "/stats"), ("GET", "/ws")],
    )
    def test_unknown_route_is_404(self, method, path):
        status, payload = asyncio.run(_ask(_request(method, path)))
        assert status == 404
        assert payload["ok"] is False

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"GARBAGE\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70000 + b"\r\n\r\n",
        ],
        ids=["garbage", "header-over-buffer"],
    )
    def test_malformed_request_is_400(self, request_bytes):
        status, payload = asyncio.run(_ask(request_bytes))
        assert status == 400
        assert payload["ok"] is False

    @pytest.mark.parametrize(
        "content_length",
        ["abc", "-5", str(MAX_FRAME_BYTES + 1), "9" * 5000],
        ids=["abc", "negative", "over-limit", "5000-digits"],
    )
    def test_bad_content_length_is_400(self, content_length):
        status, payload = asyncio.run(
            _ask(_request("GET", "/healthz", content_length))
        )
        assert status == 400
        assert "Content-Length" in payload["error"]


class TestEdgeClose:
    def test_close_ends_an_idle_connection(self):
        # A client that connected but never sent its request: close() must
        # end that connection rather than leave its handler reading.
        async def drive():
            server = _server()
            edge, port = await _edge(server)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            await asyncio.sleep(0.05)  # the edge accepts the connection
            try:
                await edge.close()
                return await asyncio.wait_for(reader.read(), 2.0)
            finally:
                writer.close()
                await server.close()

        assert asyncio.run(drive()) == b""
