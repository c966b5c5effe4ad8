"""The HTTP edge: the scrape and liveness routes beside the framed protocol.

Stdlib-only (asyncio): a deliberately minimal HTTP/1.1 server with two
routes, both read-only views of a running backend:

* ``GET /metrics`` — the backend's ``metrics`` op as Prometheus text: its
  ``stats`` totals and registry (a gateway merges in every reachable
  partition's).
* ``GET /healthz`` — the cheap liveness probe (a gateway reports
  per-partition state, a single server its keys and durability counters).

Every other request gets a JSON 404, and a malformed one a JSON 400.
Queries, updates and statistics ride the framed protocol over TCP or
loopback (:mod:`repro.serving.api`), never this edge.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional, Tuple

from repro.serving.protocol import MAX_FRAME_BYTES, ProtocolError, encode_json
from repro.serving.transport import close_and_join

_MAX_HEADER_BYTES = 16 * 1024
_MAX_BODY_BYTES = MAX_FRAME_BYTES
_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found"}


class HttpEdge:
    """A minimal HTTP/1.1 front door over any frame server.

    ``backend`` is anything with a loopback ``connect()`` — a
    :class:`~repro.serving.server.CacheServer` or a
    :class:`~repro.serving.gateway.GatewayServer` — and optionally a
    ``health()`` surface, so the edge is deployment-shape agnostic.
    """

    def __init__(self, backend: Any) -> None:
        self._backend = backend
        self._server: Optional[asyncio.AbstractServer] = None
        self._handlers: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._closed = False

    async def start(self, host: str, port: int) -> asyncio.AbstractServer:
        self._server = await asyncio.start_server(self._handle, host, port)
        return self._server

    async def close(self) -> None:
        """Stop listening and end every open request.

        The contract of :meth:`BaseFrameServer.close
        <repro.serving.server.BaseFrameServer.close>`: it ends in bounded
        time whatever the open connections are doing, and a cancel aimed
        at it raises ``CancelledError``.
        """
        self._closed = True
        server, self._server = self._server, None
        if server is not None:
            server.close()
        await close_and_join(self._handlers)
        if server is not None:
            await server.wait_closed()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._closed:
            # Accepted while close() ran: it never saw this connection.
            writer.close()
            return
        task = asyncio.current_task()
        if task is not None:
            self._handlers[task] = writer
            task.add_done_callback(self._handlers.pop)
        try:
            request = await _read_http_request(reader)
            if request is None:
                return
            method, path = request
            if path == "/metrics" and method == "GET":
                await self._respond_metrics(writer)
            elif path == "/healthz" and method == "GET":
                await _respond_json(writer, 200, self._health())
            else:
                await _respond_json(
                    writer, 404, {"ok": False, "error": f"no route {method} {path}"}
                )
        except ProtocolError as exc:
            await _respond_json(writer, 400, {"ok": False, "error": str(exc)})
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    def _health(self) -> Dict[str, Any]:
        """Liveness: the backend's ``health()`` surface when it has one.

        A gateway reports per-partition ``ok``/``recovering``/``degraded``/
        ``down`` with restart counts; a single server reports its keys,
        down-keys and durability counters.  Backends without a ``health``
        method keep the bare liveness probe.
        """
        health = getattr(self._backend, "health", None)
        if health is None:
            return {"ok": True}
        return health()

    async def _respond_metrics(self, writer: asyncio.StreamWriter) -> None:
        """``GET /metrics``: the backend's ``metrics`` op as Prometheus text.

        The snapshot rides the ``metrics`` protocol op over a throwaway
        loopback link, so a gateway backend answers with its own scrape
        merged with every reachable partition's — the scrape sees the
        whole deployment.
        """
        from repro.obs.prom import render_snapshot
        from repro.serving.api import Client

        client = await Client.from_transport(self._backend.connect())
        try:
            snapshot = await client.metrics()
        finally:
            await client.close()
        await _respond(
            writer,
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            render_snapshot(snapshot).encode("utf-8"),
        )


async def _respond(
    writer: asyncio.StreamWriter, status: int, content_type: str, body: bytes
) -> None:
    writer.write(
        (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("ascii")
        + body
    )
    await writer.drain()


async def _respond_json(
    writer: asyncio.StreamWriter, status: int, payload: Dict[str, Any]
) -> None:
    await _respond(
        writer, status, "application/json", encode_json(payload).encode("utf-8")
    )


async def _read_http_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str]]:
    """Parse one request into (method, path); its body is read and dropped."""
    try:
        request_line = await _readline(reader)
    except (ConnectionResetError, BrokenPipeError):
        return None
    if not request_line:
        return None
    try:
        method, path, _version = request_line.decode("ascii").split(None, 2)
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"malformed request line: {exc}") from exc
    headers: Dict[str, str] = {}
    total = len(request_line)
    while True:
        line = await _readline(reader)
        total += len(line)
        if total > _MAX_HEADER_BYTES:
            raise ProtocolError("request headers exceed the size limit")
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = _content_length(headers.get("content-length", "0"))
    if length:
        await reader.readexactly(length)
    return method.upper(), path


async def _readline(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.readline()
    except ValueError as exc:  # a line longer than the stream's buffer limit
        raise ProtocolError("request line or header exceeds the size limit") from exc


def _content_length(text: str) -> int:
    """A ``Content-Length`` value: a decimal count within the body limit."""
    # ``isascii``: ``str.isdigit`` also accepts digits ``int`` refuses
    # ("²"); the length cap keeps ``int`` clear of its digit limit.
    if text.isascii() and text.isdigit() and len(text) <= 16:
        length = int(text)
        if length <= _MAX_BODY_BYTES:
            return length
    raise ProtocolError(f"bad Content-Length {text[:32]!r}")
