"""The HTTP/WebSocket edge: the serving protocol over web-native transports.

Stdlib-only (asyncio + ``hashlib``/``base64``): a deliberately minimal
HTTP/1.1 server and an RFC 6455 WebSocket implementation, just enough for

* ``GET /ws`` — upgrade to a WebSocket speaking the *same* JSON messages
  as the framed TCP protocol, one message per text frame (the 4-byte
  length prefix disappears; WebSocket frames carry their own length).
  A connection upgraded here is served by the same
  ``BaseFrameServer.serve_transport`` loop as a TCP connection — feeders,
  queries, server-initiated refresh RPCs, everything works over it.
* ``POST /query`` — one bounded aggregate per request for curl-grade
  clients: the JSON body is the ``query`` operation's fields, the JSON
  response is the answer frame.
* ``GET /metrics`` — the backend's metrics registry as Prometheus text
  (a gateway merges every reachable partition's registry into the scrape).
* ``GET /stats`` and ``GET /healthz`` — the legacy dict snapshot (see the
  deprecation note in ``docs/SERVING.md``) and the cheap liveness probe.

The JSON dialect is the wire protocol's: floats round-trip through
``repr`` and non-finite values use the ``Infinity`` extension, so the
edge never perturbs a value the precision machinery depends on.

:func:`connect_websocket` is the client side; ``Client.connect("ws://…")``
uses it, which is how the load generator targets an edge.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import os
from typing import Any, Dict, Optional, Tuple

from repro.serving.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_payload,
    encode_json,
    parse_request,
)

#: RFC 6455's fixed handshake GUID.
_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

#: Opcode nibbles (no fragmentation: every data frame is FIN).
_OP_TEXT = 0x1
_OP_BINARY = 0x2
_OP_CLOSE = 0x8
_OP_PING = 0x9
_OP_PONG = 0xA

_MAX_HEADER_BYTES = 16 * 1024
_MAX_BODY_BYTES = MAX_FRAME_BYTES


def websocket_accept(key: str) -> str:
    """The ``Sec-WebSocket-Accept`` value for a handshake ``key``."""
    digest = hashlib.sha1((key + _WS_GUID).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


class WebSocketFrameTransport:
    """The serving protocol's frame transport over one WebSocket.

    Same surface as :class:`~repro.serving.transport.StreamFrameTransport`
    (``read_frame`` / ``write_frame`` / ``close`` / ``wait_closed``), so a
    WebSocket connection plugs into ``serve_transport`` and
    :class:`~repro.serving.api.Client` unchanged.  Client-role transports
    mask their writes, as the RFC requires; control frames (ping/close)
    are handled inside ``read_frame``.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        mask_writes: bool,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._mask_writes = mask_writes
        # Pings are answered from inside ``read_frame`` while other tasks
        # may be mid-``write_frame``; the lock keeps frames whole.
        self._write_lock = asyncio.Lock()

    async def read_frame(self) -> Optional[Dict[str, Any]]:
        """Read one JSON message; ``None`` on close or EOF."""
        while True:
            try:
                header = await self._reader.readexactly(2)
                length = header[1] & 0x7F
                if length == 126:
                    length = int.from_bytes(await self._reader.readexactly(2), "big")
                elif length == 127:
                    length = int.from_bytes(await self._reader.readexactly(8), "big")
                if length > MAX_FRAME_BYTES:
                    raise ProtocolError(
                        f"websocket frame of {length} bytes exceeds the "
                        f"{MAX_FRAME_BYTES} limit"
                    )
                mask = (
                    await self._reader.readexactly(4)
                    if header[1] & 0x80
                    else None
                )
                payload = (
                    await self._reader.readexactly(length) if length else b""
                )
            except (
                asyncio.IncompleteReadError,
                ConnectionResetError,
                BrokenPipeError,
            ):
                return None
            if mask is not None:
                payload = bytes(
                    byte ^ mask[index % 4] for index, byte in enumerate(payload)
                )
            opcode = header[0] & 0x0F
            if opcode == _OP_CLOSE:
                try:
                    await self._send(_OP_CLOSE, b"")
                except (ConnectionResetError, BrokenPipeError, RuntimeError):
                    pass
                return None
            if opcode == _OP_PING:
                await self._send(_OP_PONG, payload)
                continue
            if opcode == _OP_PONG:
                continue
            if opcode not in (_OP_TEXT, _OP_BINARY) or not header[0] & 0x80:
                raise ProtocolError(
                    f"unsupported websocket frame (opcode {opcode}, "
                    f"fin {bool(header[0] & 0x80)})"
                )
            return decode_payload(payload)

    async def write_frame(self, message: Dict[str, Any]) -> None:
        """Write one message as a single text frame."""
        payload = encode_json(message).encode("utf-8")
        if len(payload) > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"frame of {len(payload)} bytes exceeds the "
                f"{MAX_FRAME_BYTES} limit"
            )
        await self._send(_OP_TEXT, payload)

    async def _send(self, opcode: int, payload: bytes) -> None:
        head = bytearray([0x80 | opcode])
        mask_bit = 0x80 if self._mask_writes else 0x00
        length = len(payload)
        if length < 126:
            head.append(mask_bit | length)
        elif length < 1 << 16:
            head.append(mask_bit | 126)
            head += length.to_bytes(2, "big")
        else:
            head.append(mask_bit | 127)
            head += length.to_bytes(8, "big")
        if self._mask_writes:
            mask = os.urandom(4)
            head += mask
            payload = bytes(
                byte ^ mask[index % 4] for index, byte in enumerate(payload)
            )
        async with self._write_lock:
            self._writer.write(bytes(head) + payload)
            await self._writer.drain()

    def close(self) -> None:
        self._writer.close()

    async def wait_closed(self) -> None:
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass


# ---------------------------------------------------------------------------
# Server side
# ---------------------------------------------------------------------------


class HttpEdge:
    """A minimal HTTP/1.1 front door over any frame server.

    ``backend`` is anything with ``connect()`` (loopback dial) and
    ``serve_transport()`` — a :class:`~repro.serving.server.CacheServer`
    or a :class:`~repro.serving.gateway.GatewayServer` — so the edge is
    deployment-shape agnostic like every other client surface.
    """

    def __init__(self, backend: Any) -> None:
        self._backend = backend
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self, host: str, port: int) -> asyncio.AbstractServer:
        self._server = await asyncio.start_server(self._handle, host, port)
        return self._server

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await _read_http_request(reader)
            if request is None:
                return
            method, path, headers, body = request
            if path == "/ws" and method == "GET":
                await self._upgrade(reader, writer, headers)
                return
            if path == "/query" and method == "POST":
                await self._respond_json(writer, 200, await self._query(body))
            elif path == "/stats" and method == "GET":
                await self._respond_json(writer, 200, await self._op({"op": "stats"}))
            elif path == "/metrics" and method == "GET":
                await self._respond_metrics(writer)
            elif path == "/healthz" and method == "GET":
                await self._respond_json(writer, 200, self._health())
            else:
                await self._respond_json(
                    writer,
                    404,
                    {"ok": False, "error": f"no route {method} {path}"},
                )
        except ProtocolError as exc:
            await self._respond_json(writer, 400, {"ok": False, "error": str(exc)})
        except (ConnectionResetError, BrokenPipeError):
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
        """``GET /metrics``: the backend's registry as Prometheus text.

        The snapshot rides the ``metrics`` protocol op, so a gateway
        backend answers with its registry merged with every reachable
        partition's — the scrape sees the whole deployment.
        """
        from repro.obs.prom import render_snapshot

        snapshot = await self._op({"op": "metrics"})
        body = render_snapshot(snapshot).encode("utf-8")
        writer.write(
            (
                "HTTP/1.1 200 OK\r\n"
                "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n"
                "\r\n"
            ).encode("ascii")
            + body
        )
        await writer.drain()

    async def _query(self, body: bytes) -> Dict[str, Any]:
        frame = dict(decode_payload(body))
        frame["op"] = "query"
        if parse_request(frame) is None:  # pragma: no cover - op is forced
            raise ProtocolError("not a query")
        return await self._op(frame)

    async def _op(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """One request/response round trip over a throwaway loopback link."""
        from repro.serving.api import Client

        client = await Client.from_transport(self._backend.connect())
        try:
            fields = {
                name: value
                for name, value in frame.items()
                if name not in ("op", "id")
            }
            return await client.request(frame["op"], **fields)
        finally:
            await client.close()

    async def _upgrade(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        headers: Dict[str, str],
    ) -> None:
        key = headers.get("sec-websocket-key")
        if (
            key is None
            or "websocket" not in headers.get("upgrade", "").lower()
        ):
            await self._respond_json(
                writer, 400, {"ok": False, "error": "not a websocket upgrade"}
            )
            return
        writer.write(
            (
                "HTTP/1.1 101 Switching Protocols\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Accept: {websocket_accept(key)}\r\n"
                "\r\n"
            ).encode("ascii")
        )
        await writer.drain()
        transport = WebSocketFrameTransport(reader, writer, mask_writes=False)
        await self._backend.serve_transport(transport)

    async def _respond_json(
        self, writer: asyncio.StreamWriter, status: int, payload: Dict[str, Any]
    ) -> None:
        body = encode_json(payload).encode("utf-8")
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found"}.get(
            status, "Error"
        )
        writer.write(
            (
                f"HTTP/1.1 {status} {reason}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n"
                "\r\n"
            ).encode("ascii")
            + body
        )
        await writer.drain()


async def _read_http_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """Parse one request: (method, path, lower-cased headers, body)."""
    try:
        request_line = await reader.readline()
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
        line = await reader.readline()
        total += len(line)
        if total > _MAX_HEADER_BYTES:
            raise ProtocolError("request headers exceed the size limit")
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length > _MAX_BODY_BYTES:
        raise ProtocolError("request body exceeds the size limit")
    body = await reader.readexactly(length) if length else b""
    return method.upper(), path, headers, body


# ---------------------------------------------------------------------------
# Client side
# ---------------------------------------------------------------------------


async def connect_websocket(url: str) -> WebSocketFrameTransport:
    """Dial a ``ws://host:port/path`` URL and complete the RFC 6455 handshake."""
    host, port, path = _parse_ws_url(url)
    reader, writer = await asyncio.open_connection(host, port)
    key = base64.b64encode(os.urandom(16)).decode("ascii")
    writer.write(
        (
            f"GET {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {key}\r\n"
            "Sec-WebSocket-Version: 13\r\n"
            "\r\n"
        ).encode("ascii")
    )
    await writer.drain()
    status_line = await reader.readline()
    if b"101" not in status_line.split(b" ", 2)[1:2]:
        writer.close()
        raise ProtocolError(
            f"websocket upgrade refused: {status_line.decode(errors='replace').strip()}"
        )
    accept = None
    total = len(status_line)
    while True:
        line = await reader.readline()
        total += len(line)
        if total > _MAX_HEADER_BYTES:
            writer.close()
            raise ProtocolError("handshake headers exceed the size limit")
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "sec-websocket-accept":
            accept = value.strip()
    if accept != websocket_accept(key):
        writer.close()
        raise ProtocolError("websocket handshake accept mismatch")
    return WebSocketFrameTransport(reader, writer, mask_writes=True)


def _parse_ws_url(url: str) -> Tuple[str, int, str]:
    if url.startswith("ws://"):
        rest = url[len("ws://") :]
    elif url.startswith("wss://"):
        raise ProtocolError("wss:// is not supported (no TLS in this edge)")
    else:
        raise ProtocolError(f"not a websocket URL: {url!r}")
    location, slash, path = rest.partition("/")
    host, _, port = location.rpartition(":")
    if not host or not port.isdigit():
        raise ProtocolError(f"cannot parse websocket host:port in {url!r}")
    return host, int(port), (slash + path) or "/"
