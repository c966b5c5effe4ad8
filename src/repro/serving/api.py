"""The one typed client API for the serving fabric.

:class:`Client` is the single front door to every serving deployment shape:

* **loopback** — pass a :class:`~repro.serving.server.CacheServer` or
  :class:`~repro.serving.gateway.GatewayServer` (anything with a
  ``connect()``) and the client dials it in-process;
* **TCP** — pass ``"tcp://host:port"`` (a ``repro serve`` endpoint);
* **WebSocket** — pass ``"ws://host:port/ws"`` (the HTTP edge), and the
  same length-free JSON messages ride RFC 6455 text frames.

One background task reads frames and demultiplexes them: responses resolve
the matching pending request future; requests — the server's ``refresh``
RPCs on feeder connections — are answered by the ``on_refresh`` callback.
Requests and responses are the typed messages of
:mod:`repro.serving.protocol`; :meth:`Client.call` sends any typed request
and the typed helpers (:meth:`query`, :meth:`register`, ...) parse the
reply into its typed response.

Also here: :class:`ServeConfig`, the one dataclass describing a serving
deployment (role, partitions, ports) that the CLI builds from its flags.
"""

from __future__ import annotations

import asyncio
import inspect
import itertools
from dataclasses import dataclass
from typing import (
    Any,
    AsyncIterator,
    Awaitable,
    Callable,
    Dict,
    Hashable,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.checks import at_least, positive
from repro.queries.aggregates import AggregateKind
from repro.serving.durability import DEFAULT_CHECKPOINT_EVERY, FSYNC_POLICIES
from repro.serving.errors import (
    ConnectionLost,
    DeadlineExceeded,
    RequestRejected,
    StaleEpochError,
)
from repro.serving.protocol import (
    BoundedAnswer,
    ProtocolError,
    QueryRequest,
    Refresh,
    RefreshValues,
    RegisterAck,
    RegisterFeeder,
    MetricsRequest,
    Request,
    StatsRequest,
    Update,
    UpdateAck,
    UpdateBatch,
    UpdateBatchAck,
    error_response,
    is_request,
    query_fields,
    update_batch_fields,
)

#: Distinguishes "no per-call deadline given" (use the client default) from
#: an explicit ``deadline=None`` (wait forever).
_UNSET_DEADLINE = object()

#: ``on_refresh``: given a key, return its current exact value (sync or
#: async).  Raise ``KeyError`` for a key the feeder does not own.
RefreshHandler = Callable[[Hashable], Union[float, Awaitable[float]]]


class Client:
    """A typed serving-protocol client over any frame transport.

    Construction goes through :meth:`connect` (dial a server, URL, or
    dialer) or :meth:`from_transport` (wrap an already-connected frame
    transport and start the read loop).
    """

    def __init__(
        self,
        transport: Any,
        on_request: Optional[
            Callable[[Dict[str, Any]], Awaitable[Dict[str, Any]]]
        ] = None,
        default_deadline: Optional[float] = None,
    ) -> None:
        if default_deadline is not None:
            positive("default_deadline", default_deadline, finite=False)
        self._transport = transport
        self._on_request = on_request
        self._default_deadline = default_deadline
        self._pending: Dict[int, asyncio.Future] = {}
        self._ids = itertools.count(1)
        self._reader: Optional[asyncio.Task] = None
        self._request_tasks: set = set()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    async def from_transport(
        cls,
        transport: Any,
        *,
        on_request: Optional[
            Callable[[Dict[str, Any]], Awaitable[Dict[str, Any]]]
        ] = None,
        on_refresh: Optional[RefreshHandler] = None,
        default_deadline: Optional[float] = None,
    ) -> "Client":
        """Wrap a connected transport and start its read loop.

        ``on_refresh`` is the feeder-role callback answering the server's
        ``refresh`` RPCs; ``on_request`` is the raw frame-level handler for
        callers that need full control (at most one of the two).
        """
        if on_refresh is not None:
            if on_request is not None:
                raise ValueError("pass on_refresh or on_request, not both")
            on_request = _refresh_responder(on_refresh)
        client = cls(transport, on_request, default_deadline)
        client._reader = asyncio.ensure_future(client._read_loop())
        return client

    @classmethod
    async def connect(
        cls,
        target: Any,
        *,
        on_refresh: Optional[RefreshHandler] = None,
        default_deadline: Optional[float] = None,
    ) -> "Client":
        """Dial ``target`` and return a connected client.

        ``target`` may be a server object or dialer (anything with a
        ``connect()`` returning a frame transport, sync or async), a
        ``"tcp://host:port"`` / ``"ws://host:port/path"`` URL, or a
        ``(host, port)`` tuple (TCP).
        """
        transport = await dial(target)
        return await cls.from_transport(
            transport, on_refresh=on_refresh, default_deadline=default_deadline
        )

    # ------------------------------------------------------------------
    # Demultiplexing read loop
    # ------------------------------------------------------------------
    async def _read_loop(self) -> None:
        try:
            while True:
                try:
                    frame = await self._transport.read_frame()
                except ProtocolError:
                    # A corrupt frame ends the session like an EOF would;
                    # pending and future requests fail instead of hanging.
                    break
                if frame is None:
                    break
                if is_request(frame):
                    # Requests are answered as tasks so this loop keeps
                    # delivering responses while a handler runs.  A gateway
                    # upstream link depends on this: a partition's refresh
                    # RPC (a request) may be in flight on the same link as
                    # an update ack (a response) that the refresh
                    # transitively waits on — answering inline would
                    # deadlock the cycle.
                    task = asyncio.ensure_future(self._answer_request(frame))
                    self._request_tasks.add(task)
                    task.add_done_callback(self._request_tasks.discard)
                else:
                    future = self._pending.pop(frame.get("id"), None)
                    if future is not None and not future.done():
                        future.set_result(frame)
        finally:
            # Whatever ended the loop (EOF, corrupt frame, a failing
            # on_request handler), close the transport so the *server* side
            # observes EOF and tears the connection down — otherwise a
            # zombie feeder would swallow refresh RPCs forever.
            self._transport.close()
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(ConnectionLost("serving connection closed"))
            self._pending.clear()

    async def _answer_request(self, frame: Dict[str, Any]) -> None:
        try:
            if self._on_request is None:
                reply = error_response(frame.get("id"), "client serves no requests")
            else:
                reply = await self._on_request(frame)
                reply.setdefault("id", frame.get("id"))
                reply.setdefault("ok", True)
            await self._transport.write_frame(reply)
        except (ConnectionLost, ConnectionResetError, BrokenPipeError, OSError):
            pass
        except Exception:
            # A failing handler ends the session, exactly as it did when
            # requests were answered inline in the read loop (the closed
            # transport EOFs the read loop, which fails pending requests).
            self._transport.close()

    # ------------------------------------------------------------------
    # Raw request plumbing
    # ------------------------------------------------------------------
    async def request(
        self, op: str, deadline: Any = _UNSET_DEADLINE, **fields: Any
    ) -> Dict[str, Any]:
        """Send one raw request and await its decoded response frame.

        ``deadline`` (seconds; default: the client's ``default_deadline``,
        ``None`` = wait forever) bounds the wait for the response; missing
        it raises :class:`~repro.serving.errors.DeadlineExceeded` and drops
        the late response if it ever arrives.  Error replies raise
        :class:`~repro.serving.errors.RequestRejected` (or its
        :class:`~repro.serving.errors.StaleEpochError` refinement); dead
        connections raise :class:`~repro.serving.errors.ConnectionLost`.
        """
        if self._reader is not None and self._reader.done():
            # The read loop is gone (EOF or corrupt frame): nothing can ever
            # resolve a new future, so fail fast instead of hanging.
            raise ConnectionLost("serving connection closed")
        request_id = next(self._ids)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            await self._transport.write_frame({"op": op, "id": request_id, **fields})
        except ConnectionLost:
            self._pending.pop(request_id, None)
            raise
        except (ConnectionResetError, BrokenPipeError) as exc:
            self._pending.pop(request_id, None)
            raise ConnectionLost(str(exc)) from exc
        limit = self._default_deadline if deadline is _UNSET_DEADLINE else deadline
        if limit is None:
            response = await future
        else:
            try:
                response = await asyncio.wait_for(future, limit)
            except asyncio.TimeoutError:
                self._pending.pop(request_id, None)
                raise DeadlineExceeded(
                    f"{op} missed its {limit:g}s deadline"
                ) from None
        if not response.get("ok", True) and not response.get("overloaded"):
            error = f"{op} failed: {response.get('error')}"
            if response.get("stale_epoch"):
                raise StaleEpochError(error)
            raise RequestRejected(error)
        return response

    async def call(
        self, message: Request, deadline: Any = _UNSET_DEADLINE
    ) -> Dict[str, Any]:
        """Send one typed request and await its decoded response frame."""
        fields = message.wire_fields()
        return await self.request(message.OP, deadline, **fields)

    # ------------------------------------------------------------------
    # Typed operations
    # ------------------------------------------------------------------
    async def query(
        self,
        keys: Sequence[Hashable],
        *,
        aggregate: AggregateKind = AggregateKind.SUM,
        constraint: float = float("inf"),
        time: Optional[float] = None,
        deadline: Any = _UNSET_DEADLINE,
    ) -> BoundedAnswer:
        """One bounded aggregate; raises ``RequestRejected`` on overload."""
        # Hot path: build the wire fields directly (byte-identical to the
        # ``QueryRequest`` codec, pinned in ``tests/test_protocol_typed.py``).
        response = await self.request(
            QueryRequest.OP, deadline, **query_fields(keys, aggregate, constraint, time)
        )
        if response.get("overloaded"):
            raise RequestRejected(f"query rejected: {response.get('error')}")
        return BoundedAnswer.from_wire(response)

    async def register(
        self,
        keys: Sequence[Hashable],
        values: Sequence[float],
        *,
        feeder: Optional[str] = None,
        resync: bool = False,
        time: Optional[float] = None,
        deadline: Any = _UNSET_DEADLINE,
    ) -> RegisterAck:
        """Register (or resync) this connection as the feeder of ``keys``."""
        request = RegisterFeeder(
            keys=tuple(keys),
            values=tuple(values),
            feeder=feeder,
            resync=resync,
            time=time,
        )
        return RegisterAck.from_wire(await self.call(request, deadline))

    async def update(
        self,
        key: Hashable,
        value: float,
        *,
        time: Optional[float] = None,
        deadline: Any = _UNSET_DEADLINE,
    ) -> UpdateAck:
        """Push one source update."""
        request = Update(key=key, value=value, time=time)
        return UpdateAck.from_wire(await self.call(request, deadline))

    async def update_batch(
        self,
        updates: Sequence[Tuple[Hashable, float]],
        *,
        time: Optional[float] = None,
        deadline: Any = _UNSET_DEADLINE,
    ) -> UpdateBatchAck:
        """Push one instant's update batch."""
        response = await self.request(
            UpdateBatch.OP, deadline, **update_batch_fields(updates, time)
        )
        return UpdateBatchAck.from_wire(response)

    async def stats(self, deadline: Any = _UNSET_DEADLINE) -> Dict[str, Any]:
        """The server's statistics snapshot (a plain mapping)."""
        return await self.call(StatsRequest(), deadline)

    async def metrics(self, deadline: Any = _UNSET_DEADLINE) -> Dict[str, Any]:
        """The server's metrics-registry snapshot (``repro.obs`` shape).

        A gateway answers with its own registry merged with every routable
        partition's; a partition answers with its local registry alone.
        The reply is empty (``{"metrics": []}``) when metrics are disabled.
        """
        return await self.call(MetricsRequest(), deadline)

    async def subscribe_stats(
        self, period: float, *, count: Optional[int] = None
    ) -> AsyncIterator[Dict[str, Any]]:
        """Yield a stats snapshot every ``period`` seconds (``count`` caps it).

        Polling, not server push — the protocol stays request/response —
        but the generator shape is what a dashboard consumes.  Stops
        cleanly when the connection dies.
        """
        positive("period", period, finite=True)
        remaining = count
        while remaining is None or remaining > 0:
            try:
                yield await self.stats()
            except ConnectionLost:
                return
            if remaining is not None:
                remaining -= 1
                if remaining == 0:
                    return
            await asyncio.sleep(period)

    async def close(self) -> None:
        """Close the transport and wait for the read loop to finish.

        A read loop that died on a transport error must not re-raise here:
        close() runs in ``finally`` blocks whose primary error would be
        masked, and every sibling client still deserves its close.
        """
        self._transport.close()
        if self._reader is not None:
            await asyncio.gather(self._reader, return_exceptions=True)
        if self._request_tasks:
            await asyncio.gather(*list(self._request_tasks), return_exceptions=True)
        await self._transport.wait_closed()


def _refresh_responder(
    on_refresh: RefreshHandler,
) -> Callable[[Dict[str, Any]], Awaitable[Dict[str, Any]]]:
    """Adapt a value-returning refresh callback into a frame handler.

    The callback answers the frame's keys one at a time, in order; a key
    it does not own ends the reply with the answered prefix.
    """

    async def respond(frame: Dict[str, Any]) -> Dict[str, Any]:
        values = []
        try:
            for key in Refresh.from_wire(frame).keys:
                value = on_refresh(key)
                if inspect.isawaitable(value):
                    value = await value
                values.append(float(value))
        except (KeyError, ProtocolError) as exc:
            reply = error_response(frame.get("id"), f"unknown key: {exc}")
            reply["values"] = values
            return reply
        return RefreshValues(values=values).to_wire()

    return respond


async def dial(target: Any) -> Any:
    """Resolve ``target`` into one connected frame transport.

    Accepts a server/dialer object (``connect()``, sync or async), a
    ``tcp://`` or ``ws://`` URL, a bare ``"host:port"`` string (TCP), or a
    ``(host, port)`` tuple.
    """
    if isinstance(target, str):
        return await _dial_url(target)
    if isinstance(target, tuple) and len(target) == 2:
        host, port = target
        return await _dial_url(f"tcp://{host}:{port}")
    connect = getattr(target, "connect", None)
    if connect is None:
        raise TypeError(f"cannot dial {target!r}: no connect() and not a URL")
    transport = connect()
    if inspect.isawaitable(transport):
        transport = await transport
    return transport


async def _dial_url(url: str) -> Any:
    from repro.serving.transport import StreamFrameTransport

    if url.startswith("ws://") or url.startswith("wss://"):
        from repro.serving.http import connect_websocket

        return await connect_websocket(url)
    if url.startswith("tcp://"):
        url = url[len("tcp://") :]
    host, _, port = url.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"cannot parse serving target {url!r} as host:port")
    reader, writer = await asyncio.open_connection(host, int(port))
    return StreamFrameTransport(reader, writer)


# ---------------------------------------------------------------------------
# Deployment description
# ---------------------------------------------------------------------------

SERVE_ROLES = ("single", "gateway", "partition")


@dataclass(frozen=True)
class ServeConfig:
    """One serving deployment, as the CLI's ``repro serve`` builds it.

    ``role``:

    * ``single`` — one :class:`CacheServer` on ``host:port`` (the pre-
      gateway behaviour, and the default);
    * ``gateway`` — a :class:`GatewayServer` on ``host:port`` fronting
      ``partitions`` CacheServer processes it spawns and supervises;
    * ``partition`` — one CacheServer meant to sit *behind* a gateway
      (identical wire surface to ``single``; the distinct role keeps
      intent explicit in process listings and scripts).

    ``http_port`` additionally serves the HTTP/WebSocket edge on the same
    backend (``0``/``None`` disables it).

    ``wal_dir`` makes the partition state durable: every state-mutating op
    is appended to a per-partition write-ahead log under that directory and
    periodically folded into a snapshot checkpoint (every
    ``checkpoint_every`` records), so a SIGKILLed partition recovers its
    exact state on restart.  ``wal_fsync`` picks the flush policy
    (``always`` / ``checkpoint`` / ``never`` — see
    :mod:`repro.serving.durability`).

    The observability knobs (:mod:`repro.obs`) — ``metrics`` enables the
    process metrics registry (scrapeable via ``GET /metrics`` on the HTTP
    edge and the ``metrics`` protocol op), ``trace`` the deterministic
    span tracer, ``flightrec_dir`` crash flight-recorder dumps;
    ``log_level``/``log_file`` configure JSON-lines logging.  All reach
    spawned partition processes too (:mod:`repro.serving.procs`).
    """

    role: str = "single"
    host: str = "127.0.0.1"
    port: int = 9200
    http_port: Optional[int] = None
    partitions: int = 1
    capacity: Optional[int] = None
    cost_factor: float = 1.0
    seed: int = 0
    max_inflight: int = 64
    wal_dir: Optional[str] = None
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY
    wal_fsync: str = "checkpoint"
    metrics: bool = False
    trace: bool = False
    flightrec_dir: Optional[str] = None
    log_level: Optional[str] = None
    log_file: Optional[str] = None

    def __post_init__(self) -> None:
        if self.role not in SERVE_ROLES:
            raise ValueError(
                f"role must be one of {SERVE_ROLES}, not {self.role!r}"
            )
        at_least("partitions", self.partitions, 1, finite=True)
        # Checked here: the policy is built from it only after the
        # partitions are spawned.
        positive("cost_factor", self.cost_factor, finite=True)
        if self.role != "gateway" and self.partitions != 1:
            raise ValueError("--partitions applies to the gateway role only")
        if self.capacity is not None:
            at_least("capacity", self.capacity, 1, finite=True)
        at_least("max_inflight", self.max_inflight, 1, finite=True)
        at_least("checkpoint_every", self.checkpoint_every, 1, finite=True)
        if self.wal_fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"wal_fsync must be one of {FSYNC_POLICIES}, not "
                f"{self.wal_fsync!r}"
            )
        if self.log_level is not None:
            from repro.obs.logging import LOG_LEVELS

            if self.log_level.lower() not in LOG_LEVELS:
                raise ValueError(
                    f"log_level must be one of {sorted(LOG_LEVELS)}, not "
                    f"{self.log_level!r}"
                )
