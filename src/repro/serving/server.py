"""The asyncio approximate-cache server.

:class:`CacheServer` hosts one :class:`~repro.caching.cache.ApproximateCache`
behind the length-prefixed JSON protocol of :mod:`repro.serving.protocol`.
Each event runs on the same :class:`~repro.caching.core.CacheCore` ops as
the offline :class:`~repro.simulation.simulator.CacheSimulation` — the
deterministic load-generator equivalence test in
``tests/test_serving_equivalence.py`` pins refresh counts and hit rates to
the simulator's — while the plumbing around the events is a real server:

* **Feeders** register the keys they own with initial exact values and push
  ``update`` RPCs.  The core keeps a
  :class:`~repro.caching.source.DataSource` mirror per key: when an update
  escapes the published interval, the precision policy decides a fresh
  approximation and a value-initiated refresh is charged, by the core's
  ``apply_updates`` as in the simulator.
* **Clients** send ``query`` RPCs (keys, aggregate, precision constraint).
  Cached intervals are snapshotted (these lookups are the only ones counted
  in the hit rate, as offline) and the shared refresh-selection logic runs
  asynchronously (:mod:`repro.serving.execution`); each selected refresh is
  an RPC *back to the owning feeder connection*, awaited without blocking
  other connections.  A SUM/AVG query's refresh RPCs are sent together,
  one ``refresh`` frame per owning feeder, awaited as one batch, then
  installed in selection order.
* **Admission control** keeps overload graceful: at most
  ``max_inflight_queries`` queries execute concurrently, at most
  ``admission_queue_limit`` more may wait, and anything beyond that is
  rejected with an ``overloaded`` error instead of growing unbounded queues.
  Every send writes straight through to the connection's transport, whose
  own bound (the loopback buffer, the TCP drain, the WebSocket write lock)
  back-pressures the sender, so one slow reader slows its producers
  instead of ballooning memory.
* **Fault tolerance** leans on the paper's own semantics: a bounded answer
  is still a *correct* answer when it is merely wider than asked for.
  Feeder sessions are epoch-tagged (``register`` with a ``feeder``
  identity): a reconnecting feeder re-registers with ``resync: true``,
  which re-adopts its keys *without* resetting the mirror — missed updates
  fold in through the normal update path (escaped intervals trigger the
  value-initiated refresh they would have caused) — while updates from the
  superseded session are rejected as stale.  While a key's owner is down,
  queries touching it are answered from the mirror with the bound widened
  by a per-key empirical drift model (largest observed update step ×
  potentially missed updates × ``degraded_slack``) and tagged
  ``degraded: true`` — never a wrong interval, never a hard error.  A
  refresh RPC whose feeder dies mid-flight is counted
  (``refreshes_failed``) and the query re-runs its selection with the key
  degraded instead of surfacing ``ConnectionResetError``.

Time is logical: requests may stamp a ``time`` (the load generator replays
trace timestamps), and the server's clock is the running maximum, which
keeps per-entry access times monotone under concurrent clients.
"""

from __future__ import annotations

import asyncio
import itertools
import math
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    NoReturn,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.caching.cache import ApproximateCache
from repro.core.checks import at_least, positive
from repro.caching.core import CacheCore, UpdateOrderError
from repro.caching.eviction import EvictionPolicy
from repro.caching.policies.base import PrecisionPolicy
from repro.caching.source import DataSource
from repro.intervals.interval import Interval
from repro.obs.metrics import REGISTRY, SIZE_BUCKETS, MetricsRegistry
from repro.obs.trace import TRACER
from repro.serving.durability import PartitionDurability
from repro.serving.errors import UnrecoverablePartition
from repro.serving.execution import execute_partitioned_query
from repro.serving.protocol import (
    BoundedAnswer,
    MetricsRequest,
    ProtocolError,
    QueryRequest,
    Recovered,
    Refresh,
    RefreshKey,
    RefreshValues,
    RegisterAck,
    RegisterFeeder,
    Response,
    Snapshot,
    SnapshotReply,
    StatsRequest,
    Update,
    UpdateAck,
    UpdateBatch,
    UpdateBatchAck,
    error_response,
    parse_request,
)
from repro.serving.transport import (
    DEFAULT_LOOPBACK_BUFFER,
    LoopbackFrameTransport,
    StreamFrameTransport,
    loopback_pair,
)
from repro.simulation.network import NetworkModel

DEFAULT_MAX_INFLIGHT_QUERIES = 64
DEFAULT_ADMISSION_QUEUE_LIMIT = 256
DEFAULT_REFRESH_TIMEOUT = 30.0
DEFAULT_DEGRADED_SLACK = 4.0

# ---------------------------------------------------------------------------
# Metric catalog (docs/OBSERVABILITY.md documents every entry)
# ---------------------------------------------------------------------------
# Each entry maps a cumulative ``/stats`` field to its registry metric; a
# scrape-time collector mirrors the current totals into the handles, so the
# serving hot paths stay untouched.  The gateway and the partitions expose
# the same names — their registries carry distinguishing ``role`` /
# ``partition`` constant labels, so merged series never collide.
_STATS_COUNTER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("updates_applied", "repro_updates_applied_total", "Source updates applied to the mirror."),
    ("updates_ignored", "repro_updates_ignored_total", "Stale or unknown-key updates dropped."),
    ("value_refreshes", "repro_value_refreshes_total", "Value-initiated refreshes installed."),
    ("query_refreshes", "repro_query_refreshes_total", "Query-initiated refreshes installed."),
    ("queries_served", "repro_queries_served_total", "Bounded queries answered."),
    ("queries_rejected", "repro_queries_rejected_total", "Queries rejected by admission control."),
    ("refresh_rpcs", "repro_refresh_rpcs_total", "Keys fetched by refresh RPCs."),
    ("refreshes_failed", "repro_refreshes_failed_total", "Refresh RPCs that failed or timed out."),
    ("queries_degraded", "repro_queries_degraded_total", "Queries answered with widened intervals."),
    ("stale_epoch_rejections", "repro_stale_epoch_rejections_total", "Frames fenced off as stale feeder epochs."),
    ("feeder_resyncs", "repro_feeder_resyncs_total", "Feeder resync registrations handled."),
    ("connections_opened", "repro_connections_opened_total", "Serving connections accepted."),
    ("connections_closed", "repro_connections_closed_total", "Serving connections torn down."),
    ("partition_restarts", "repro_partition_restarts_total", "Partition restarts observed by supervision."),
    ("hits", "repro_cache_hits_total", "Cache hits (interval satisfied the constraint)."),
    ("misses", "repro_cache_misses_total", "Cache misses (refresh was required)."),
    ("insertions", "repro_cache_insertions_total", "Cache insertions."),
    ("evictions", "repro_cache_evictions_total", "Cache evictions."),
    ("total_cost", "repro_refresh_cost_total", "Accumulated refresh cost (the paper's Omega units)."),
    ("messages_sent", "repro_network_messages_total", "Messages charged to the network model."),
    ("total_latency", "repro_network_latency_seconds_total", "Modelled network latency accumulated."),
    ("wal_records", "repro_wal_records_total", "WAL records appended."),
    ("wal_bytes", "repro_wal_bytes_total", "WAL bytes appended."),
    ("wal_records_replayed", "repro_wal_replayed_records_total", "WAL records replayed during recovery."),
    ("wal_torn_tails", "repro_wal_torn_tails_total", "Torn WAL tails truncated during recovery."),
    ("checkpoints", "repro_wal_checkpoints_total", "Checkpoints taken."),
)

_STATS_GAUGE_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("clock", "repro_logical_clock", "The server's logical clock."),
    ("keys", "repro_keys", "Keys with a registered source mirror."),
    ("cached_entries", "repro_cache_entries", "Entries currently cached."),
    ("connections", "repro_connections", "Connections currently open."),
    ("keys_down", "repro_keys_down", "Keys whose owning feeder is down."),
    ("hit_rate", "repro_cache_hit_rate", "All-time cache hit rate."),
    ("durable", "repro_wal_enabled", "1 when a WAL/checkpoint layer is attached."),
    ("last_checkpoint_age", "repro_wal_last_checkpoint_age", "Logical time since the last checkpoint (-1 when none)."),
)


@dataclass
class ServingStatistics:
    """Running counters of one server's lifetime (all-time totals).

    The refresh counts and cost are kept by the core's network model.
    """

    updates_applied: int = 0
    updates_ignored: int = 0
    queries_served: int = 0
    queries_rejected: int = 0
    refresh_rpcs: int = 0
    connections_opened: int = 0
    connections_closed: int = 0
    refreshes_failed: int = 0
    queries_degraded: int = 0
    stale_epoch_rejections: int = 0
    feeder_resyncs: int = 0
    partition_restarts: int = 0


class _FeederLost(Exception):
    """Internal: a feeder died with a query's refresh in flight.

    The query's selection pass re-runs with the key degraded; this never
    escapes :meth:`CacheServer._execute_query`.
    """

    def __init__(self, key: Hashable) -> None:
        super().__init__(f"feeder lost during refresh of {key!r}")
        self.key = key


class _KeyDrift:
    """Per-key empirical drift envelope seen by the mirror.

    Tracks the largest update step and the smallest gap between updates —
    the two numbers the degraded-answer widening model extrapolates from
    while a key's owner is down.
    """

    __slots__ = ("max_step", "min_gap")

    def __init__(self) -> None:
        self.max_step = 0.0
        self.min_gap = math.inf

    def observe(self, step: float, gap: Optional[float]) -> None:
        if step > self.max_step:
            self.max_step = step
        if gap is not None and 0.0 < gap < self.min_gap:
            self.min_gap = gap

    def allowance(self, elapsed: float, slack: float) -> float:
        """Width padding covering ``elapsed`` seconds of unseen drift.

        ``slack × ceil(elapsed / gap) × max_step``: the key is assumed to
        keep stepping no faster than its largest observed step, no more
        often than its smallest observed gap (1 when it never had one).  A
        key that never changed, or no elapsed time, pads nothing.
        """
        if self.max_step <= 0.0 or elapsed <= 0.0:
            return 0.0
        gap = self.min_gap if math.isfinite(self.min_gap) else 1.0
        return slack * math.ceil(elapsed / gap) * self.max_step


class _Connection:
    """Per-connection server state: transport, pending RPCs, tasks."""

    def __init__(self, transport: Any) -> None:
        self.transport = transport
        self.pending: Dict[int, asyncio.Future] = {}
        self.rpc_ids = itertools.count(1)
        # Accept ordinal on this server (1-based) and the count of request
        # frames read so far: together they are the deterministic span
        # coordinates for tracing (``repro.obs.trace``) — positional, never
        # temporal, so a serialized replay re-derives identical span IDs.
        self.ordinal = 0
        self.frames_read = 0
        # The keys this connection owns, as an insertion-ordered set (the
        # values are None): a ``down`` WAL record lists them in this order,
        # so it must not depend on the string-hash seed.
        self.keys: Dict[Hashable, None] = {}
        self.request_tasks: Set[asyncio.Task] = set()
        self.closing = False
        # Feeder session identity: set by a ``register`` carrying a
        # ``feeder`` id.  A reconnect mints the next epoch and fences this
        # one off (see ``CacheServer._connection_fenced``).
        self.feeder_id: Optional[str] = None
        self.epoch = 0

    async def send(self, message: Dict[str, Any]) -> None:
        """Write one frame through the transport (its bound backpressures).

        A no-op once the connection is closing.  A write that fails because
        the peer is gone drops the frame and marks the connection closing,
        so later sends are dropped too.
        """
        if self.closing:
            return
        try:
            await self.transport.write_frame(message)
        except (ConnectionResetError, BrokenPipeError, RuntimeError):
            self.closing = True

    def fail_pending(self, error: Exception) -> None:
        """Fail every in-flight server-initiated RPC on this connection."""
        for future in self.pending.values():
            if not future.done():
                future.set_exception(error)
        self.pending.clear()


class BaseFrameServer:
    """Connection plumbing shared by :class:`CacheServer` and the gateway.

    Owns everything about *serving framed connections* — accepting them
    (loopback and TCP), the per-connection read loop, write-through sends,
    teardown ordering, feeder-epoch fencing, and the server-initiated
    refresh RPC — while leaving *what the operations mean* to the
    subclass's ``_dispatch``.  It also owns query admission control
    (:meth:`_handle_query` around the subclass's ``_execute_query``).  The
    subclass provides a ``statistics`` object with ``connections_opened`` /
    ``connections_closed`` / ``refresh_rpcs`` / ``stale_epoch_rejections``
    / ``queries_rejected`` counters and may override the
    ``_connection_lost`` / ``_connection_removed`` teardown hooks.
    """

    #: Operations dispatched as tasks so the connection's read loop stays
    #: free to deliver refresh-RPC responses (see ``serve_transport``).
    _TASK_OPS: ClassVar[FrozenSet[str]] = frozenset({"query"})

    def __init__(
        self,
        *,
        max_inflight_queries: int = DEFAULT_MAX_INFLIGHT_QUERIES,
        admission_queue_limit: int = DEFAULT_ADMISSION_QUEUE_LIMIT,
        refresh_timeout: Optional[float] = DEFAULT_REFRESH_TIMEOUT,
    ) -> None:
        at_least("max_inflight_queries", max_inflight_queries, 1, finite=True)
        at_least("admission_queue_limit", admission_queue_limit, 0, finite=True)
        if refresh_timeout is not None:
            positive("refresh_timeout", refresh_timeout, finite=False)
        self._query_gate = asyncio.Semaphore(max_inflight_queries)
        self._admission_queue_limit = admission_queue_limit
        self._admission_waiting = 0
        self._refresh_timeout = refresh_timeout
        self._feeder_epochs: Dict[str, int] = {}
        self._connections: Set[_Connection] = set()
        self._serve_tasks: Set[asyncio.Task] = set()
        self._tcp_server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------
    # Accepting connections
    # ------------------------------------------------------------------
    def connect(
        self, buffer: int = DEFAULT_LOOPBACK_BUFFER
    ) -> LoopbackFrameTransport:
        """Dial the server in-process; returns the client transport end.

        The server end is served by a background task on the running loop —
        this is the loopback path tests, CI and the experiment harness use.
        """
        client_end, server_end = loopback_pair(buffer)
        task = asyncio.ensure_future(self.serve_transport(server_end))
        self._serve_tasks.add(task)
        task.add_done_callback(self._serve_tasks.discard)
        return client_end

    async def start_tcp(self, host: str, port: int) -> asyncio.AbstractServer:
        """Start accepting TCP connections on ``host:port``."""

        async def handler(
            reader: asyncio.StreamReader, writer: asyncio.StreamWriter
        ) -> None:
            # Track the per-connection handler like loopback serve tasks so
            # ``close()`` waits for in-flight teardowns (``Server.wait_closed``
            # does not cover running handlers on every Python version).
            task = asyncio.current_task()
            if task is not None:
                self._serve_tasks.add(task)
                task.add_done_callback(self._serve_tasks.discard)
            await self.serve_transport(StreamFrameTransport(reader, writer))

        self._tcp_server = await asyncio.start_server(handler, host, port)
        return self._tcp_server

    async def serve_transport(self, transport: Any) -> None:
        """Serve one connection until EOF (the per-connection main loop)."""
        connection = _Connection(transport)
        self._connections.add(connection)
        self.statistics.connections_opened += 1
        connection.ordinal = self.statistics.connections_opened
        tracer = TRACER
        try:
            while True:
                try:
                    frame = await transport.read_frame()
                except ProtocolError:
                    break
                if frame is None:
                    break
                if "op" in frame:
                    connection.frames_read += 1
                    if tracer.enabled:
                        tracer.record(
                            "rpc",
                            conn=connection.ordinal,
                            frame=connection.frames_read,
                            op=frame.get("op"),
                        )
                    if frame.get("op") in self._TASK_OPS:
                        # These ops run as tasks so the connection's read
                        # loop stays free to deliver refresh-RPC responses —
                        # in particular when a query's refresh targets a key
                        # owned by the *querying* connection itself, which
                        # would otherwise deadlock.  Updates stay inline so
                        # their per-connection ordering is preserved.
                        task = asyncio.ensure_future(self._dispatch(connection, frame))
                        connection.request_tasks.add(task)
                        task.add_done_callback(connection.request_tasks.discard)
                    else:
                        await self._dispatch(connection, frame)
                else:
                    self._complete_refresh_rpc(connection, frame)
        finally:
            await self._teardown_connection(connection)

    async def _teardown_connection(self, connection: _Connection) -> None:
        # Order matters: ``closing`` goes first so no query can register a
        # *new* refresh-RPC future against this connection (the ownership
        # check in ``_query_initiated_refreshes`` then takes the mirror
        # fallback, and the check-to-register stretch has no await points),
        # then the already-registered futures are failed, and only then are
        # the in-flight query tasks awaited — every one of them can now
        # finish: refresh RPCs against other live feeders complete normally,
        # ones against this connection have just been failed, and replies to
        # this connection are dropped silently.
        connection.closing = True
        connection.fail_pending(ConnectionResetError("feeder connection closed"))
        await self._connection_lost(connection)
        if connection.request_tasks:
            await asyncio.gather(
                *list(connection.request_tasks), return_exceptions=True
            )
        self._connection_removed(connection)
        connection.transport.close()
        await connection.transport.wait_closed()
        self._connections.discard(connection)
        self.statistics.connections_closed += 1

    async def _connection_lost(self, connection: _Connection) -> None:
        """Hook: the connection is closing; pending RPCs just failed."""

    def _connection_removed(self, connection: _Connection) -> None:
        """Hook: in-flight tasks done; release key ownership state."""
        connection.keys.clear()

    async def close(self) -> None:
        """Close every connection and stop accepting new ones."""
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            self._tcp_server = None
        for connection in list(self._connections):
            connection.transport.close()
        for task in list(self._serve_tasks):
            try:
                await task
            except asyncio.CancelledError:  # pragma: no cover - defensive
                pass

    # ------------------------------------------------------------------
    # Dispatch (subclass responsibility) and query admission
    # ------------------------------------------------------------------
    async def _dispatch(
        self, connection: _Connection, frame: Dict[str, Any]
    ) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    async def _execute_query(self, request: QueryRequest) -> Any:  # pragma: no cover
        raise NotImplementedError

    async def _handle_query(self, request: QueryRequest) -> Any:
        """Run ``_execute_query`` under admission control.

        At most ``max_inflight_queries`` queries execute at once and at
        most ``admission_queue_limit`` more wait; anything beyond that is
        answered ``overloaded`` and counted in ``queries_rejected``.
        """
        if self._query_gate.locked():
            if self._admission_waiting >= self._admission_queue_limit:
                self.statistics.queries_rejected += 1
                return {
                    "ok": False,
                    "error": "overloaded: admission queue full",
                    "overloaded": True,
                }
            self._admission_waiting += 1
            try:
                await self._query_gate.acquire()
            finally:
                self._admission_waiting -= 1
        else:
            await self._query_gate.acquire()
        try:
            return await self._execute_query(request)
        finally:
            self._query_gate.release()

    # ------------------------------------------------------------------
    # Feeder-epoch fencing
    # ------------------------------------------------------------------
    def _connection_fenced(self, connection: _Connection) -> bool:
        """Whether a newer session superseded this feeder connection."""
        feeder = connection.feeder_id
        return (
            feeder is not None and self._feeder_epochs.get(feeder) != connection.epoch
        )

    def _reject_stale(self) -> Dict[str, Any]:
        self.statistics.stale_epoch_rejections += 1
        return {
            "ok": False,
            "error": "stale feeder epoch: a newer session registered this feeder",
            "stale_epoch": True,
        }

    # ------------------------------------------------------------------
    # Server-initiated refresh RPCs
    # ------------------------------------------------------------------
    async def _refresh_rpcs(
        self, requests: Sequence[Tuple[_Connection, Hashable]]
    ) -> List[Union[float, Exception]]:
        """Pipelined refresh RPCs: one ``refresh`` frame per owner connection.

        Groups the ``(owner, key)`` requests by owner, in order of each
        owner's first key, registers one reply future per frame, sends
        every frame, then awaits the replies under one ``refresh_timeout``
        deadline taken after the sends.  Returns one outcome per request,
        in request order: the exact value, or the exception that key's RPC
        failed with — ``ConnectionResetError`` for a lost, timed-out or
        unanswered key (a feeder answers a prefix of its frame's keys),
        ``ValueError`` for every key of a malformed reply.  Every future's
        result is read and every ``pending`` entry popped, whatever
        happens, so nothing is left unretrieved.
        """
        loop = asyncio.get_running_loop()
        by_owner: Dict[_Connection, List[int]] = {}
        for index, (owner, _) in enumerate(requests):
            by_owner.setdefault(owner, []).append(index)
        self.statistics.refresh_rpcs += len(requests)
        issued: List[
            Tuple[_Connection, List[Hashable], List[int], int, asyncio.Future]
        ] = []
        for owner, indices in by_owner.items():
            keys = [requests[index][1] for index in indices]
            rpc_id = next(owner.rpc_ids)
            future = loop.create_future()
            owner.pending[rpc_id] = future
            issued.append((owner, keys, indices, rpc_id, future))
            if TRACER.enabled:
                # The RPC id is the frame position on the server-initiated
                # direction of this connection — deterministic like frames
                # read.
                TRACER.record(
                    "refresh_rpc",
                    conn=owner.ordinal,
                    frame=f"r{rpc_id}",
                    keys=[repr(key) for key in keys],
                )
        timeout = self._refresh_timeout

        def expire() -> None:
            for _, keys, _, _, future in issued:
                if not future.done():
                    future.set_exception(
                        ConnectionResetError(
                            f"refresh of {keys!r} timed out after "
                            f"{timeout:g}s (unresponsive feeder)"
                        )
                    )

        deadline = None
        try:
            for owner, keys, _, rpc_id, _ in issued:
                await owner.send(Refresh(keys=keys).to_wire(rpc_id))
            if timeout is not None:
                deadline = loop.call_later(timeout, expire)
            outcomes: List[Any] = [None] * len(requests)
            for _, keys, indices, _, future in issued:
                error: Optional[Exception] = None
                try:
                    reply = await future
                    values = RefreshValues.from_wire(reply).values
                    if len(values) > len(keys):
                        raise ProtocolError(
                            f"{len(values)} refresh values for {len(keys)} keys"
                        )
                except ConnectionResetError as exc:
                    values, error = (), exc
                except ProtocolError as exc:
                    values, error = (), ValueError(f"malformed refresh reply: {exc}")
                for index, value in zip(indices, values):
                    outcomes[index] = value
                if len(values) < len(keys):
                    if error is None:
                        error = ConnectionResetError(
                            "refresh rejected by feeder: "
                            f"{reply.get('error', 'no value')}"
                        )
                    for index in indices[len(values) :]:
                        outcomes[index] = error
            return outcomes
        finally:
            if deadline is not None:
                deadline.cancel()
            for owner, _, _, rpc_id, future in issued:
                owner.pending.pop(rpc_id, None)
                if not future.done():
                    future.cancel()
                elif not future.cancelled():
                    future.exception()

    def _complete_refresh_rpc(
        self, connection: _Connection, frame: Dict[str, Any]
    ) -> None:
        future = connection.pending.get(frame.get("id"))
        if future is None or future.done():
            return
        if self._connection_fenced(connection):
            # A reconnect superseded this session mid-RPC; its values may
            # predate the resync and must not be trusted as exact.
            self.statistics.stale_epoch_rejections += 1
            future.set_exception(
                ConnectionResetError("refresh answered by a stale feeder epoch")
            )
            return
        future.set_result(frame)


class CacheServer(BaseFrameServer):
    """An online approximate cache speaking the serving protocol.

    Parameters
    ----------
    policy:
        The precision policy deciding refreshed approximations (shared with
        the offline simulator; e.g. the paper's adaptive policy).
    capacity / eviction_policy:
        Cache size ``kappa`` and victim-selection override.
    value_refresh_cost / query_refresh_cost:
        ``C_vr`` / ``C_qr`` charged per refresh into the Omega-style cost.
    latency_per_message:
        Optional modelled per-message delay forwarded to the
        :class:`NetworkModel` latency accounting.
    max_inflight_queries / admission_queue_limit:
        Admission control knobs (see the module docstring).  Replies are
        not queued per connection: they write through to the transport,
        whose own bound back-pressures the sender.
    refresh_timeout:
        Deadline in seconds on each refresh RPC to a feeder.  Bounds the
        damage of a connected-but-unresponsive feeder: the feeder is fenced
        as down, the query answers degraded from the mirror and releases
        its admission slot instead of wedging forever.  ``None`` disables
        the deadline.
    degraded_slack:
        Safety multiplier on the per-key drift model used to widen answers
        over keys whose owning feeder is down (see the module docstring).
        Must be at least 1; larger values give wider but safer degraded
        intervals.
    durability:
        Optional :class:`~repro.serving.durability.PartitionDurability`.
        When given, construction first recovers the snapshot+WAL state the
        directory holds (each record replayed as the core op live traffic
        ran, so the recovered server is field-for-field the one that
        crashed), then every state-mutating op is write-ahead logged and
        checkpointed per the durability object's policy.
    registry:
        The :class:`~repro.obs.metrics.MetricsRegistry` this server
        publishes into (defaults to the process registry).  A scrape-time
        collector mirrors the ``/stats`` totals into registry handles —
        the serving hot paths are untouched, so a disabled registry (the
        default) costs nothing and an enabled one costs one branch per
        instrumented site.
    """

    def __init__(
        self,
        policy: PrecisionPolicy,
        *,
        capacity: Optional[int] = None,
        eviction_policy: Optional[EvictionPolicy] = None,
        value_refresh_cost: float = 1.0,
        query_refresh_cost: float = 2.0,
        latency_per_message: float = 0.0,
        max_inflight_queries: int = DEFAULT_MAX_INFLIGHT_QUERIES,
        admission_queue_limit: int = DEFAULT_ADMISSION_QUEUE_LIMIT,
        refresh_timeout: Optional[float] = DEFAULT_REFRESH_TIMEOUT,
        degraded_slack: float = DEFAULT_DEGRADED_SLACK,
        durability: Optional[PartitionDurability] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(
            max_inflight_queries=max_inflight_queries,
            admission_queue_limit=admission_queue_limit,
            refresh_timeout=refresh_timeout,
        )
        at_least("degraded_slack", degraded_slack, 1.0, finite=True)
        self._core = self._build_core(
            policy,
            ApproximateCache(capacity=capacity, eviction_policy=eviction_policy),
            NetworkModel(
                value_refresh_cost=value_refresh_cost,
                query_refresh_cost=query_refresh_cost,
                latency_per_message=latency_per_message,
            ),
            {},
        )
        self._owners: Dict[Hashable, _Connection] = {}
        self._down_since: Dict[Hashable, float] = {}
        self._drift: Dict[Hashable, _KeyDrift] = {}
        self._degraded_slack = degraded_slack
        self._clock = 0.0
        self.statistics = ServingStatistics()
        self._durability = durability
        if durability is not None:
            self._recover_durable_state()
        self._registry = REGISTRY if registry is None else registry
        self._register_metrics()

    def _build_core(
        self,
        policy: PrecisionPolicy,
        cache: ApproximateCache,
        network: NetworkModel,
        sources: Dict[Hashable, DataSource],
    ) -> CacheCore:
        """The cache core over this state; applied updates feed the drift model."""
        return CacheCore(
            policy, cache, network, sources=sources, observe_update=self._observe_drift
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def cache(self) -> ApproximateCache:
        """The hosted cache."""
        return self._core.cache

    @property
    def network(self) -> NetworkModel:
        """The cost/latency accounting model (it keeps the refresh totals)."""
        return self._core.network

    @property
    def sources(self) -> Dict[Hashable, DataSource]:
        """The server-side source mirrors, keyed by value id."""
        return self._core.sources

    @property
    def clock(self) -> float:
        """The server's logical clock (running maximum of stamped times)."""
        return self._clock

    @property
    def durability(self) -> Optional[PartitionDurability]:
        """The WAL/checkpoint layer, when this server is durable."""
        return self._durability

    async def close(self) -> None:
        await super().close()
        if self._durability is not None:
            self._durability.close()
        self._registry.remove_collector(self._collect_metrics)

    # ------------------------------------------------------------------
    # Metrics (repro.obs): handles plus the scrape-time collector
    # ------------------------------------------------------------------
    @property
    def registry(self) -> MetricsRegistry:
        """The metrics registry this server publishes into."""
        return self._registry

    def _register_metrics(self) -> None:
        registry = self._registry
        self._metric_counters = {
            field: registry.counter(name, help_text)
            for field, name, help_text in _STATS_COUNTER_METRICS
        }
        self._metric_gauges = {
            field: registry.gauge(name, help_text)
            for field, name, help_text in _STATS_GAUGE_METRICS
        }
        self._query_keys_histogram = registry.histogram(
            "repro_query_keys",
            "Keys touched per bounded query.",
            buckets=SIZE_BUCKETS,
        )
        self._refresh_batch_histogram = registry.histogram(
            "repro_refresh_batch_size",
            "Refresh RPCs sent together in one pipelined batch.",
            buckets=SIZE_BUCKETS,
        )
        registry.collector(self._collect_metrics)

    def _collect_metrics(self) -> None:
        """Scrape-time: mirror the cumulative stats into registry handles."""
        stats = self._handle_stats()
        serving = self.statistics
        stats["connections_opened"] = serving.connections_opened
        stats["connections_closed"] = serving.connections_closed
        stats["partition_restarts"] = serving.partition_restarts
        for field, counter in self._metric_counters.items():
            counter.set_total(float(stats[field]))
        for field, gauge in self._metric_gauges.items():
            value = stats[field]
            if value is None:
                value = -1.0
            gauge.set(float(value))

    def _handle_metrics(self) -> Dict[str, Any]:
        return self._registry.snapshot()

    # ------------------------------------------------------------------
    # Durability: write-ahead logging, checkpoints and crash recovery
    # ------------------------------------------------------------------
    def _capture_durable_state(self) -> Dict[str, Any]:
        """Everything a checkpoint must carry to resume mid-stream.

        Connection-bound state (owners, live sessions) is deliberately
        absent: after a crash every connection is gone, so recovery marks
        all keys down and lets feeders (or the gateway's resync) re-adopt
        them through the normal register path.
        """
        core = self._core
        return {
            "sources": core.sources,
            "cache": core.cache,
            "drift": self._drift,
            "down_since": dict(self._down_since),
            "clock": self._clock,
            "epochs": dict(self._feeder_epochs),
            "statistics": self.statistics,
            "network": core.network,
            "policy": core.policy,
        }

    def _restore_durable_state(self, state: Dict[str, Any]) -> None:
        network = state["network"]
        self._core = self._build_core(
            state["policy"], state["cache"], network, state["sources"]
        )
        self._drift = state["drift"]
        self._down_since = dict(state["down_since"])
        self._clock = state["clock"]
        self._feeder_epochs.clear()
        self._feeder_epochs.update(state["epochs"])
        self.statistics = state["statistics"]
        # Snapshots taken before the refresh totals moved into the network
        # model carry them as statistics fields.
        legacy = vars(self.statistics)
        for field in ("value_refreshes", "query_refreshes", "total_cost"):
            if field in legacy:
                setattr(network, field, legacy.pop(field))

    def _recover_durable_state(self) -> None:
        state, records = self._durability.load()
        if state is not None:
            self._restore_durable_state(state)
        try:
            for record in records:
                self._replay_record(record)
        except UnrecoverablePartition:
            self._durability.close()
            raise
        # Replay assigns no owners: every recovered key is down until a live
        # feeder (or the gateway resync) re-registers it.  Keys whose
        # down-stamp survived in the snapshot/WAL keep the earlier (wider,
        # safer) timestamp.
        for key in self._core.sources:
            self._down_since.setdefault(key, self._clock)

    #: The op each timed WAL record kind replays, at the record's time.
    _REPLAY_OPS: ClassVar[Dict[str, Callable[..., Any]]] = {
        "u": lambda server, record, time: server._feed(
            None, ((record["key"], record["v"]),), time
        ),
        "ub": lambda server, record, time: server._feed(None, record["u"], time),
        "snap": lambda server, record, time: server._core.snapshot(
            list(record["keys"]), record["c"], time
        ),
        "qr": lambda server, record, time: server._core.refresh(
            record["key"], time, True, float(record["v"])
        ),
    }

    def _replay_record(self, record: Dict[str, Any]) -> None:
        """Re-apply one WAL record through the live code paths.

        Each record is one core op or the server-only registration and
        down-stamp state, so policy calls, cost charges, installs and
        statistics fire in original order: the policy's RNG stream and
        every counter reconstruct exactly.  A record replay cannot apply —
        an unknown kind, or a known one missing a field — raises
        :class:`UnrecoverablePartition`: skipping it would bring the
        partition back without that op.
        """
        kind = record.get("k")
        try:
            if kind == "reg":
                feeder = record.get("f")
                if feeder is not None:
                    self._feeder_epochs[feeder] = (
                        self._feeder_epochs.get(feeder, 0) + 1
                    )
                time = self._advance_clock(record["t"]) if record.get("r") else None
                self._adopt_keys(None, record["keys"], record["vals"], time)
            elif kind == "down":
                for key in record["keys"]:
                    self._down_since.setdefault(key, record["t"])
            elif kind in self._REPLAY_OPS:
                time = self._advance_clock(record["t"])
                self._REPLAY_OPS[kind](self, record, time)
            else:
                self._unreplayable(record, f"has unknown kind {kind!r}")
        except ProtocolError:
            # The live apply rejected this op identically (e.g. an
            # out-of-order update) after its record was written; the
            # partial mutations up to the raise match the live run's.
            pass
        except (KeyError, TypeError) as error:
            self._unreplayable(record, f"of kind {kind!r} is malformed ({error!r})")

    def _unreplayable(self, record: Dict[str, Any], problem: str) -> NoReturn:
        durability = self._durability
        sequence = record.get("n")
        raise UnrecoverablePartition(
            f"partition {durability.partition_index} in {durability.directory} "
            f"cannot be recovered: WAL record {sequence} {problem}",
            expected=sequence,
            found=sequence,
        )

    def _durable_checkpoint_if_due(self) -> None:
        durability = self._durability
        if durability is not None and durability.checkpoint_due:
            durability.checkpoint(self._capture_durable_state(), self._clock)

    def _handle_recovered(self) -> Dict[str, Any]:
        """The gateway's post-resync handshake: checkpoint and report.

        Taking a checkpoint here folds the recovery itself (replayed WAL
        plus resync registrations) into the snapshot, so the *next* crash
        replays from the recovered state instead of the whole history.
        """
        durability = self._durability
        if durability is not None:
            durability.checkpoint(self._capture_durable_state(), self._clock)
        return {
            "checkpointed": durability is not None,
            "keys": len(self._core.sources),
            "records_replayed": (
                durability.records_replayed if durability is not None else 0
            ),
        }

    def health(self) -> Dict[str, Any]:
        """Liveness/recovery surface behind the HTTP edge's ``/healthz``."""
        payload: Dict[str, Any] = {
            "ok": True,
            "role": "cache",
            "state": "ok",
            "keys": len(self._core.sources),
            "keys_down": sum(1 for key in self._core.sources if self._key_down(key)),
            "clock": self._clock,
        }
        if self._durability is not None:
            payload["durability"] = self._durability.stats_fields(self._clock)
        return payload

    # ------------------------------------------------------------------
    # Connection lifecycle hooks (the base class owns the machinery)
    # ------------------------------------------------------------------
    _TASK_OPS: ClassVar[FrozenSet[str]] = frozenset({"query", "refresh_key"})

    async def _connection_lost(self, connection: _Connection) -> None:
        self._mark_connection_down(connection)

    def _connection_removed(self, connection: _Connection) -> None:
        for key in connection.keys:
            if self._owners.get(key) is connection:
                del self._owners[key]
        connection.keys.clear()

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------
    async def _dispatch(self, connection: _Connection, frame: Dict[str, Any]) -> None:
        op = frame.get("op")
        request_id = frame.get("id")
        try:
            request = parse_request(frame)
            if request is None:
                reply = error_response(request_id, f"unknown operation {op!r}")
            elif isinstance(request, Update):
                reply = self._handle_update(connection, request)
            elif isinstance(request, UpdateBatch):
                reply = self._handle_update_batch(connection, request)
            elif isinstance(request, QueryRequest):
                reply = await self._handle_query(request)
            elif isinstance(request, RegisterFeeder):
                reply = self._handle_register(connection, request)
            elif isinstance(request, Snapshot):
                reply = self._handle_snapshot(request)
            elif isinstance(request, RefreshKey):
                reply = await self._handle_refresh_key(request)
            elif isinstance(request, StatsRequest):
                reply = self._handle_stats()
            elif isinstance(request, MetricsRequest):
                reply = self._handle_metrics()
            elif isinstance(request, Recovered):
                reply = self._handle_recovered()
            else:
                # ``refresh`` is a server-to-feeder op; a client sending it
                # gets the same reply an unknown op always got.
                reply = error_response(request_id, f"unknown operation {op!r}")
        except ConnectionResetError:
            reply = error_response(request_id, "refresh fetch failed: feeder gone")
        except Exception as exc:
            # Any malformed request must produce an error *reply*, never
            # kill the connection (inline ops) or die as an unobserved task
            # (queries) — a client awaiting the response would hang forever.
            # CancelledError is a BaseException and still propagates.
            reply = error_response(request_id, f"{type(exc).__name__}: {exc}")
        if request_id is not None:
            if isinstance(reply, Response):
                reply = reply.to_wire()
            reply.setdefault("id", request_id)
            reply.setdefault("ok", True)
            await connection.send(reply)

    # ------------------------------------------------------------------
    # Feeder operations
    # ------------------------------------------------------------------
    def _handle_register(
        self, connection: _Connection, request: RegisterFeeder
    ) -> RegisterAck:
        epoch: Optional[int] = None
        if request.feeder is not None:
            # Mint the next epoch for this feeder identity: any previous
            # session holding it is fenced off from now on.
            epoch = self._feeder_epochs.get(request.feeder, 0) + 1
            self._feeder_epochs[request.feeder] = epoch
            connection.feeder_id = request.feeder
            connection.epoch = epoch
        time = self._advance_clock(request.time) if request.resync else None
        if self._durability is not None:
            self._durability.append(
                {
                    "k": "reg",
                    "f": request.feeder,
                    "r": 1 if request.resync else 0,
                    "e": epoch,
                    "t": time,
                    "keys": list(request.keys),
                    "vals": [float(value) for value in request.values],
                }
            )
        refreshes = self._adopt_keys(connection, request.keys, request.values, time)
        self._durable_checkpoint_if_due()
        return RegisterAck(
            registered=len(request.keys), epoch=epoch, refreshes=refreshes
        )

    def _adopt_keys(
        self,
        connection: Optional[_Connection],
        keys: Sequence[Hashable],
        values: Sequence[float],
        resync_time: Optional[float],
    ) -> Optional[int]:
        """Register ``keys`` to ``connection`` (live or WAL replay).

        Without a ``resync_time`` each key starts over at its value.  A
        resync re-adopts each known key *without* resetting its state: a
        value it missed while the feeder was away folds in through the
        normal update path, so a missed update that escaped the published
        interval fires the refresh it would have caused live, and unchanged
        values perturb nothing — which keeps a drop+reconnect replay
        bit-identical to the offline run.  Returns the refreshes a resync
        fired (``None`` otherwise).
        """
        if resync_time is None:
            for key, value in zip(keys, values):
                self._register_key(connection, key, float(value))
            return None
        refreshes = 0
        for key, value in zip(keys, values):
            if key in self._core.sources:
                self._take_ownership(connection, key)
                refreshes += self._feed(connection, ((key, float(value)),), resync_time)
            else:
                self._register_key(connection, key, float(value))
        self.statistics.feeder_resyncs += 1
        return refreshes

    def _register_key(
        self, connection: Optional[_Connection], key: Hashable, value: float
    ) -> None:
        """Start ``key`` over at ``value`` in the core, owned by ``connection``.

        A re-registered key also forgets the drift its previous lifecycle
        observed.
        """
        self._core.register(key, value)
        self._drift.pop(key, None)
        self._take_ownership(connection, key)

    def _take_ownership(self, connection: Optional[_Connection], key: Hashable) -> None:
        """Hand ``key`` to ``connection``; WAL replay (``None``) owns nothing."""
        self._down_since.pop(key, None)
        if connection is not None:
            self._owners[key] = connection
            connection.keys[key] = None

    def _handle_update(self, connection: _Connection, request: Update) -> Any:
        if self._connection_fenced(connection):
            return self._reject_stale()
        time = self._advance_clock(request.time)
        if self._durability is not None:
            self._durability.append(
                {
                    "k": "u",
                    "key": request.key,
                    "v": request.value,
                    "e": connection.epoch,
                    "t": time,
                }
            )
        refreshes = self._feed(connection, ((request.key, request.value),), time)
        self._durable_checkpoint_if_due()
        return UpdateAck(refresh=refreshes > 0)

    def _handle_update_batch(
        self, connection: _Connection, request: UpdateBatch
    ) -> Any:
        if self._connection_fenced(connection):
            return self._reject_stale()
        time = self._advance_clock(request.time)
        if self._durability is not None:
            self._durability.append(
                {
                    "k": "ub",
                    "u": [[key, value] for key, value in request.updates],
                    "e": connection.epoch,
                    "t": time,
                }
            )
        refreshes = self._feed(connection, request.updates, time)
        self._durable_checkpoint_if_due()
        return UpdateBatchAck(refreshes=refreshes)

    def _feed(
        self,
        owner: Optional[_Connection],
        updates: Iterable[Tuple[Hashable, float]],
        time: float,
    ) -> int:
        """Apply a feeder's ``(key, value)`` updates; the refreshes they fired.

        Live traffic and WAL replay both land here.  Each update is one core
        op, counted as applied or ignored as it lands, so a batch that fails
        part-way keeps the counts of the updates before the failure.  An
        unknown key registers to ``owner`` (its value is the initial value:
        nothing is published yet, so nothing can fire), and an out-of-order
        update is the feeder's protocol error.
        """
        sources = self._core.sources
        apply_updates = self._core.apply_updates
        statistics = self.statistics
        refreshes = 0
        for key, value in updates:
            source = sources.get(key)
            if source is None:
                self._register_key(owner, key, value)
                statistics.updates_applied += 1
                continue
            update_count = source.update_count
            try:
                refreshes += apply_updates(((source, (value,)),), time)
            except UpdateOrderError as error:
                raise ProtocolError(str(error)) from None
            if source.update_count == update_count:
                statistics.updates_ignored += 1
            else:
                statistics.updates_applied += 1
        return refreshes

    def _observe_drift(self, key: Hashable, step: float, gap: Optional[float]) -> None:
        """The core's update observer: feed ``key``'s drift envelope."""
        drift = self._drift.get(key)
        if drift is None:
            drift = self._drift[key] = _KeyDrift()
        drift.observe(step, gap)

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    async def _execute_query(self, request: QueryRequest) -> BoundedAnswer:
        keys = list(request.keys)
        if not keys:
            raise ProtocolError("a query must touch at least one key")
        self._query_keys_histogram.observe(float(len(keys)))
        kind = request.aggregate
        constraint = request.constraint
        time = self._advance_clock(request.time)
        if self._durability is not None:
            # The snapshot phase mutates state too — hit/miss statistics,
            # access times, the policy's read observers — so it is logged
            # like any other op; the refreshes it triggers log themselves.
            self._durability.append(
                {"k": "snap", "keys": keys, "c": constraint, "t": time}
            )
        intervals, hits = self._core.snapshot(keys, constraint, time)

        refreshed: List[Hashable] = []

        async def fetch_batch(batch: List[Hashable]) -> List[float]:
            values, failure = await self._query_initiated_refreshes(batch, time)
            for key, value in zip(batch, values):
                refreshed.append(key)
                intervals[key] = Interval.exact(value)
            if failure is not None:
                raise failure
            return values

        # A refresh RPC can race its feeder's death.  When one dies
        # mid-selection the failed key joins the degraded set and the
        # selection re-runs over the updated snapshot — refreshes that did
        # complete keep their exact intervals, so no work repeats and no
        # hit double-counts.  Each retry fences at least the lost feeder's
        # keys, so the loop terminates within ``len(keys)`` passes.
        while True:
            degraded = [key for key in keys if self._key_down(key)]
            try:
                bound = await execute_partitioned_query(
                    kind,
                    keys,
                    intervals,
                    constraint,
                    degraded,
                    lambda key, snapshot: self._degraded_interval(
                        key, snapshot, time
                    ),
                    fetch_batch,
                )
                break
            except _FeederLost:
                continue
        self.statistics.queries_served += 1
        if degraded:
            self.statistics.queries_degraded += 1
        self._durable_checkpoint_if_due()
        return BoundedAnswer(
            low=bound.low,
            high=bound.high,
            refreshed=tuple(refreshed),
            hits=hits,
            misses=len(keys) - hits,
            degraded=bool(degraded),
            degraded_keys=tuple(degraded),
        )

    # ------------------------------------------------------------------
    # Gateway internals: partition-side snapshot and single-key refresh
    # ------------------------------------------------------------------
    def _handle_snapshot(self, request: Snapshot) -> SnapshotReply:
        """Snapshot phase of a gateway-routed query, on this partition's keys.

        Counts hits and feeds the policy's read observers exactly as a
        local query over the same keys would; the *selection* then runs at
        the gateway over every partition's snapshot, so the global refresh
        choice is identical to a single server holding all keys.
        """
        keys = list(request.keys)
        if not keys:
            raise ProtocolError("a snapshot must touch at least one key")
        time = self._advance_clock(request.time)
        if self._durability is not None:
            self._durability.append(
                {"k": "snap", "keys": keys, "c": request.constraint, "t": time}
            )
        intervals, hits = self._core.snapshot(keys, request.constraint, time)
        self._durable_checkpoint_if_due()
        down = [index for index, key in enumerate(keys) if self._key_down(key)]
        down_intervals = [
            self._degraded_interval(keys[index], intervals[keys[index]], time)
            for index in down
        ]
        return SnapshotReply(
            intervals=tuple(
                (intervals[key].low, intervals[key].high) for key in keys
            ),
            hits=hits,
            down=tuple(down),
            down_intervals=tuple(
                (interval.low, interval.high) for interval in down_intervals
            ),
        )

    async def _handle_refresh_key(self, request: RefreshKey) -> Dict[str, Any]:
        """One query-initiated refresh on behalf of the gateway's selection.

        Success returns ``{"value": v}`` (the exact value, now installed).
        A down owner returns ``{"down": true, "low": .., "high": ..}`` —
        the honest degraded interval — so the gateway can fold the key
        into its degraded set and re-run its selection, mirroring the
        local ``_FeederLost`` retry loop.
        """
        key = request.key
        if key not in self._core.sources:
            raise ProtocolError(f"refresh_key of unknown key {key!r}")
        time = self._advance_clock(request.time)
        values, failure = await self._query_initiated_refreshes([key], time)
        if isinstance(failure, _FeederLost):
            snapshot = self._current_interval(key, time)
            interval = self._degraded_interval(key, snapshot, time)
            return {"down": True, "low": interval.low, "high": interval.high}
        if failure is not None:
            raise failure
        self._durable_checkpoint_if_due()
        return {"value": values[0]}

    def _current_interval(self, key: Hashable, time: float) -> Interval:
        """The key's cached interval *without* touching hit statistics."""
        return self._core.cache.approximation(key, time, record_stats=False)

    def _key_down(self, key: Hashable) -> bool:
        """Whether a *registered* key currently has no live owner.

        Unknown keys are not "down" — they behave exactly as before this
        layer existed (unbounded snapshot; a selected refresh errors).
        """
        if key not in self._core.sources:
            return False
        owner = self._owners.get(key)
        return owner is None or owner.closing

    def _degraded_interval(
        self, key: Hashable, snapshot: Interval, time: float
    ) -> Interval:
        """The honest read-only bound for a key whose owner is down."""
        if snapshot.is_unbounded:
            snapshot = Interval.exact(self._core.sources[key].value)
        allowance = self._degraded_allowance(key, time)
        if allowance > 0.0:
            return Interval(snapshot.low - allowance, snapshot.high + allowance)
        return snapshot

    def _degraded_allowance(self, key: Hashable, time: float) -> float:
        """Width padding covering a down key's unseen drift.

        The same growth-over-staleness idea as
        :class:`~repro.intervals.staleness.StalenessBound`, transplanted to
        value space: while its owner is away a key is assumed to keep
        stepping no faster than the largest update step the mirror ever
        observed, no more often than its smallest observed update gap,
        padded by ``degraded_slack``.  A key that never changed is assumed
        constant (allowance 0 — which also keeps the pre-existing
        mirror-fallback tests exact).  No finite bound survives an
        adversarial source; the seeded chaos suite pins containment for the
        committed plans.
        """
        down_at = self._down_since.get(key)
        drift = self._drift.get(key)
        if down_at is None or drift is None:
            return 0.0
        return drift.allowance(time - down_at, self._degraded_slack)

    def _mark_connection_down(self, connection: _Connection) -> None:
        """Stamp when this connection's keys lost their owner (idempotent)."""
        stamped: List[Hashable] = []
        for key in connection.keys:
            if self._owners.get(key) is connection and key not in self._down_since:
                self._down_since[key] = self._clock
                stamped.append(key)
        if stamped and self._durability is not None:
            # Down-stamps shape degraded-answer widths, so they are state:
            # losing them across a crash would narrow (i.e. break) the
            # containment bound of keys already down before the crash.
            self._durability.append({"k": "down", "keys": stamped, "t": self._clock})

    async def _query_initiated_refreshes(
        self, keys: List[Hashable], time: float
    ) -> Tuple[List[float], Optional[Exception]]:
        """Refresh a batch of keys: pipelined RPCs, then installs in order.

        *Fetch* sends every key's refresh RPC to its feeder before awaiting
        any (:meth:`_refresh_rpcs`).  *Install* then applies, key by key in
        ``keys`` order, the policy decision, the cost charge and the
        install — so policy RNG draws, WAL order and costs are exactly
        those of refreshing the keys one after another.  The batch's ``qr``
        records are written together, before any of them is installed.

        Returns the installed values and the failure the caller raises
        once it has recorded them (``None`` when the whole batch
        installed).  Failures keep the sequential rule: the answered prefix
        up to the first key whose owner is gone, closing, lost mid-flight
        or timed out is installed, later answers are dropped (not
        installed, charged or logged), and the failure is the internal
        :class:`_FeederLost` retry signal — the caller's next selection
        pass treats the key as degraded (widened mirror answer) instead of
        surfacing ``ConnectionResetError`` to the client.  A lost or
        timed-out RPC also counts in ``refreshes_failed`` and fences its
        connection.
        """
        sources = self._core.sources
        owners = self._owners
        requests: List[Tuple[_Connection, Hashable]] = []
        issued_counts: List[int] = []
        for key in keys:
            source = sources.get(key)
            owner = owners.get(key)
            if source is None or owner is None or owner.closing:
                break
            requests.append((owner, key))
            issued_counts.append(source.update_count)
        outcomes: List[Union[float, Exception]] = []
        if requests:
            self._refresh_batch_histogram.observe(float(len(requests)))
            outcomes = await self._refresh_rpcs(requests)
        # The installable prefix: answered RPCs up to the first failure.
        values: List[float] = []
        for (_, key), issued_count, outcome in zip(requests, issued_counts, outcomes):
            if isinstance(outcome, Exception):
                break
            source = sources[key]
            if source.update_count != issued_count:
                # An update overtook the reply: the feeder's newer value is
                # already in the mirror, and installing the reply around
                # the older one would publish an interval that misses it.
                outcome = source.value
            values.append(outcome)
        if values and self._durability is not None:
            # The fetched exact values cannot be re-fetched at replay (the
            # feeder RPCs are gone), so the records carry them; the policy
            # decisions and installs replay through the same core op below.
            records = [
                {"k": "qr", "key": key, "v": value, "t": time}
                for (_, key), value in zip(requests, values)
            ]
            self._durability.append(*records)
        for (_, key), value in zip(requests, values):
            self._core.refresh(key, time, True, value)
        if len(values) == len(keys):
            return values, None
        failed_key = keys[len(values)]
        if len(values) == len(requests):
            # Not sent: an unknown key errors as a lookup always did; a key
            # with no live owner degrades.
            if failed_key not in sources:
                return values, KeyError(failed_key)
            return values, _FeederLost(failed_key)
        error = outcomes[len(values)]
        if not isinstance(error, ConnectionResetError):
            return values, error
        # The feeder died (or stopped answering) with the refresh in
        # flight.  Count the loss, fence the connection so this query's
        # retry pass (and every later query) takes the degraded mirror
        # path, and convert to the retry signal — the client sees a
        # widened answer, never a hard error.
        owner = requests[len(values)][0]
        self.statistics.refreshes_failed += 1
        owner.closing = True
        self._mark_connection_down(owner)
        return values, _FeederLost(failed_key)

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    #: WAL/checkpoint counter defaults, so the stats surface is uniform
    #: whether or not the server is durable (the gateway sums them).
    _DURABILITY_STATS_OFF: ClassVar[Dict[str, Any]] = {
        "durable": False,
        "wal_records": 0,
        "wal_bytes": 0,
        "wal_records_replayed": 0,
        "wal_torn_tails": 0,
        "checkpoints": 0,
        "snapshot_restored": False,
        "last_checkpoint_age": None,
    }

    def _handle_stats(self) -> Dict[str, Any]:
        core = self._core
        cache_stats = core.cache.statistics
        network = core.network
        serving = self.statistics
        if self._durability is not None:
            durability_stats = self._durability.stats_fields(self._clock)
        else:
            durability_stats = dict(self._DURABILITY_STATS_OFF)
        return {
            **durability_stats,
            "clock": self._clock,
            "keys": len(core.sources),
            "cached_entries": len(core.cache),
            "connections": len(self._connections),
            "hits": cache_stats.hits,
            "misses": cache_stats.misses,
            "hit_rate": cache_stats.hit_rate,
            "insertions": cache_stats.insertions,
            "evictions": cache_stats.evictions,
            "updates_applied": serving.updates_applied,
            "updates_ignored": serving.updates_ignored,
            "value_refreshes": network.value_refreshes,
            "query_refreshes": network.query_refreshes,
            "queries_served": serving.queries_served,
            "queries_rejected": serving.queries_rejected,
            "refresh_rpcs": serving.refresh_rpcs,
            "refreshes_failed": serving.refreshes_failed,
            "queries_degraded": serving.queries_degraded,
            "stale_epoch_rejections": serving.stale_epoch_rejections,
            "feeder_resyncs": serving.feeder_resyncs,
            "keys_down": sum(1 for key in core.sources if self._key_down(key)),
            "total_cost": network.total_cost,
            "messages_sent": network.messages_sent,
            "total_latency": network.total_latency,
        }

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    def _advance_clock(self, time: Any) -> float:
        """Advance the logical clock to ``time`` (never backwards)."""
        if time is not None:
            stamped = float(time)
            if stamped > self._clock:
                self._clock = stamped
        return self._clock
