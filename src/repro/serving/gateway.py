"""The partitioned serving gateway.

:class:`GatewayServer` fronts N :class:`~repro.serving.server.CacheServer`
partitions behind the same wire protocol a single server speaks, so every
client — the typed :class:`~repro.serving.api.Client`, the load generator,
the HTTP edge — is deployment-shape agnostic.  Keys are routed by
:func:`~repro.serving.partition.stable_key_hash`, a CRC-32 hash that is
stable across processes.

**The determinism contract.**  A serialised replay through the gateway is
bit-identical to the offline simulator at *any* partition count, because
the gateway re-creates exactly the single-server query pipeline, only
distributed:

1. *Snapshot* — each partition owning queried keys answers a ``snapshot``
   op: cached intervals, hit counts and the policy's read observers fire
   at the partition exactly as a local query's snapshot phase would.
   The gateway assembles the interval dict **in query key order**, so the
   float arithmetic of the selection never reassociates.
2. *Selection* — the gateway runs the shared refresh-selection core
   (:func:`~repro.serving.execution.execute_partitioned_query`) over the
   assembled snapshot.  Selection is policy-free (it reads intervals and
   the constraint), so running it at the gateway rather than inside one
   cache changes nothing.
3. *Refresh* — each selected key is a ``refresh_key`` op to its owning
   partition, which performs the query-initiated refresh (policy decision,
   cost charge, install) locally, and the refreshes happen in selection
   order, serialised — the order the offline simulator uses.

**Fan-out.**  A query's snapshots and an update batch's forwards write
every routable partition's frame before awaiting any reply; a partition
whose send or reply fails falls back to its own retry loop.

**Feeder topology.**  A feeder connection F registering keys spanning
partitions gets one *upstream* link per touched partition, registered at
the partition under F's feeder identity.  A partition's refresh RPC rides
the upstream link back to the gateway, whose link read loop relays the
frame to F under a fresh RPC id; F's reply, read by the gateway's read
loop for F, is written back to the link under the partition's id.  The
gateway holds no task, future or timer for a relayed refresh: the
partition's own ``refresh_timeout`` bounds the wait.  A relay to a closing
or fenced F is answered at once with an error, so the partition degrades
the key instead of waiting.  When F drops, its upstream links are closed,
and every partition's own machinery — down-key marking, drift-widened
degraded answers, epoch fencing on reconnect — engages exactly as if F had
been connected directly.

**Supervision.**  Given a pool (:class:`~repro.serving.procs.`
``ProcessPartitionPool``), :meth:`supervise` polls worker liveness and
replaces dead partitions, replaying the gateway's key/value mirror into
the fresh process: keys with a live feeder re-register under that feeder's
identity (refresh RPCs flow again); orphaned keys are registered and
immediately released so the partition serves them as honest degraded
answers rather than forgetting them.
"""

from __future__ import annotations

import asyncio
import functools
import math
from typing import (
    Any,
    Awaitable,
    Callable,
    ClassVar,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.checks import non_negative
from repro.intervals.interval import Interval
from repro.obs.metrics import SIZE_BUCKETS, MetricsRegistry, merge_snapshots
from repro.obs.logging import get_logger
from repro.obs.trace import TRACER
from repro.serving.api import Client, check_reply, dial
from repro.serving.errors import SupervisionExhausted
from repro.serving.execution import execute_partitioned_query
from repro.serving.partition import partition_keys, shard_index
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
    update_batch_fields,
)
from repro.serving.server import (
    DEFAULT_ADMISSION_QUEUE_LIMIT,
    DEFAULT_DEGRADED_SLACK,
    DEFAULT_MAX_INFLIGHT_QUERIES,
    STATS_CATALOG,
    BaseFrameServer,
    ServingStatistics,
    _Connection,
    _KeyDrift,
    render_stats,
)
from repro.serving.transport import join

_LOG = get_logger("serving.gateway")

#: How long a query waits for a recovering partition before answering its
#: keys from the gateway's own divergence-widened mirror.  Recovery of a
#: durable partition is typically sub-second, so the default keeps chaos
#: replays bit-identical to uninterrupted runs; tests set 0 to force the
#: mirror-degraded path.
DEFAULT_RECOVERY_GRACE = 30.0

#: Per-partition health states the gateway tracks (see ``health()``):
#: ``ok`` — live, ops route normally; ``recovering`` — the supervisor is
#: restarting it, writes wait and queries wait up to ``recovery_grace``;
#: ``degraded`` — its restart budget is exhausted, its keys answer from
#: the mirror forever; ``down`` — dead with no pool to restart it.
PARTITION_STATES = ("ok", "recovering", "degraded", "down")

#: Connection failures that mean "the partition behind this link is gone".
_LINK_ERRORS = (ConnectionResetError, BrokenPipeError, EOFError, OSError)


def _refresh_error(
    request_id: Any, message: str, values: Sequence[float] = ()
) -> Dict[str, Any]:
    """A refresh reply answering only ``values``, a prefix of its keys."""
    reply = error_response(request_id, message)
    reply["values"] = list(values)
    return reply


class _KeyDown(Exception):
    """Internal: a ``refresh_key`` found the key's feeder down.

    The partition answered with its honest degraded interval; the
    gateway's selection re-runs with the key degraded — the distributed
    twin of the server's ``_FeederLost`` retry loop.
    """

    def __init__(self, key: Hashable) -> None:
        super().__init__(f"feeder down during gateway refresh of {key!r}")
        self.key = key


class GatewayServer(BaseFrameServer):
    """A routing front-end over hash-partitioned cache servers.

    Parameters
    ----------
    targets:
        One dialable target per partition — anything
        :func:`repro.serving.api.dial` accepts: an in-process
        :class:`CacheServer` (tests, the loopback path) or a
        ``tcp://host:port`` URL (the process pool).
    pool:
        Optional supervisor hook (``ProcessPartitionPool``-shaped: the
        object behind ``targets`` owning worker processes).  Only
        :meth:`supervise` uses it.
    max_inflight_queries / admission_queue_limit:
        Gateway-level admission control — the one overload gate of a
        partitioned deployment (snapshot/refresh ops bypass the
        partitions' own gates).
    recovery_grace:
        How long a query waits for a ``recovering`` partition before its
        keys are answered from the gateway's mirror as degraded intervals.
        Writes wait without a deadline (they must not be dropped or
        reordered); a partition that exhausts its restart budget releases
        them to the mirror-only path.
    registry:
        The :class:`~repro.obs.metrics.MetricsRegistry` the gateway records
        its fan-out histogram into (defaults to the process registry).

    There is no refresh deadline here: a refresh relayed to a feeder is
    bounded by the owning partition's ``refresh_timeout``.
    """

    _TASK_OPS: ClassVar[FrozenSet[str]] = frozenset({"query"})

    def __init__(
        self,
        targets: Sequence[Any],
        *,
        pool: Optional[Any] = None,
        max_inflight_queries: int = DEFAULT_MAX_INFLIGHT_QUERIES,
        admission_queue_limit: int = DEFAULT_ADMISSION_QUEUE_LIMIT,
        recovery_grace: float = DEFAULT_RECOVERY_GRACE,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(
            max_inflight_queries=max_inflight_queries,
            admission_queue_limit=admission_queue_limit,
            registry=registry,
        )
        if not targets:
            raise ValueError("a gateway needs at least one partition target")
        non_negative("recovery_grace", recovery_grace, finite=False)
        self._targets: List[Any] = list(targets)
        self._pool = pool
        self._control: List[Optional[Client]] = [None] * len(self._targets)
        # Upstream feeder links: (incoming connection, partition) -> Client.
        self._upstreams: Dict[_Connection, Dict[int, Client]] = {}
        # The gateway's key/value mirror: last exact value seen per key
        # (registration or update), for partition-restart resync.
        self._values: Dict[Hashable, float] = {}
        self._owners: Dict[Hashable, _Connection] = {}
        self._supervisor: Optional[asyncio.Task] = None
        self.statistics = ServingStatistics()
        # Per-partition recovery state: health string, a "routable" event
        # ops wait on (set except while recovering), and the gateway clock
        # at which the partition last went unroutable (degraded widths).
        self._recovery_grace = recovery_grace
        self._health: List[str] = ["ok"] * len(self._targets)
        self._routable: List[asyncio.Event] = []
        for _ in self._targets:
            event = asyncio.Event()
            event.set()
            self._routable.append(event)
        self._partition_down_since: Dict[int, float] = {}
        # The gateway's own drift envelope per key — the same empirical
        # widening model the partitions keep, so mirror-degraded answers
        # honour the containment contract even with the partition gone.
        self._drift: Dict[Hashable, _KeyDrift] = {}
        self._last_update_time: Dict[Hashable, float] = {}
        self._degraded_slack = DEFAULT_DEGRADED_SLACK
        self._clock = 0.0
        self._fanout_histogram = self._registry.histogram(
            "repro_gateway_fanout_partitions",
            "Partitions touched per routed query.",
            buckets=SIZE_BUCKETS,
        )

    @property
    def partition_count(self) -> int:
        return len(self._targets)

    def partition_of(self, key: Hashable) -> int:
        """The partition index owning ``key`` (stable hash routing)."""
        return shard_index(key, len(self._targets))

    # ------------------------------------------------------------------
    # Metrics (repro.obs): the gateway's totals plus each partition's
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, Any]:
        """The gateway's own counters and gauges (no partition's).

        Updates are applied or ignored by the partitions, whose series
        count them; the gateway only routes them, so it has no such series.
        """
        own = dict(vars(self.statistics))
        del own["updates_applied"], own["updates_ignored"]
        return {
            **own,
            "connections": len(self._connections),
            "clock": self._clock,
            "partitions": len(self._targets),
            "partitions_unreachable": sum(
                1 for state in self._health if state != "ok"
            ),
        }

    async def _handle_metrics(self) -> Dict[str, Any]:
        """The gateway's scrape merged with every reachable partition's.

        An in-process partition that shares this gateway's registry adds
        only its totals, labelled ``partition="<index>"``: its histograms
        are already in the gateway's own registry snapshot.
        """

        async def fetch(index: int) -> Optional[Dict[str, Any]]:
            target = self._targets[index]
            if getattr(target, "registry", None) is self._registry:
                return render_stats(
                    target.totals(), self._registry, partition=str(index)
                )
            if not self._partition_routable(index):
                return None
            try:
                return await self._control_link(index).metrics()
            except _LINK_ERRORS:
                self._note_partition_failure(index)
                return None

        fetched = await asyncio.gather(
            *(fetch(index) for index in range(len(self._targets)))
        )
        snapshots = [
            render_stats(self.totals(), self._registry),
            self._registry.snapshot(),
        ]
        snapshots.extend(snapshot for snapshot in fetched if snapshot)
        return merge_snapshots(snapshots)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Open one control link per partition (query/snapshot/stats path)."""
        for index in range(len(self._targets)):
            await self._connect_control(index)

    async def _connect_control(self, index: int) -> Client:
        link = await Client.from_transport(await dial(self._targets[index]))
        self._control[index] = link
        return link

    def _control_link(self, index: int) -> Client:
        link = self._control[index]
        if link is None:
            raise ConnectionResetError(f"partition {index} has no control link")
        return link

    # ------------------------------------------------------------------
    # Partition health (the recovery state machine)
    # ------------------------------------------------------------------
    def partition_state(self, index: int) -> str:
        """This partition's health: one of :data:`PARTITION_STATES`."""
        return self._health[index]

    def _note_partition_failure(self, index: int) -> None:
        """An op (or the supervisor) found partition ``index`` unreachable.

        With a pool the partition becomes ``recovering`` — ops queue on its
        routable event until the supervisor brings it back (or gives up,
        downgrading it to ``degraded``).  Without a pool nobody will ever
        restart it, so it goes straight to terminal ``down``.
        """
        if self._health[index] != "ok":
            return
        if TRACER.enabled:
            # SIGKILL leaves the dead partition nothing to dump, so the
            # survivor's recent spans are the crash's flight record: the
            # last frames the gateway exchanged before noticing the death.
            TRACER.dump(
                f"partition{index}-unreachable",
                reason=f"partition {index} unreachable at clock {self._clock:g}",
            )
        self._partition_down_since.setdefault(index, self._clock)
        if self._pool is not None:
            self._health[index] = "recovering"
            self._routable[index].clear()
        else:
            self._health[index] = "down"
        _LOG.warning(
            "partition unreachable",
            extra={
                "fields": {
                    "partition": index,
                    "state": self._health[index],
                    "clock": self._clock,
                }
            },
        )

    def _mark_partition_ok(self, index: int) -> None:
        if self._health[index] != "ok":
            _LOG.info(
                "partition routable again",
                extra={"fields": {"partition": index, "clock": self._clock}},
            )
        self._health[index] = "ok"
        self._partition_down_since.pop(index, None)
        self._routable[index].set()

    def _mark_partition_degraded(self, index: int) -> None:
        """Terminal: restart budget exhausted; release queued ops to the
        mirror-only path."""
        self._health[index] = "degraded"
        self._partition_down_since.setdefault(index, self._clock)
        self._routable[index].set()
        _LOG.error(
            "partition degraded (restart budget exhausted)",
            extra={"fields": {"partition": index, "clock": self._clock}},
        )

    def _partition_routable(self, index: int) -> bool:
        """Whether ops may currently be forwarded to partition ``index``."""
        return self._health[index] == "ok"

    async def _await_partition(
        self, index: int, timeout: Optional[float] = None
    ) -> bool:
        """Wait for ``index`` to become routable; False means answer from
        the mirror (terminal state, or the recovery grace ran out)."""
        if self._health[index] == "ok":
            return True
        if self._health[index] in ("degraded", "down"):
            return False
        if timeout is not None and timeout <= 0:
            return False
        try:
            await asyncio.wait_for(
                asyncio.shield(self._routable[index].wait()), timeout
            )
        except asyncio.TimeoutError:
            pass
        return self._health[index] == "ok"

    async def _drop_upstream(self, connection: _Connection, index: int) -> None:
        """Forget a dead upstream link so the retry dials the new target."""
        links = self._upstreams.get(connection)
        if links is not None:
            stale = links.pop(index, None)
            if stale is not None:
                await stale.close()

    # ------------------------------------------------------------------
    # The mirror's drift model (mirror-degraded answers)
    # ------------------------------------------------------------------
    def _advance_clock(self, time: Optional[float]) -> None:
        if time is not None and time > self._clock:
            self._clock = time

    def _observe_value(
        self, key: Hashable, value: float, time: Optional[float]
    ) -> None:
        """Fold one exact value into the mirror and its drift envelope."""
        old = self._values.get(key)
        if old is not None and value != old:
            drift = self._drift.get(key)
            if drift is None:
                drift = self._drift[key] = _KeyDrift()
            last = self._last_update_time.get(key)
            gap = time - last if (time is not None and last is not None) else None
            drift.observe(abs(value - old), gap)
        self._values[key] = float(value)
        if time is not None:
            self._last_update_time[key] = time

    def _mirror_degraded_interval(
        self, key: Hashable, time: Optional[float]
    ) -> Interval:
        """The honest bound for a key whose partition is unreachable.

        The partition-side :meth:`CacheServer._degraded_interval` widening
        model, run from the gateway's own mirror: last exact value padded
        by (largest observed step × potentially missed updates ×
        ``degraded_slack``).  A key the mirror never saw is unbounded —
        the same honesty a single server gives an unknown key.
        """
        value = self._values.get(key)
        if value is None:
            return Interval(-math.inf, math.inf)
        down_at = self._partition_down_since.get(self.partition_of(key))
        drift = self._drift.get(key)
        if down_at is None or drift is None:
            return Interval.exact(value)
        now = time if time is not None else self._clock
        allowance = drift.allowance(now - down_at, self._degraded_slack)
        if allowance > 0.0:
            return Interval(value - allowance, value + allowance)
        return Interval.exact(value)

    async def close(self) -> None:
        supervisor, self._supervisor = self._supervisor, None
        if supervisor is not None:
            supervisor.cancel()
            await join(supervisor)
        await super().close()
        for links in list(self._upstreams.values()):
            for link in links.values():
                await link.close()
        self._upstreams.clear()
        for index, link in enumerate(self._control):
            if link is not None:
                await link.close()
                self._control[index] = None

    # ------------------------------------------------------------------
    # Connection teardown hooks
    # ------------------------------------------------------------------
    async def _connection_lost(self, connection: _Connection) -> None:
        # Closing the upstream links delivers EOF to every partition this
        # feeder touched, which also ends the refreshes relayed to it; the
        # partitions mark its keys down and serve degraded answers — their
        # machinery, not a gateway re-implementation.
        connection.pending.clear()
        links = self._upstreams.pop(connection, None)
        if links:
            for link in links.values():
                await link.close()

    def _connection_removed(self, connection: _Connection) -> None:
        for key in connection.keys:
            if self._owners.get(key) is connection:
                del self._owners[key]
        connection.keys.clear()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _dispatch(
        self, connection: _Connection, frame: Dict[str, Any], payload: bytes
    ) -> None:
        op = frame.get("op")
        request_id = frame.get("id")
        try:
            request = parse_request(frame)
            if request is None:
                reply = error_response(request_id, f"unknown operation {op!r}")
            elif isinstance(request, Update):
                reply = await self._handle_update(connection, request)
            elif isinstance(request, UpdateBatch):
                reply = await self._handle_update_batch(connection, request)
            elif isinstance(request, QueryRequest):
                reply = await self._handle_query(request)
            elif isinstance(request, RegisterFeeder):
                reply = await self._handle_register(connection, request)
            elif isinstance(request, StatsRequest):
                reply = await self._handle_stats()
            elif isinstance(request, MetricsRequest):
                reply = await self._handle_metrics()
            else:
                # snapshot / refresh_key / refresh are partition-internal
                # ops; at the gateway's front door they are unknown.
                reply = error_response(request_id, f"unknown operation {op!r}")
        except ConnectionResetError:
            reply = error_response(request_id, "refresh fetch failed: feeder gone")
        except Exception as exc:
            reply = error_response(request_id, f"{type(exc).__name__}: {exc}")
        if request_id is not None:
            if isinstance(reply, Response):
                reply = reply.to_wire()
            reply.setdefault("id", request_id)
            reply.setdefault("ok", True)
            await connection.send(reply)

    # ------------------------------------------------------------------
    # Upstream feeder links
    # ------------------------------------------------------------------
    async def _upstream(self, connection: _Connection, index: int) -> Client:
        links = self._upstreams.setdefault(connection, {})
        link = links.get(index)
        if link is None:
            transport = await dial(self._targets[index])
            link = await Client.from_transport(
                transport,
                on_request=functools.partial(
                    self._relay_refresh, connection, transport
                ),
            )
            links[index] = link
        return link

    async def _relay_refresh(
        self, connection: _Connection, upstream: Any, frame: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        """A partition's ``refresh`` on ``upstream``: re-send it to the feeder.

        Runs in the upstream link's read loop and only writes: the frame
        goes to the feeder ``connection`` under a fresh RPC id, and
        :meth:`_complete_refresh_rpc` writes the feeder's reply back to
        ``upstream``.  A feeder connection that is closing or fenced gets
        nothing; the partition is answered at once with an error and no
        values.  Counts ``refresh_rpcs`` in keys and records a
        ``refresh_rpc`` span, like a cache server's own refresh RPC.
        """
        message = Refresh.from_wire(frame)
        request_id = frame.get("id")
        self.statistics.refresh_rpcs += len(message.keys)
        if connection.closing or self._connection_fenced(connection):
            return _refresh_error(request_id, "feeder connection closed or fenced")
        rpc_id = next(connection.rpc_ids)
        connection.pending[rpc_id] = (upstream, request_id, len(message.keys))
        if TRACER.enabled:
            TRACER.record(
                "refresh_rpc",
                conn=connection.ordinal,
                frame=f"r{rpc_id}",
                keys=[repr(key) for key in message.keys],
            )
        await connection.send(message.to_wire(rpc_id))
        if connection.closing and connection.pending.pop(rpc_id, None) is not None:
            # The write failed: no reply can come.
            return _refresh_error(request_id, "feeder connection closed")
        return None

    async def _complete_refresh_rpc(
        self, connection: _Connection, frame: Dict[str, Any]
    ) -> None:
        """A feeder's reply to a relayed refresh, written back upstream.

        It goes out under the partition's RPC id.  A reply from a fenced
        session is an error and counts in ``stale_epoch_rejections``; a
        prefix of the values passes through as the feeder's error reply;
        malformed values close the upstream link, whose partition then
        sees its feeder gone.
        """
        relay = connection.pending.pop(frame.get("id"), None)
        if relay is None:
            return
        upstream, request_id, count = relay
        if self._connection_fenced(connection):
            # A reconnect superseded this session mid-RPC; its values may
            # predate the resync and must not be trusted as exact.
            self.statistics.stale_epoch_rejections += 1
            reply = _refresh_error(
                request_id, "refresh answered by a stale feeder epoch"
            )
        else:
            try:
                values = RefreshValues.from_wire(frame).values
                if len(values) > count:
                    raise ProtocolError(f"{len(values)} values for {count} keys")
            except ProtocolError:
                upstream.close()
                return
            if len(values) == count:
                reply = {"values": list(values), "id": request_id, "ok": True}
            else:
                reply = _refresh_error(
                    request_id,
                    f"refresh rejected by feeder: {frame.get('error', 'no value')}",
                    values,
                )
        try:
            await upstream.write_frame(reply)
        except _LINK_ERRORS:
            pass  # the link is gone: its partition sees EOF

    # ------------------------------------------------------------------
    # Pipelined partition fan-out
    # ------------------------------------------------------------------
    async def _fan_out(
        self,
        connection: Optional[_Connection],
        op: str,
        requests: Dict[int, Dict[str, Any]],
        parse: Callable[[Dict[str, Any]], Any],
        retry: Callable[[int], Awaitable[Any]],
    ) -> List[Any]:
        """One ``op`` request per partition, all sent before any is awaited.

        ``requests`` maps a partition index to its request's wire fields.
        Each rides ``connection``'s upstream link to that partition, or the
        control link when ``connection`` is None, and its checked reply
        goes through ``parse``.  A partition that is not routable, or whose
        send or reply fails with a link error, falls back to
        ``retry(index)``, its retry loop; the fallbacks run concurrently,
        so several failed partitions wait out recovery together.  Returns
        the results in ``requests`` order.  Every reply future is awaited,
        or, when an error ends the wait early, cancelled or its exception
        retrieved.
        """
        issued: List[Tuple[int, Optional[asyncio.Future]]] = []
        results: Dict[int, Any] = {}
        try:
            for index, fields in requests.items():
                future = None
                if self._partition_routable(index):
                    try:
                        if connection is None:
                            link = self._control_link(index)
                        else:
                            link = await self._upstream(connection, index)
                        future = await link.send(op, **fields)
                    except _LINK_ERRORS:
                        pass
                issued.append((index, future))
            for position, (index, future) in enumerate(issued):
                if future is None:
                    continue
                issued[position] = (index, None)
                try:
                    response = await future
                except _LINK_ERRORS:
                    continue
                results[index] = parse(check_reply(op, response))
        finally:
            for _, future in issued:
                if future is None:
                    continue
                if not future.done():
                    future.cancel()
                elif not future.cancelled():
                    future.exception()
        failed = [index for index in requests if index not in results]
        if failed:
            retried = await asyncio.gather(*(retry(index) for index in failed))
            results.update(zip(failed, retried))
        return [results[index] for index in requests]

    # ------------------------------------------------------------------
    # Feeder operations
    # ------------------------------------------------------------------
    async def _handle_register(
        self, connection: _Connection, request: RegisterFeeder
    ) -> RegisterAck:
        epoch: Optional[int] = None
        if request.feeder is not None:
            # Gateway-level epoch fencing, same discipline as the server's:
            # a reconnecting feeder identity supersedes its old session.
            epoch = self._feeder_epochs.get(request.feeder, 0) + 1
            self._feeder_epochs[request.feeder] = epoch
            connection.feeder_id = request.feeder
            connection.epoch = epoch
        values = dict(zip(request.keys, request.values))
        refreshes: Optional[int] = 0 if request.resync else None
        self._advance_clock(request.time)
        for index, keys in partition_keys(request.keys, len(self._targets)).items():
            # A recovering partition blocks the registration (like writes);
            # a terminal one is mirror-only, the registration still
            # succeeds against the gateway state below.
            while await self._await_partition(index):
                try:
                    link = await self._upstream(connection, index)
                    ack = await link.register(
                        keys,
                        [values[key] for key in keys],
                        feeder=request.feeder,
                        resync=request.resync,
                        time=request.time,
                    )
                except _LINK_ERRORS:
                    await self._drop_upstream(connection, index)
                    self._note_partition_failure(index)
                    continue
                if request.resync and ack.refreshes is not None:
                    refreshes += ack.refreshes
                break
        for key, value in values.items():
            self._observe_value(key, float(value), request.time)
            self._owners[key] = connection
            connection.keys[key] = None
        if request.resync:
            self.statistics.feeder_resyncs += 1
        return RegisterAck(
            registered=len(request.keys), epoch=epoch, refreshes=refreshes
        )

    async def _handle_update(self, connection: _Connection, request: Update) -> Any:
        if self._connection_fenced(connection):
            return self._reject_stale()
        self._advance_clock(request.time)
        index = self.partition_of(request.key)
        refresh = False
        # Writes wait out a recovery (re-sent updates fold idempotently:
        # the recovered partition already replayed any it had applied);
        # a terminal partition takes them into the mirror only.
        while await self._await_partition(index):
            try:
                link = await self._upstream(connection, index)
                ack = await link.update(request.key, request.value, time=request.time)
            except _LINK_ERRORS:
                await self._drop_upstream(connection, index)
                self._note_partition_failure(index)
                continue
            refresh = ack.refresh
            break
        self._observe_value(request.key, float(request.value), request.time)
        self._owners.setdefault(request.key, connection)
        connection.keys[request.key] = None
        return UpdateAck(refresh=refresh)

    async def _handle_update_batch(
        self, connection: _Connection, request: UpdateBatch
    ) -> Any:
        if self._connection_fenced(connection):
            return self._reject_stale()
        groups: Dict[int, List[Tuple[Hashable, float]]] = {}
        for key, value in request.updates:
            groups.setdefault(self.partition_of(key), []).append((key, value))
        self._advance_clock(request.time)

        # Per-key order is preserved inside each forwarded batch, and the
        # refresh counts of disjoint partitions commute — so the forwards
        # can all be in flight at once without disturbing serialised-replay
        # bit-identity, and a batch costs the slowest partition rather
        # than the sum.  The retry wraps each partition's forward, never
        # the fan-out: siblings that already applied must not be re-sent
        # (re-sends would fold idempotently anyway, but why churn).
        async def forward(index: int) -> int:
            updates = groups[index]
            while await self._await_partition(index):
                try:
                    link = await self._upstream(connection, index)
                    ack = await link.update_batch(updates, time=request.time)
                except _LINK_ERRORS:
                    await self._drop_upstream(connection, index)
                    self._note_partition_failure(index)
                    continue
                return ack.refreshes
            return 0  # terminal partition: mirror-only

        refreshes = sum(
            await self._fan_out(
                connection,
                UpdateBatch.OP,
                {
                    index: update_batch_fields(updates, request.time)
                    for index, updates in groups.items()
                },
                lambda response: UpdateBatchAck.from_wire(response).refreshes,
                forward,
            )
        )
        for key, value in request.updates:
            self._observe_value(key, float(value), request.time)
            self._owners.setdefault(key, connection)
            connection.keys[key] = None
        return UpdateBatchAck(refreshes=refreshes)

    # ------------------------------------------------------------------
    # Query execution (snapshot -> global selection -> routed refreshes)
    # ------------------------------------------------------------------
    async def _execute_query(self, request: QueryRequest) -> BoundedAnswer:
        keys = list(request.keys)
        if not keys:
            raise ProtocolError("a query must touch at least one key")
        kind = request.aggregate
        constraint = request.constraint
        time = request.time
        groups = partition_keys(keys, len(self._targets))
        self._fanout_histogram.observe(float(len(groups)))

        self._advance_clock(time)

        snapshots = {
            index: Snapshot(keys=tuple(group), constraint=constraint, time=time)
            for index, group in groups.items()
        }

        async def snapshot(index: int) -> Optional[SnapshotReply]:
            # None means "answer this partition's keys from the mirror":
            # it is terminally degraded/down, or still recovering after
            # ``recovery_grace``.  A transient failure flips it to
            # recovering and retries — when recovery wins the race the
            # answer is exactly the uninterrupted one.
            while await self._await_partition(index, self._recovery_grace):
                link = self._control_link(index)
                try:
                    response = await link.call(snapshots[index])
                except _LINK_ERRORS:
                    self._note_partition_failure(index)
                    continue
                return SnapshotReply.from_wire(response)
            return None

        replies = await self._fan_out(
            None,
            Snapshot.OP,
            {index: message.wire_fields() for index, message in snapshots.items()},
            SnapshotReply.from_wire,
            snapshot,
        )
        intervals: Dict[Hashable, Interval] = {}
        down_bounds: Dict[Hashable, Interval] = {}
        hits = 0
        for (index, group), reply in zip(groups.items(), replies):
            if reply is None:
                for key in group:
                    bound = self._mirror_degraded_interval(key, time)
                    intervals[key] = bound
                    down_bounds[key] = bound
                continue
            hits += reply.hits
            for key, (low, high) in zip(group, reply.intervals):
                intervals[key] = Interval(low, high)
            for position, (low, high) in zip(reply.down, reply.down_intervals):
                down_bounds[group[position]] = Interval(low, high)
        # Re-key the dict into query order: the selection and its final
        # merge must see the same float-summation order a single server
        # (and the offline simulator) uses.
        intervals = {key: intervals[key] for key in keys}

        refreshed: List[Hashable] = []

        async def fetch_exact(key: Hashable) -> float:
            index = self.partition_of(key)
            while await self._await_partition(index, self._recovery_grace):
                link = self._control_link(index)
                try:
                    response = await link.call(RefreshKey(key=key, time=time))
                except _LINK_ERRORS:
                    self._note_partition_failure(index)
                    continue
                if response.get("down"):
                    down_bounds[key] = Interval(response["low"], response["high"])
                    raise _KeyDown(key)
                value = float(response["value"])
                refreshed.append(key)
                intervals[key] = Interval.exact(value)
                self._values[key] = value
                return value
            # The partition went unroutable under this query's feet.
            down_bounds[key] = self._mirror_degraded_interval(key, time)
            raise _KeyDown(key)

        async def fetch_batch(batch: List[Hashable]) -> List[float]:
            # Key by key: each refresh_key lands on its owning partition in
            # selection order (pipelining across partitions would need a
            # per-partition install order or a multi-key partition op).
            return [await fetch_exact(key) for key in batch]

        while True:
            degraded = [key for key in keys if key in down_bounds]
            try:
                bound = await execute_partitioned_query(
                    kind,
                    keys,
                    intervals,
                    constraint,
                    degraded,
                    lambda key, snapshot: down_bounds[key],
                    fetch_batch,
                )
                break
            except _KeyDown:
                continue
        self.statistics.queries_served += 1
        if degraded:
            self.statistics.queries_degraded += 1
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
    # Stats aggregation
    # ------------------------------------------------------------------
    async def _handle_stats(self) -> Dict[str, Any]:
        """The partitions' replies merged by each field's catalog rule."""

        async def partition(index: int) -> Dict[str, Any]:
            # An unroutable partition contributes nothing rather than
            # failing the whole stats op.
            if not self._partition_routable(index):
                return {}
            try:
                return await self._control_link(index).stats()
            except _LINK_ERRORS:
                self._note_partition_failure(index)
                return {}

        partition_stats = await asyncio.gather(
            *(partition(index) for index in range(len(self._targets)))
        )
        own = self.totals()
        merged: Dict[str, Any] = {}
        for stat in STATS_CATALOG:
            rules = stat.gateway.split()
            values = [
                stats[stat.field]
                for stats in partition_stats
                if stats.get(stat.field) is not None
            ]
            if "sum" in rules:
                merged[stat.field] = sum(values, stat.default)
            elif "max" in rules:
                merged[stat.field] = max(values, default=stat.default)
            elif "any" in rules:
                merged[stat.field] = any(values)
            elif "own" in rules:
                merged[stat.field] = own[stat.field]
            if "gateway_" in rules:
                merged["gateway_" + stat.field] = own[stat.field]
        lookups = merged["hits"] + merged["misses"]
        merged["hit_rate"] = (merged["hits"] / lookups) if lookups else 0.0
        merged["partition_health"] = list(self._health)
        return merged

    def health(self) -> Dict[str, Any]:
        """Per-partition liveness/recovery state for ``GET /healthz``."""
        partitions: List[Dict[str, Any]] = []
        for index in range(len(self._targets)):
            entry: Dict[str, Any] = {
                "index": index,
                "state": self._health[index],
                "restarts": 0,
            }
            if self._pool is not None:
                restarts = getattr(self._pool, "worker_restarts", None)
                if restarts is not None:
                    entry["restarts"] = restarts(index)
            partitions.append(entry)
        return {
            "ok": all(entry["state"] == "ok" for entry in partitions),
            "role": "gateway",
            "partitions": partitions,
            "partition_restarts": self.statistics.partition_restarts,
        }

    # ------------------------------------------------------------------
    # Partition supervision (the process pool's restart path)
    # ------------------------------------------------------------------
    def start_supervisor(self, poll_interval: float = 0.25) -> asyncio.Task:
        """Start the background liveness loop (requires a pool)."""
        if self._pool is None:
            raise ValueError("supervision requires a partition pool")
        self._supervisor = asyncio.ensure_future(self.supervise(poll_interval))
        return self._supervisor

    async def supervise(self, poll_interval: float = 0.25) -> None:
        """Poll the pool; restart and resync any dead partition, forever.

        A partition that burns through its restart budget
        (:class:`~repro.serving.errors.SupervisionExhausted`) is downgraded
        to terminal ``degraded`` — its keys answer from the gateway mirror
        forever, its siblings stay supervised, and the client contract
        ("answers widen, never err") holds throughout.
        """
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(poll_interval)
            for index in range(len(self._targets)):
                if self._health[index] == "degraded":
                    continue
                if self._pool.is_alive(index) and self._health[index] == "ok":
                    continue
                self._note_partition_failure(index)
                try:
                    target = await loop.run_in_executor(
                        None, self._pool.restart, index
                    )
                except SupervisionExhausted:
                    self._mark_partition_degraded(index)
                    continue
                await self.resync_partition(index, target)

    async def resync_partition(self, index: int, target: Any) -> None:
        """Point partition ``index`` at ``target``, resync it, mark it ok.

        Two shapes of fresh process:

        * **Durable restart** — the partition replayed its snapshot+WAL in
          its constructor and already holds every key, interval, counter
          and down-stamp.  The gateway only re-registers live feeders'
          keys over fresh upstream links (``resync`` registration: equal
          values fold as no-ops, refresh RPCs flow again); orphaned keys
          are left exactly as recovery rebuilt them.  A final
          ``recovered`` handshake makes the partition checkpoint its
          recovered state before live routing resumes.
        * **Blank restart** (no WAL) — the gateway replays its mirror:
          keys with a live feeder re-register under that feeder's
          identity, and orphaned keys are registered over a throwaway
          link that is closed immediately, so the partition holds their
          last values but serves them as honest degraded answers.
        """
        self._targets[index] = target
        old = self._control[index]
        if old is not None:
            await old.close()
        await self._connect_control(index)
        self.statistics.partition_restarts += 1
        stats = await self._control_link(index).stats()
        durable = bool(stats.get("durable")) and stats.get("keys", 0) > 0
        by_connection: Dict[Optional[_Connection], List[Hashable]] = {}
        for key, value in self._values.items():
            if self.partition_of(key) != index:
                continue
            owner = self._owners.get(key)
            if owner is not None and owner.closing:
                owner = None
            by_connection.setdefault(owner, []).append(key)
        for connection, keys in by_connection.items():
            values = [self._values[key] for key in keys]
            if connection is None:
                if durable:
                    # Recovery already rebuilt orphaned keys — with their
                    # real intervals, drift envelopes and (wider, safer)
                    # original down-stamps.  A mirror replay would only
                    # clobber that with a fresh-registration lifecycle.
                    continue
                orphan = await Client.from_transport(await dial(target))
                try:
                    await orphan.register(keys, values)
                finally:
                    await orphan.close()
                continue
            links = self._upstreams.get(connection)
            if links is not None:
                stale = links.pop(index, None)
                if stale is not None:
                    await stale.close()
            link = await self._upstream(connection, index)
            await link.register(
                keys, values, feeder=connection.feeder_id, resync=durable
            )
        if durable:
            await self._control_link(index).call(Recovered())
        self._mark_partition_ok(index)
