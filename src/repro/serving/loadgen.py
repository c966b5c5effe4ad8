"""The trace-replay load harness for the serving layer.

Two replay modes drive a :class:`~repro.serving.server.CacheServer` with the
same workload artefacts the offline experiments use (a
:class:`~repro.data.trace.Trace`, a
:class:`~repro.simulation.config.SimulationConfig`), so the offline and
online paths share every generator:

* :func:`replay_trace_deterministic` — one feeder plus one query client
  replay the *exact* offline event sequence: updates walk the merged
  timelines (:class:`~repro.simulation.kernel.MergedEventWalk`, the batch
  kernel's ordering), queries come from
  :meth:`SimulationConfig.build_workload` (the simulator's RNG chain), and
  every RPC is awaited before the next event (serialised query order).  The
  server then reproduces the offline simulator's total refresh count and hit
  rate bit for bit — asserted by ``tests/test_serving_equivalence.py`` and
  the CI serving smoke.
* :func:`replay_trace_concurrent` — N client connections issue queries
  concurrently (optionally paced to a target rate) while feeder connections
  replay the update timelines, measuring what the deterministic mode cannot:
  p50/p99 query latency, throughput, and admission-control rejections under
  real interleaving.

Both return a :class:`LoadgenReport`; the ``serving_throughput`` experiment
(:mod:`repro.experiments.serving_throughput`) tabulates concurrent runs
across client counts.

Both modes also accept a :class:`~repro.serving.faults.FaultPlan`: every
dialled connection is wrapped in a
:class:`~repro.serving.faults.FaultyTransport` drawing from the plan's
seeded streams, feeders ride a reconnect-and-resync loop, queriers retry
with seeded exponential backoff (:class:`RetryPolicy`), and — in the
deterministic mode — ``check_invariant`` verifies the paper's containment
guarantee against the replay's own ground truth on every answer: the
returned interval must contain the true aggregate, degraded or not.
"""

from __future__ import annotations

import asyncio
import math
import random
import time as wall_time
from dataclasses import dataclass, field
from typing import (
    Any,
    Awaitable,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.checks import at_least, non_negative, positive
from repro.data.merged import merge_timelines
from repro.data.streams import TraceStream
from repro.obs.metrics import LATENCY_BUCKETS_SECONDS, REGISTRY
from repro.data.trace import Trace
from repro.queries.aggregates import AggregateKind
from repro.serving.api import Client, dial
from repro.serving.errors import (
    ConnectionLost,
    DeadlineExceeded,
    RequestRejected,
    StaleEpochError,
)
from repro.serving.faults import FaultPlan, FaultyTransport, SessionFaults
from repro.serving.protocol import (
    BoundedAnswer,
    QueryRequest,
    RegisterAck,
    Request,
)
from repro.serving.transport import StreamFrameTransport
from repro.simulation.config import SimulationConfig
from repro.simulation.kernel import HORIZON_TOLERANCE, MergedEventWalk


class TcpDialer:
    """Dial adapter for load-generating against a remote ``repro serve``.

    Presents the same ``connect()`` surface as
    :meth:`repro.serving.server.CacheServer.connect` (the loopback path), so
    both replay modes accept either a local server or a ``TcpDialer``.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port

    async def connect(self) -> StreamFrameTransport:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        return StreamFrameTransport(reader, writer)


class WsDialer:
    """Dial adapter for load-generating against the HTTP/WebSocket edge."""

    def __init__(self, url: str) -> None:
        self.url = url

    async def connect(self) -> Any:
        from repro.serving.http import connect_websocket

        return await connect_websocket(self.url)


class MultiTargetDialer:
    """Round-robin dial adapter over several serving targets.

    The scaled-edge topology runs N stateless gateway processes over one
    shared partition pool; spreading the load generator's connections
    across the gateways exercises it the way a fleet load balancer
    would.  Each ``connect()`` dials the next target in rotation.
    """

    def __init__(self, targets: Sequence[str]) -> None:
        if not targets:
            raise ValueError("MultiTargetDialer needs at least one target")
        self._dialers = [dialer_for_target(target) for target in targets]
        self._next = 0

    async def connect(self) -> Any:
        dialer = self._dialers[self._next % len(self._dialers)]
        self._next += 1
        return await dialer.connect()


def dialer_for_target(target: str) -> Any:
    """A dialer for a ``tcp://host:port`` or ``ws://host:port/path`` URL."""
    if target.startswith("ws://") or target.startswith("wss://"):
        return WsDialer(target)
    if target.startswith("tcp://"):
        target = target[len("tcp://") :]
    host, _, port = target.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"cannot parse loadgen target {target!r} as host:port")
    return TcpDialer(host, int(port))


async def _dial(target: Any) -> Any:
    """Open one connection on a server, dialer, or URL (see ``api.dial``)."""
    return await dial(target)


def percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample (0 if empty)."""
    if not sorted_values:
        return 0.0
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    rank = max(int(fraction * len(sorted_values) + 0.5), 1)
    return sorted_values[min(rank, len(sorted_values)) - 1]


class RetryPolicy:
    """Exponential backoff with seeded jitter (deterministic per run).

    ``delay(attempt)`` doubles from ``base_delay`` up to ``max_delay`` and
    multiplies by a jitter factor in ``[0.5, 1.5)`` drawn from a stream
    seeded by ``seed`` — replays of the same chaos run back off
    identically, so retry timing never makes a seeded run flaky.
    """

    def __init__(
        self,
        attempts: int = 5,
        base_delay: float = 0.005,
        max_delay: float = 0.25,
        seed: int = 0,
    ) -> None:
        self.attempts = at_least("attempts", attempts, 1, finite=True)
        self.base_delay = positive("base_delay", base_delay, finite=True)
        self.max_delay = at_least("max_delay", max_delay, base_delay, finite=True)
        self._rng = random.Random(f"retry:{seed}")

    def delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based), jittered."""
        exponential = min(self.max_delay, self.base_delay * (2 ** (attempt - 1)))
        return exponential * (0.5 + self._rng.random())


def _new_resilience_counters() -> Dict[str, int]:
    """The shared client-side counter block a load-generation run fills in."""
    return {
        "retries": 0,
        "reconnects": 0,
        "degraded_answers": 0,
        "deadline_failures": 0,
        "invariant_checks": 0,
        "invariant_violations": 0,
    }


@dataclass
class LoadgenReport:
    """What one load-generation run observed (client side plus server stats)."""

    mode: str
    clients: int
    queries: int
    updates_sent: int
    hits: int
    misses: int
    value_refreshes: int
    query_refreshes: int
    queries_rejected: int
    total_cost: float
    omega: float
    wall_seconds: float
    throughput_qps: float
    p50_latency_ms: float
    p99_latency_ms: float
    max_latency_ms: float
    retries: int = 0
    reconnects: int = 0
    degraded_answers: int = 0
    deadline_failures: int = 0
    invariant_checks: int = 0
    invariant_violations: int = 0
    partition_kills: int = 0
    fault_plan: str = "none"
    faults_injected: Dict[str, int] = field(default_factory=dict)
    server_stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        """Fraction of per-key workload lookups served from the cache."""
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total

    @property
    def refresh_count(self) -> int:
        """Total refreshes of both kinds the run caused."""
        return self.value_refreshes + self.query_refreshes

    def deterministic_summary(self) -> Dict[str, Any]:
        """The wall-clock-free report fields, byte-comparable across runs.

        A seeded chaos replay that recovers correctly must reproduce
        exactly these fields from an uninterrupted run of the same seed —
        the recovery-equivalence tests diff this dict.  Wall time,
        latency percentiles and throughput are excluded (nondeterministic
        by nature), as are the raw server stats (connection-era counters
        like ``connections`` and ``feeder_resyncs`` legitimately differ
        across a crash).
        """
        return {
            "mode": self.mode,
            "clients": self.clients,
            "queries": self.queries,
            "updates_sent": self.updates_sent,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "value_refreshes": self.value_refreshes,
            "query_refreshes": self.query_refreshes,
            "queries_rejected": self.queries_rejected,
            "total_cost": self.total_cost,
            "omega": self.omega,
            "degraded_answers": self.degraded_answers,
            "invariant_checks": self.invariant_checks,
            "invariant_violations": self.invariant_violations,
        }

    def publish(self, registry: Any = None) -> None:
        """Publish this report's headline numbers into a metrics registry.

        Gauges under ``repro_loadgen_*``, labelled by replay ``mode`` — a
        finished run is a point-in-time outcome.  Purely write-only: the
        registry never feeds back into the replay, so the deterministic
        summary stays byte-identical with metrics on or off.  With the
        registry disabled (the default) this is a no-op.
        """
        registry = REGISTRY if registry is None else registry
        for name, help_text, value in (
            ("repro_loadgen_queries", "Queries the run issued.", self.queries),
            ("repro_loadgen_queries_rejected", "Admission-control rejections observed.", self.queries_rejected),
            ("repro_loadgen_updates_sent", "Source updates the feeders delivered.", self.updates_sent),
            ("repro_loadgen_hit_rate", "Client-observed workload hit rate.", self.hit_rate),
            ("repro_loadgen_omega", "Cost per simulated time unit (Omega).", self.omega),
            ("repro_loadgen_throughput_qps", "Queries per wall second.", self.throughput_qps),
            ("repro_loadgen_p50_latency_ms", "Median answered-query latency.", self.p50_latency_ms),
            ("repro_loadgen_p99_latency_ms", "99th-percentile answered-query latency.", self.p99_latency_ms),
            ("repro_loadgen_degraded_answers", "Answers served degraded from the mirror.", self.degraded_answers),
            ("repro_loadgen_invariant_violations", "Containment-check failures.", self.invariant_violations),
        ):
            registry.gauge(name, help_text, mode=self.mode).set(float(value))

    def describe(self) -> str:
        """Multi-line human-readable summary (the CLI's output)."""
        lines = [
            f"mode={self.mode} clients={self.clients}",
            f"queries={self.queries} rejected={self.queries_rejected} "
            f"updates={self.updates_sent}",
            f"hit_rate={self.hit_rate:.4f} (hits={self.hits} "
            f"misses={self.misses})",
            f"refreshes: value={self.value_refreshes} "
            f"query={self.query_refreshes}",
            f"Omega={self.omega:.4f} (total_cost={self.total_cost:g})",
            f"latency_ms: p50={self.p50_latency_ms:.3f} "
            f"p99={self.p99_latency_ms:.3f} max={self.max_latency_ms:.3f}",
            f"throughput={self.throughput_qps:.1f} q/s "
            f"wall={self.wall_seconds:.2f}s",
        ]
        if self.fault_plan != "none" or any(
            (self.retries, self.reconnects, self.degraded_answers,
             self.deadline_failures)
        ):
            injected = ",".join(
                f"{name}={count}"
                for name, count in sorted(self.faults_injected.items())
                if count
            )
            lines.append(
                f"faults: plan={self.fault_plan} injected=[{injected or 'none'}]"
            )
            lines.append(
                f"resilience: retries={self.retries} reconnects={self.reconnects} "
                f"degraded={self.degraded_answers} "
                f"deadline_failures={self.deadline_failures}"
            )
        if self.partition_kills:
            lines.append(f"partition_kills={self.partition_kills}")
        if self.invariant_checks:
            lines.append(
                f"invariant: violations={self.invariant_violations} "
                f"of {self.invariant_checks} checked answers"
            )
        return "\n".join(lines)


def _trace_replay_parts(
    trace: Trace, config: SimulationConfig
) -> Tuple[List[Hashable], Dict[Hashable, float], MergedEventWalk]:
    """Build the shared replay artefacts: keys, initial values, event walk."""
    streams = {key: TraceStream(trace, key) for key in trace.keys}
    initials = {key: stream.initial_value for key, stream in streams.items()}
    columns = {key: stream.schedule(config.duration) for key, stream in streams.items()}
    merged = merge_timelines(columns)
    walk = MergedEventWalk(merged, config.duration + HORIZON_TOLERANCE)
    return list(trace.keys), initials, walk


def _batch_by_instant(
    events: List[Tuple[Hashable, float, float]],
) -> List[Tuple[float, List[Tuple[Hashable, float]]]]:
    """Group a time-ordered event list into per-instant update batches."""
    batches: List[Tuple[float, List[Tuple[Hashable, float]]]] = []
    for key, time, value in events:
        if not batches or batches[-1][0] != time:
            batches.append((time, []))
        batches[-1][1].append((key, value))
    return batches


async def replay_trace_deterministic(
    server: Any,
    trace: Trace,
    config: SimulationConfig,
    *,
    fault_plan: Optional[FaultPlan] = None,
    check_invariant: bool = False,
    deadline: Optional[float] = None,
    retry: Optional[RetryPolicy] = None,
    partition_pool: Optional[Any] = None,
) -> LoadgenReport:
    """Replay the offline event sequence through a server, serialised.

    ``server`` is a :class:`~repro.serving.server.CacheServer` (dialled over
    its loopback transport).  Every update batch and every query is awaited
    before the next event, so the server observes exactly the interleaving
    the offline simulator executes; with the same policy and config
    (``warmup = 0`` offline, since the server has no warm-up notion) the
    refresh counts and hit rate match bit for bit.

    Under a ``fault_plan`` the replay stays serialised but stops being
    gentle: transports misbehave on the plan's seeded schedule, the feeder
    is killed every ``kill_every`` sent batches and stays down for
    ``outage_queries`` queries (answered degraded from the mirror, its
    updates lost) before reconnecting and resyncing.  The replay's own
    ``values`` dict keeps advancing while the feeder is down, so with
    ``check_invariant`` every answer is audited against the true aggregate
    — the paper's containment guarantee, under fire.  A kill+reconnect
    with ``outage_queries=0`` loses nothing and resyncs to an unchanged
    mirror, which keeps even that replay bit-identical to the offline run.

    With a ``partition_pool`` (the :class:`~repro.serving.procs.`
    ``ProcessPartitionPool`` behind a supervised gateway ``server``), the
    plan's ``partition_kill_every`` schedule SIGKILLs a seeded-random
    partition between awaited ops.  Durable partitions (``wal_dir``)
    replay their snapshot+WAL on restart and the gateway blocks the
    replay's ops until the resync handshake completes, so even *this*
    replay reproduces the no-crash run's :meth:`LoadgenReport.
    deterministic_summary` byte for byte.
    """
    plan = fault_plan if fault_plan is not None else FaultPlan()
    retry = retry if retry is not None else RetryPolicy(seed=plan.seed)
    dialer = _FaultDialer(server, plan)
    counters = _new_resilience_counters()
    keys, values, walk = _trace_replay_parts(trace, config)
    workload = config.build_workload(keys)
    feeder = _ResilientFeeder(
        lambda: dialer.dial("feeder"),
        keys,
        values,
        feeder_id="feeder-0",
        retry=retry,
        counters=counters,
        deadline=deadline,
    )
    querier = _ResilientQuerier(
        lambda: dialer.dial("client"),
        retry=retry,
        counters=counters,
        deadline=deadline,
    )
    started = wall_time.perf_counter()
    latencies: List[float] = []
    queries = updates_sent = hits = misses = rejected = 0
    batches_sent = kills_done = outage_remaining = 0
    partition_kills_done = 0
    # The victim sequence is its own seeded stream, so adding partition
    # kills to a plan never shifts the transport-fault draws.
    partition_kill_rng = random.Random(f"faults:{plan.seed}:partition-kills")
    last_flush = 0.0
    try:
        await querier.start()
        # Snapshot the server's all-time counters so the report describes
        # *this* run even against a persistent server.
        baseline = await querier.request("stats")
        await feeder.start()
        horizon = config.duration + HORIZON_TOLERANCE
        period = config.query_period
        query_time = period
        pending: List[Tuple[Hashable, float, float]] = []
        collect = pending.append

        async def flush_updates(until: float) -> None:
            nonlocal updates_sent, batches_sent, last_flush
            walk.advance(until, lambda key, time, value: collect((key, time, value)))
            for time, updates in _batch_by_instant(pending):
                # The feeder's own view advances as it sends — and also
                # while it is down: ``values`` is the replay's ground
                # truth, which the server's degraded answers must still
                # contain.
                for key, value in updates:
                    values[key] = value
                if await feeder.send_batch(updates, time):
                    updates_sent += len(updates)
                    batches_sent += 1
            pending.clear()
            last_flush = until

        while query_time <= horizon:
            if feeder.is_down:
                if outage_remaining > 0:
                    outage_remaining -= 1
                else:
                    # Resync at the last flushed instant, not the upcoming
                    # query time: folded-in catch-up values must not stamp
                    # the mirror ahead of update batches still to come.
                    await feeder.reconnect(last_flush)
            await flush_updates(query_time)
            query = workload.generate(query_time)
            begin = wall_time.perf_counter()
            response = await querier.call(
                QueryRequest(
                    keys=tuple(query.keys),
                    aggregate=query.kind,
                    constraint=query.constraint,
                    time=query_time,
                )
            )
            elapsed = wall_time.perf_counter() - begin
            queries += 1
            if response.get("overloaded"):
                # Rejected queries carry no answer and did no work; their
                # (near-zero) turnaround must not drag the latency
                # percentiles down.
                rejected += 1
            else:
                latencies.append(elapsed)
                answer = BoundedAnswer.from_wire(response)
                hits += answer.hits
                misses += answer.misses
                if answer.degraded:
                    counters["degraded_answers"] += 1
                if check_invariant:
                    counters["invariant_checks"] += 1
                    truth = _true_aggregate(query.kind, query.keys, values)
                    if not _interval_contains(answer.low, answer.high, truth):
                        counters["invariant_violations"] += 1
            if (
                plan.kill_every > 0
                and not feeder.is_down
                and batches_sent // plan.kill_every > kills_done
            ):
                # Scheduled crash: lands after a query, so the preceding
                # answer was served live; the next ``outage_queries``
                # answers are degraded.
                kills_done += 1
                await feeder.kill()
                outage_remaining = plan.outage_queries
            if (
                partition_pool is not None
                and plan.partition_kill_every > 0
                and (
                    plan.partition_kills == 0
                    or partition_kills_done < plan.partition_kills
                )
                and batches_sent // plan.partition_kill_every
                > partition_kills_done
            ):
                # SIGKILL a seeded-random partition *between* awaited ops:
                # no frame is in flight, so the WAL replay plus the
                # gateway's blocking recovery keep the run's answers
                # identical to an uninterrupted one (see the docstring).
                partition_kills_done += 1
                victim = partition_kill_rng.randrange(
                    partition_pool.partition_count
                )
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(None, partition_pool.kill, victim)
            query_time += period
        if feeder.is_down:
            await feeder.reconnect(last_flush)
        await flush_updates(horizon)
        stats = await querier.request("stats")
    finally:
        await feeder.close()
        await querier.close()
    return _build_report(
        mode="deterministic",
        baseline=baseline,
        clients=1,
        config=config,
        latencies=latencies,
        queries=queries,
        updates_sent=updates_sent,
        hits=hits,
        misses=misses,
        rejected=rejected,
        stats=stats,
        wall_seconds=wall_time.perf_counter() - started,
        counters=counters,
        plan=plan,
        faults_injected=dialer.injected(),
        partition_kills=partition_kills_done,
    )


class _FaultDialer:
    """Dials connections, wrapping each in its plan-assigned fault stream.

    Connection ordinals are per role (``feeder`` / ``client``), so adding a
    querier does not shift the feeders' fault streams — the property that
    keeps a committed chaos seed stable as the harness evolves.  With the
    zero plan every dial returns the bare transport, untouched.
    """

    def __init__(self, target: Any, plan: FaultPlan) -> None:
        self._target = target
        self._plan = plan
        self._ordinals: Dict[str, int] = {}
        self.sessions: List[SessionFaults] = []

    async def dial(self, role: str) -> Any:
        transport = await _dial(self._target)
        if self._plan.is_zero:
            return transport
        index = self._ordinals.get(role, 0)
        self._ordinals[role] = index + 1
        session = self._plan.session(role, index)
        self.sessions.append(session)
        return FaultyTransport(transport, session)

    def injected(self) -> Dict[str, int]:
        """Total injected faults across every connection this run dialled."""
        totals: Dict[str, int] = {}
        for session in self.sessions:
            for name, count in session.counters.items():
                totals[name] = totals.get(name, 0) + count
        return totals


class _ResilientFeeder:
    """A feeder that survives connection loss: reconnect, resync, resume.

    On any connection-level failure the in-flight batch is *skipped*, not
    resent: the resync registration ships every owned key's current value
    — exactly the state the lost batch would have produced — and resending
    old values with old timestamps would trip the server's update
    time-order check.  ``kill``/``reconnect`` expose the same machinery to
    the fault plan's scheduled feeder crashes.
    """

    def __init__(
        self,
        dial: Callable[[], Awaitable[Any]],
        keys: List[Hashable],
        values: Dict[Hashable, float],
        *,
        feeder_id: str,
        retry: RetryPolicy,
        counters: Dict[str, int],
        deadline: Optional[float] = None,
    ) -> None:
        self._dial = dial
        self._keys = keys
        self._values = values
        self._feeder_id = feeder_id
        self._retry = retry
        self._counters = counters
        self._deadline = deadline
        self._client: Optional[Client] = None
        self.epoch = 0

    @property
    def is_down(self) -> bool:
        return self._client is None

    def _refresh_value(self, key: Hashable) -> float:
        # The server's ``refresh`` RPC handler; KeyError (a key this feeder
        # does not own) turns into the protocol's error reply in the client.
        return self._values[key]

    async def start(self) -> None:
        """Dial and register the owned keys (a fresh lifecycle)."""
        await self._connect(resync=False, time=None)

    async def reconnect(self, time: float) -> None:
        """Dial anew and resync the owned keys against the server mirror."""
        await self._connect(resync=True, time=time)
        self._counters["reconnects"] += 1

    async def _connect(self, *, resync: bool, time: Optional[float]) -> None:
        attempt = 0
        while True:
            client = None
            try:
                client = await Client.from_transport(
                    await self._dial(),
                    on_refresh=self._refresh_value,
                    default_deadline=self._deadline,
                )
                reply: RegisterAck = await client.register(
                    self._keys,
                    [self._values[key] for key in self._keys],
                    feeder=self._feeder_id,
                    resync=resync,
                    time=time if resync else None,
                )
            except (ConnectionLost, DeadlineExceeded):
                if client is not None:
                    await client.close()
                attempt += 1
                if attempt > self._retry.attempts:
                    raise
                self._counters["retries"] += 1
                await asyncio.sleep(self._retry.delay(attempt))
                continue
            self._client = client
            self.epoch = reply.epoch or 0
            return

    async def send_batch(
        self, updates: List[Tuple[Hashable, float]], time: float
    ) -> bool:
        """Send one update batch; ``False`` when it was skipped.

        Skips happen while the feeder is (scheduled) down, and when the
        connection dies mid-send — the reconnect's resync then covers the
        lost batch.
        """
        if self._client is None:
            return False
        try:
            await self._client.update_batch(updates, time=time)
            return True
        except (ConnectionLost, DeadlineExceeded, StaleEpochError):
            await self.kill()
            await self.reconnect(time)
            return False

    async def kill(self) -> None:
        """Drop the connection with no goodbye (a simulated feeder crash)."""
        client, self._client = self._client, None
        if client is not None:
            await client.close()

    async def close(self) -> None:
        if self._client is not None:
            await self._client.close()


class _ResilientQuerier:
    """A query client with per-op deadlines, backoff and reconnects.

    Queries are idempotent from the client's point of view (the answer,
    not the side effects, is what the caller consumes), so a lost
    connection or a missed deadline retries after a seeded backoff — up to
    ``retry.attempts`` times, then the last error surfaces typed.
    """

    def __init__(
        self,
        dial: Callable[[], Awaitable[Any]],
        *,
        retry: RetryPolicy,
        counters: Dict[str, int],
        deadline: Optional[float] = None,
    ) -> None:
        self._dial = dial
        self._retry = retry
        self._counters = counters
        self._deadline = deadline
        self._client: Optional[Client] = None

    async def start(self) -> None:
        self._client = await Client.from_transport(
            await self._dial(), default_deadline=self._deadline
        )

    async def call(self, message: Request) -> Dict[str, Any]:
        """Send one typed request with the querier's retry envelope."""
        return await self.request(message.OP, **message.wire_fields())

    async def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        attempt = 0
        while True:
            try:
                assert self._client is not None
                return await self._client.request(op, **fields)
            except DeadlineExceeded:
                self._counters["deadline_failures"] += 1
                attempt += 1
                if attempt > self._retry.attempts:
                    raise
                self._counters["retries"] += 1
                await asyncio.sleep(self._retry.delay(attempt))
            except ConnectionLost:
                attempt += 1
                if attempt > self._retry.attempts:
                    raise
                self._counters["retries"] += 1
                await asyncio.sleep(self._retry.delay(attempt))
                await self._reconnect()

    async def _reconnect(self) -> None:
        if self._client is not None:
            await self._client.close()
        await self.start()
        self._counters["reconnects"] += 1

    async def close(self) -> None:
        if self._client is not None:
            await self._client.close()


#: Relative slop for the containment check: the server sums interval
#: endpoints in its own order, so the true aggregate can differ from the
#: replay's by float-rounding only.
_INVARIANT_TOLERANCE = 1e-9


def _true_aggregate(
    kind: AggregateKind, keys: Any, values: Dict[Hashable, float]
) -> float:
    """The exact aggregate over the replay's ground-truth values."""
    sample = [values[key] for key in keys]
    if kind is AggregateKind.SUM:
        return sum(sample)
    if kind is AggregateKind.MAX:
        return max(sample)
    if kind is AggregateKind.MIN:
        return min(sample)
    if kind is AggregateKind.AVG:
        return sum(sample) / len(sample)
    raise ValueError(f"no ground-truth evaluation for {kind!r}")


def _interval_contains(low: float, high: float, value: float) -> bool:
    pad = _INVARIANT_TOLERANCE * max(1.0, abs(value))
    return low - pad <= value <= high + pad


async def replay_trace_concurrent(
    server: Any,
    trace: Trace,
    config: SimulationConfig,
    *,
    clients: int = 4,
    queries_per_client: int = 100,
    rate: float = 0.0,
    feeders: int = 1,
    fault_plan: Optional[FaultPlan] = None,
    deadline: Optional[float] = None,
    retry: Optional[RetryPolicy] = None,
) -> LoadgenReport:
    """Drive a server with concurrent clients while feeders replay updates.

    ``clients`` query connections each issue ``queries_per_client`` bounded
    aggregates (drawn from per-client seeded workloads), optionally paced to
    ``rate`` queries/second per client (``0`` = as fast as responses
    return).  ``feeders`` connections split the key space and replay the
    update timelines concurrently.  Latency percentiles are measured on the
    client side; admission-control rejections are counted, not raised.

    A ``fault_plan`` injects transport faults on every feeder and client
    connection; feeders reconnect-and-resync, clients retry with backoff.
    Containment is not audited here — concurrent interleaving has no
    single ground-truth instant per query; use the deterministic mode's
    ``check_invariant`` for that.
    """
    at_least("clients", clients, 1, finite=True)
    at_least("feeders", feeders, 1, finite=True)
    plan = fault_plan if fault_plan is not None else FaultPlan()
    retry = retry if retry is not None else RetryPolicy(seed=plan.seed)
    dialer = _FaultDialer(server, plan)
    counters = _new_resilience_counters()
    keys, values, walk = _trace_replay_parts(trace, config)
    started = wall_time.perf_counter()
    events: List[Tuple[Hashable, float, float]] = []
    walk.advance(
        config.duration + HORIZON_TOLERANCE,
        lambda key, time, value: events.append((key, time, value)),
    )
    key_of_feeder = {key: index % feeders for index, key in enumerate(keys)}
    feeder_handles: List[_ResilientFeeder] = []
    for index in range(feeders):
        owned = [key for key in keys if key_of_feeder[key] == index]
        feeder = _ResilientFeeder(
            lambda: dialer.dial("feeder"),
            owned,
            values,
            feeder_id=f"feeder-{index}",
            retry=retry,
            counters=counters,
            deadline=deadline,
        )
        await feeder.start()
        feeder_handles.append(feeder)

    updates_sent = 0

    async def run_feeder(index: int) -> None:
        nonlocal updates_sent
        feeder = feeder_handles[index]
        owned_events = [
            (key, time, value)
            for key, time, value in events
            if key_of_feeder[key] == index
        ]
        for time, updates in _batch_by_instant(owned_events):
            for key, value in updates:
                values[key] = value
            if await feeder.send_batch(updates, time):
                updates_sent += len(updates)

    latencies: List[float] = []
    queries = hits = misses = rejected = 0

    async def run_client(index: int) -> None:
        nonlocal queries, hits, misses, rejected
        workload = config.with_changes(seed=config.seed + 101 * (index + 1))
        generator = workload.build_workload(keys)
        client = _ResilientQuerier(
            lambda: dialer.dial("client"),
            retry=retry,
            counters=counters,
            deadline=deadline,
        )
        await client.start()
        try:
            for step in range(queries_per_client):
                query = generator.generate((step + 1) * config.query_period)
                begin = wall_time.perf_counter()
                response = await client.call(
                    QueryRequest(
                        keys=tuple(query.keys),
                        aggregate=query.kind,
                        constraint=query.constraint,
                    )
                )
                elapsed = wall_time.perf_counter() - begin
                queries += 1
                if response.get("overloaded"):
                    # Rejections are counted, not timed (see the
                    # deterministic loop): percentiles describe answers.
                    rejected += 1
                else:
                    latencies.append(elapsed)
                    answer = BoundedAnswer.from_wire(response)
                    hits += answer.hits
                    misses += answer.misses
                    if answer.degraded:
                        counters["degraded_answers"] += 1
                if rate > 0:
                    pace = 1.0 / rate
                    if elapsed < pace:
                        await asyncio.sleep(pace - elapsed)
        finally:
            await client.close()

    probe = await Client.from_transport(await _dial(server))
    try:
        baseline = await probe.stats()
    finally:
        await probe.close()
    feeder_tasks = [asyncio.ensure_future(run_feeder(i)) for i in range(feeders)]
    client_tasks = [asyncio.ensure_future(run_client(i)) for i in range(clients)]
    try:
        await asyncio.gather(*client_tasks)
        await asyncio.gather(*feeder_tasks)
        probe = await Client.from_transport(await _dial(server))
        try:
            stats = await probe.stats()
        finally:
            await probe.close()
    finally:
        # A failed task must not strand its siblings: cancel whatever is
        # still running and await everything before closing the feeder
        # connections out from under them.
        for task in feeder_tasks + client_tasks:
            if not task.done():
                task.cancel()
        await asyncio.gather(*feeder_tasks, *client_tasks, return_exceptions=True)
        for feeder in feeder_handles:
            await feeder.close()
    return _build_report(
        mode="concurrent",
        baseline=baseline,
        clients=clients,
        config=config,
        latencies=latencies,
        queries=queries,
        updates_sent=updates_sent,
        hits=hits,
        misses=misses,
        rejected=rejected,
        stats=stats,
        wall_seconds=wall_time.perf_counter() - started,
        counters=counters,
        plan=plan,
        faults_injected=dialer.injected(),
    )


#: Open-loop arrival shapes: how the offered rate moves over the run.
ARRIVAL_SHAPES = ("steady", "ramp", "flash")


@dataclass(frozen=True)
class OpenLoopProfile:
    """An open-loop workload: arrivals fire on schedule, never waiting.

    Closed-loop clients (``replay_trace_concurrent``) cannot overload a
    server — each connection waits for its answer, so the offered rate
    self-throttles exactly when the server slows down.  Open loop is the
    honest stress model: ``base_rate`` arrivals per wall second are drawn
    from a seeded Poisson process (thinned where the shape varies the
    rate), issued whether or not earlier queries have answered.

    * ``steady`` — constant ``base_rate``;
    * ``ramp`` — linear climb from ``base_rate`` to ``peak_rate`` across
      the run (finds the knee of the latency curve);
    * ``flash`` — ``base_rate`` with a flash crowd at ``peak_rate``
      through the middle fifth of the run (finds recovery behaviour).

    Key popularity is Zipf(``zipf_s``) over the trace's key order — the
    skew every caching paper assumes — so partitions see realistically
    unequal load.
    """

    duration_s: float = 2.0
    base_rate: float = 200.0
    peak_rate: float = 0.0
    shape: str = "steady"
    zipf_s: float = 1.1
    keys_per_query: int = 4
    aggregate: AggregateKind = AggregateKind.SUM
    constraint: float = math.inf
    seed: int = 0

    def __post_init__(self) -> None:
        if self.shape not in ARRIVAL_SHAPES:
            raise ValueError(
                f"shape must be one of {ARRIVAL_SHAPES}, not {self.shape!r}"
            )
        # Finite, or ``arrival_times`` never returns: a NaN or infinite
        # duration is never reached, and a NaN rate never advances time.
        positive("duration_s", self.duration_s, finite=True)
        positive("base_rate", self.base_rate, finite=True)
        non_negative("peak_rate", self.peak_rate, finite=True)
        non_negative("zipf_s", self.zipf_s, finite=True)
        at_least("keys_per_query", self.keys_per_query, 1, finite=True)
        non_negative("constraint", self.constraint, finite=False)

    def rate_at(self, t: float) -> float:
        """Offered arrival rate (queries/second) at wall offset ``t``."""
        peak = max(self.peak_rate, self.base_rate)
        if self.shape == "ramp":
            return self.base_rate + (peak - self.base_rate) * (
                t / self.duration_s
            )
        if self.shape == "flash":
            inside = 0.4 * self.duration_s <= t < 0.6 * self.duration_s
            return peak if inside else self.base_rate
        return self.base_rate

    def arrival_times(self) -> List[float]:
        """The seeded arrival schedule (wall offsets, ascending).

        A Poisson process at the shape's peak rate, thinned down to the
        instantaneous rate — the standard exact simulation of an
        inhomogeneous Poisson process, deterministic per seed.
        """
        rng = random.Random(f"arrivals:{self.seed}")
        peak = max(self.peak_rate, self.base_rate)
        times: List[float] = []
        t = 0.0
        while True:
            t += rng.expovariate(peak)
            if t >= self.duration_s:
                return times
            if rng.random() < self.rate_at(t) / peak:
                times.append(t)

    def pick_keys(self, keys: List[Hashable], rng: random.Random) -> List[Hashable]:
        """Draw ``keys_per_query`` distinct keys, Zipf-weighted by rank."""
        count = min(self.keys_per_query, len(keys))
        weights = [1.0 / (rank + 1) ** self.zipf_s for rank in range(len(keys))]
        chosen: List[Hashable] = []
        taken = set()
        while len(chosen) < count:
            (key,) = rng.choices(keys, weights=weights, k=1)
            if key not in taken:
                taken.add(key)
                chosen.append(key)
        return chosen


async def run_open_loop(
    server: Any,
    trace: Trace,
    config: SimulationConfig,
    *,
    profile: OpenLoopProfile,
    connections: int = 4,
    replay_updates: bool = True,
    deadline: Optional[float] = 2.0,
    fault_plan: Optional[FaultPlan] = None,
) -> LoadgenReport:
    """Fire the profile's arrival schedule at a server, open loop.

    Queries are issued at their scheduled instants as concurrent tasks
    round-robined over ``connections`` client connections — a slow answer
    never delays the next arrival, so offered load is what the profile
    says, not what the server permits.  Rejections (admission control) and
    deadline misses are counted; latency percentiles cover answered
    queries only.  One feeder registers the trace's keys and (with
    ``replay_updates``) replays the update timelines alongside the
    arrivals, so refreshes compete with queries for the server like they
    would in production.
    """
    at_least("connections", connections, 1, finite=True)
    plan = fault_plan if fault_plan is not None else FaultPlan()
    retry = RetryPolicy(seed=plan.seed)
    dialer = _FaultDialer(server, plan)
    counters = _new_resilience_counters()
    keys, values, walk = _trace_replay_parts(trace, config)
    feeder = _ResilientFeeder(
        lambda: dialer.dial("feeder"),
        keys,
        values,
        feeder_id="feeder-0",
        retry=retry,
        counters=counters,
        deadline=deadline,
    )
    await feeder.start()
    pool: List[Client] = []
    for _ in range(connections):
        pool.append(
            await Client.from_transport(
                await dialer.dial("client"), default_deadline=deadline
            )
        )
    rng = random.Random(f"open-loop-keys:{profile.seed}")
    schedule = [
        (offset, profile.pick_keys(keys, rng))
        for offset in profile.arrival_times()
    ]
    latencies: List[float] = []
    queries = updates_sent = hits = misses = rejected = 0

    async def replay_feed() -> None:
        nonlocal updates_sent
        events: List[Tuple[Hashable, float, float]] = []
        walk.advance(
            config.duration + HORIZON_TOLERANCE,
            lambda key, time, value: events.append((key, time, value)),
        )
        for time, updates in _batch_by_instant(events):
            for key, value in updates:
                values[key] = value
            if await feeder.send_batch(updates, time):
                updates_sent += len(updates)

    async def issue(client: Client, query_keys: List[Hashable]) -> None:
        nonlocal queries, hits, misses, rejected
        queries += 1
        begin = wall_time.perf_counter()
        try:
            response = await client.call(
                QueryRequest(
                    keys=tuple(query_keys),
                    aggregate=profile.aggregate,
                    constraint=profile.constraint,
                )
            )
        except DeadlineExceeded:
            counters["deadline_failures"] += 1
            return
        except (ConnectionLost, RequestRejected):
            rejected += 1
            return
        if response.get("overloaded"):
            rejected += 1
            return
        latencies.append(wall_time.perf_counter() - begin)
        answer = BoundedAnswer.from_wire(response)
        hits += answer.hits
        misses += answer.misses
        if answer.degraded:
            counters["degraded_answers"] += 1

    baseline = await pool[0].stats()
    started = wall_time.perf_counter()
    feed_task = (
        asyncio.ensure_future(replay_feed()) if replay_updates else None
    )
    tasks: List[asyncio.Task] = []
    try:
        for index, (offset, query_keys) in enumerate(schedule):
            now = wall_time.perf_counter() - started
            if offset > now:
                await asyncio.sleep(offset - now)
            tasks.append(
                asyncio.ensure_future(
                    issue(pool[index % len(pool)], query_keys)
                )
            )
        await asyncio.gather(*tasks)
        if feed_task is not None:
            await feed_task
        wall_seconds = wall_time.perf_counter() - started
        stats = await pool[0].stats()
    finally:
        for task in tasks:
            if not task.done():
                task.cancel()
        if feed_task is not None and not feed_task.done():
            feed_task.cancel()
        await asyncio.gather(
            *tasks,
            *([feed_task] if feed_task is not None else []),
            return_exceptions=True,
        )
        for client in pool:
            await client.close()
        await feeder.close()
    return _build_report(
        mode=f"open-loop/{profile.shape}",
        baseline=baseline,
        clients=connections,
        config=config,
        latencies=latencies,
        queries=queries,
        updates_sent=updates_sent,
        hits=hits,
        misses=misses,
        rejected=rejected,
        stats=stats,
        wall_seconds=wall_seconds,
        counters=counters,
        plan=plan,
        faults_injected=dialer.injected(),
    )


def _build_report(
    *,
    mode: str,
    clients: int,
    config: SimulationConfig,
    latencies: List[float],
    queries: int,
    updates_sent: int,
    hits: int,
    misses: int,
    rejected: int,
    stats: Dict[str, Any],
    wall_seconds: float,
    baseline: Optional[Dict[str, Any]] = None,
    counters: Optional[Dict[str, int]] = None,
    plan: Optional[FaultPlan] = None,
    faults_injected: Optional[Dict[str, int]] = None,
    partition_kills: int = 0,
) -> LoadgenReport:
    ordered = sorted(latencies)
    counters = counters if counters is not None else _new_resilience_counters()
    if REGISTRY.enabled:
        # Fill the client-side latency distribution once per run, after the
        # replay loop finished — never on the query hot path, and never in
        # a way the replay could read back.
        histogram = REGISTRY.histogram(
            "repro_loadgen_latency_seconds",
            "Client-observed latency of answered queries.",
            buckets=LATENCY_BUCKETS_SECONDS,
            mode=mode,
        )
        for value in latencies:
            histogram.observe(value)

    def counted(field_name: str) -> float:
        # The server's counters are all-time totals; subtracting the
        # baseline snapshot makes the report describe this run alone (a
        # persistent server may have served earlier replays).
        before = float(baseline.get(field_name, 0.0)) if baseline else 0.0
        return float(stats.get(field_name, 0.0)) - before

    total_cost = counted("total_cost")
    return LoadgenReport(
        mode=mode,
        clients=clients,
        queries=queries,
        updates_sent=updates_sent,
        hits=hits,
        misses=misses,
        value_refreshes=int(counted("value_refreshes")),
        query_refreshes=int(counted("query_refreshes")),
        queries_rejected=rejected,
        total_cost=total_cost,
        # Omega-style cost rate over the replayed (simulated) duration; the
        # server has no warm-up notion, so this is the all-time rate.
        omega=total_cost / config.duration,
        wall_seconds=wall_seconds,
        throughput_qps=(queries / wall_seconds) if wall_seconds > 0 else 0.0,
        p50_latency_ms=percentile(ordered, 0.50) * 1000.0,
        p99_latency_ms=percentile(ordered, 0.99) * 1000.0,
        max_latency_ms=(ordered[-1] * 1000.0) if ordered else 0.0,
        retries=counters["retries"],
        reconnects=counters["reconnects"],
        degraded_answers=counters["degraded_answers"],
        deadline_failures=counters["deadline_failures"],
        invariant_checks=counters["invariant_checks"],
        invariant_violations=counters["invariant_violations"],
        partition_kills=partition_kills,
        fault_plan=plan.describe() if plan is not None else "none",
        faults_injected=dict(faults_injected or {}),
        server_stats=dict(stats),
    )
