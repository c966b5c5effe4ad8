"""Serving-layer throughput sweep: concurrent clients on the loopback server.

Not a paper reproduction — this experiment characterises the online serving
layer (:mod:`repro.serving`) the production-scale roadmap adds on top of the
reproduced algorithm.  For each client count, a fresh
:class:`~repro.serving.server.CacheServer` hosts the network-monitoring
workload's adaptive policy, feeders replay the synthetic traffic trace over
the in-process loopback transport, and N concurrent query connections issue
bounded aggregates as fast as responses return.  The table records, per
client count:

* ``queries`` / ``qps(wall)`` — completed queries and wall-clock throughput;
* ``p50_ms`` / ``p99_ms`` — client-observed query latency percentiles;
* ``hit_rate`` — the workload hit rate at the server's cache;
* ``v_refresh`` / ``q_refresh`` — refreshes by kind (query-initiated ones
  ride the refresh RPC back to the owning feeder connection);
* ``rejected`` — queries refused by admission control;
* ``Omega`` — the refresh cost rate over the replayed trace duration.

The module also hosts the partitioned-deployment sweep
(``serving_partition_sweep``): whole ``repro serve`` topologies — a single
server, a gateway with its partition pool, and several stateless gateways
sharing one pool — each spawned as real OS processes and driven open loop
over TCP at a curve of offered rates, reporting goodput, p50/p99/max
latency and the rejection curve per process count.

Unlike the reproduction tables, wall-clock columns depend on the host
machine: the rows are *characterisation*, not committed-output material, so
this experiment carries no parallel plan and is excluded from byte-identity
CI diffs (like the microbenchmarks in ``benchmarks/``).
"""

from __future__ import annotations

import asyncio
import os
from typing import List, Sequence, Tuple

from repro.experiments.base import ExperimentResult
from repro.experiments.workloads import (
    serving_config,
    serving_policy,
    traffic_trace,
)
from repro.serving.loadgen import (
    MultiTargetDialer,
    OpenLoopProfile,
    dialer_for_target,
    replay_trace_concurrent,
    run_open_loop,
)
from repro.serving.procs import ProcessPartitionPool, ServerProcess
from repro.serving.server import CacheServer

DEFAULT_HOST_COUNT = 25
DEFAULT_DURATION = 300
DEFAULT_CLIENT_COUNTS: Tuple[int, ...] = (1, 2, 4, 8)
DEFAULT_QUERIES_PER_CLIENT = 150

#: (label, partitions, edge gateways) — partitions 0 means one plain
#: CacheServer process with no gateway in front of it.
DEFAULT_DEPLOYMENTS: Tuple[Tuple[str, int, int], ...] = (
    ("single", 0, 0),
    ("gw p1", 1, 1),
    ("gw p2", 2, 1),
    ("gw p4", 4, 1),
    ("gw p4 e4", 4, 4),
)
DEFAULT_OFFERED_RATES: Tuple[float, ...] = (500.0, 1500.0, 3000.0)
DEFAULT_SWEEP_SECONDS = 2.5
DEFAULT_KEYS_PER_QUERY = 20
DEFAULT_SWEEP_CONSTRAINT = 1e9


def serving_row(
    clients: int,
    host_count: int,
    duration: int,
    queries_per_client: int,
    seed: int,
    engine: str = "reference",
) -> Tuple:
    """Measure one client count against a fresh loopback server."""
    trace = traffic_trace(host_count=host_count, duration=duration, engine=engine)
    config = serving_config(trace, seed=seed, engine=engine)

    async def drive():
        server = CacheServer(
            serving_policy(cost_factor=1.0, seed=seed),
            value_refresh_cost=config.value_refresh_cost,
            query_refresh_cost=config.query_refresh_cost,
        )
        try:
            return await replay_trace_concurrent(
                server,
                trace,
                config,
                clients=clients,
                queries_per_client=queries_per_client,
                feeders=min(2, host_count),
            )
        finally:
            await server.close()

    report = asyncio.run(drive())
    return (
        clients,
        report.queries,
        report.throughput_qps,
        report.p50_latency_ms,
        report.p99_latency_ms,
        report.hit_rate,
        report.value_refreshes,
        report.query_refreshes,
        report.queries_rejected,
        report.omega,
    )


def run(
    client_counts: Sequence[int] = DEFAULT_CLIENT_COUNTS,
    host_count: int = DEFAULT_HOST_COUNT,
    duration: int = DEFAULT_DURATION,
    queries_per_client: int = DEFAULT_QUERIES_PER_CLIENT,
    seed: int = 11,
    engine: str = "reference",
) -> ExperimentResult:
    """Sweep concurrent client counts on the loopback serving stack."""
    rows = [
        serving_row(
            clients=clients,
            host_count=host_count,
            duration=duration,
            queries_per_client=queries_per_client,
            seed=seed,
            engine=engine,
        )
        for clients in client_counts
    ]
    return ExperimentResult(
        experiment_id="serving_throughput",
        title="Online serving layer: concurrent clients on the loopback server",
        columns=(
            "clients",
            "queries",
            "qps(wall)",
            "p50_ms",
            "p99_ms",
            "hit_rate",
            "v_refresh",
            "q_refresh",
            "rejected",
            "Omega",
        ),
        rows=rows,
        notes=(
            "Wall-clock columns (qps, latency percentiles) depend on the host "
            "machine; refresh counts and hit rates are deterministic per seed. "
            "Each row replays the same trace against a fresh server over the "
            "in-process loopback transport."
        ),
    )


def _sweep_deployment(
    partitions: int, edges: int, seed: int, max_inflight: int
) -> Tuple[List[object], object]:
    """Spawn one deployment; return (processes to stop, dial target)."""
    spec = {"seed": seed, "max_inflight": max_inflight}
    if partitions == 0:
        server = ServerProcess("single", spec)
        return [server], dialer_for_target(server.start())
    if edges <= 1:
        server = ServerProcess("gateway", dict(spec, partitions=partitions))
        return [server], dialer_for_target(server.start())
    # Scaled edge: one shared partition pool, ``edges`` stateless gateway
    # processes in front of it, client connections spread round-robin.
    pool = ProcessPartitionPool(partitions, spec)
    stack: List[object] = [pool]
    try:
        targets = pool.start()
        gateways = [
            ServerProcess("gateway", dict(spec, targets=targets))
            for _ in range(edges)
        ]
        stack.extend(gateways)
        return stack, MultiTargetDialer([gateway.start() for gateway in gateways])
    except BaseException:
        _stop_stack(stack)
        raise


def _stop_stack(stack: Sequence[object]) -> None:
    for process in reversed(list(stack)):
        process.stop()


def partition_sweep_row(
    label: str,
    partitions: int,
    edges: int,
    offered_rate: float,
    *,
    host_count: int,
    duration: int,
    sweep_seconds: float,
    keys_per_query: int,
    constraint: float,
    connections: int,
    seed: int,
) -> Tuple:
    """Offered-load point for one deployment: goodput, latency, rejections."""
    trace = traffic_trace(host_count=host_count, duration=duration)
    config = serving_config(trace, seed=seed)
    # Ramping into the offered rate warms the cache before peak load, so
    # the row measures steady serving rather than the cold-start refresh
    # storm (every key's first query forces a feeder round-trip).
    profile = OpenLoopProfile(
        duration_s=sweep_seconds,
        base_rate=max(offered_rate / 10.0, 50.0),
        peak_rate=offered_rate,
        shape="ramp",
        keys_per_query=min(keys_per_query, host_count),
        constraint=constraint,
        seed=seed,
    )
    stack, target = _sweep_deployment(partitions, edges, seed, max_inflight=256)
    try:

        async def drive():
            return await run_open_loop(
                target,
                trace,
                config,
                profile=profile,
                connections=connections,
                deadline=5.0,
            )

        report = asyncio.run(drive())
    finally:
        _stop_stack(stack)
    answered = report.queries - report.queries_rejected - report.deadline_failures
    processes = 1 if partitions == 0 else partitions + edges
    return (
        label,
        processes,
        offered_rate,
        report.queries,
        answered,
        answered / report.wall_seconds if report.wall_seconds else 0.0,
        report.p50_latency_ms,
        report.p99_latency_ms,
        report.max_latency_ms,
        report.queries_rejected,
        report.deadline_failures,
    )


def run_partition_sweep(
    deployments: Sequence[Tuple[str, int, int]] = DEFAULT_DEPLOYMENTS,
    offered_rates: Sequence[float] = DEFAULT_OFFERED_RATES,
    host_count: int = 100,
    duration: int = 120,
    sweep_seconds: float = DEFAULT_SWEEP_SECONDS,
    keys_per_query: int = DEFAULT_KEYS_PER_QUERY,
    constraint: float = DEFAULT_SWEEP_CONSTRAINT,
    connections: int = 8,
    seed: int = 11,
) -> ExperimentResult:
    """Sweep process counts: deployments × offered rates, open loop over TCP.

    Every deployment runs in its own OS process(es) — a plain
    ``CacheServer``, a gateway that spawns its partition pool, or several
    stateless gateways sharing one pool — and the load generator dials it
    over real sockets, so the rows compare what ``repro serve`` topologies
    actually deliver.  Rejected and deadline-missed queries are excluded
    from the latency percentiles; the ``rejected`` column against
    ``offered_qps`` is the rejection curve per process count.
    """
    rows = [
        partition_sweep_row(
            label,
            partitions,
            edges,
            rate,
            host_count=host_count,
            duration=duration,
            sweep_seconds=sweep_seconds,
            keys_per_query=keys_per_query,
            constraint=constraint,
            connections=connections,
            seed=seed,
        )
        for label, partitions, edges in deployments
        for rate in offered_rates
    ]
    cores = os.cpu_count() or 1
    scaling_note = (
        "Multi-process rows can only beat the single server when the host "
        f"grants them real parallelism; this run saw {cores} CPU core(s)"
        + (
            ", so every extra process merely time-slices one core and the "
            "gateway hop is pure overhead — the sweep then measures that "
            "overhead, not scaling."
            if cores < 2
            else "."
        )
    )
    return ExperimentResult(
        experiment_id="serving_partition_sweep",
        title="Partitioned serving: process-count sweep, open-loop over TCP",
        columns=(
            "deployment",
            "procs",
            "offered_qps",
            "queries",
            "answered",
            "goodput_qps",
            "p50_ms",
            "p99_ms",
            "max_ms",
            "rejected",
            "deadline_miss",
        ),
        rows=rows,
        notes=(
            "Open-loop arrivals ramp to the offered rate (Zipf key "
            "popularity); latency percentiles cover answered queries only. "
            + scaling_note
        ),
    )
