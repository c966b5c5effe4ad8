"""Partition processes: CacheServers spawned and supervised as workers.

:class:`ProcessPartitionPool` runs one :class:`~repro.serving.server.
CacheServer` per partition in its own OS process, using the same
:class:`~repro.experiments.runner.WorkerHandle` process management the
parallel experiment runner uses (spawn, duplex pipe, join → terminate →
kill escalation).  Each worker binds an ephemeral TCP port and reports it
over the pipe; the pool exposes ``tcp://`` targets the gateway dials.

The pool is deliberately dumb: it owns *processes*, not protocol state.
Restart replaces a dead worker with a fresh empty server on a new port —
re-populating it (the key/value mirror replay, feeder re-registration) is
the gateway's job (:meth:`GatewayServer.resync_partition`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.checks import at_least, positive
from repro.experiments.runner import WorkerHandle
from repro.serving.errors import SupervisionExhausted

DEFAULT_START_TIMEOUT = 30.0

#: Per-worker restart budget before the pool gives up on a partition.
DEFAULT_MAX_RESTARTS = 16


def _configure_observability(
    spec: Dict[str, Any], role: str, partition: Optional[int] = None
) -> None:
    """Arm the child process's observability from its (picklable) spec.

    Spec keys — all optional, all off by default so a bare spec behaves
    exactly as before:

    * ``metrics`` — enable the process metrics registry, stamped with
      ``role`` (and ``partition``) constant labels so the gateway's merged
      snapshot keeps each process's series distinct.
    * ``trace`` / ``flightrec_dir`` — enable the deterministic tracer; with
      a directory, crashes dump the span ring as ``*.flightrec.json``.
    * ``log_level`` / ``log_file`` — JSON-lines logging carrying the run
      seed and this process's identity.  Partitions write per-partition
      files (``run.log`` → ``run.partition2.log``) so concurrent writers
      never interleave.
    """
    if spec.get("metrics"):
        from repro.obs.metrics import REGISTRY

        REGISTRY.enable()
        if partition is None:
            REGISTRY.set_constant_labels(role=role)
        else:
            REGISTRY.set_constant_labels(role=role, partition=str(partition))
    if spec.get("trace") or spec.get("flightrec_dir"):
        from repro.obs.trace import configure_tracer

        configure_tracer(
            role=role if partition is None else f"{role}{partition}",
            enabled=True,
            flightrec_dir=spec.get("flightrec_dir"),
        )
    if spec.get("log_level") or spec.get("log_file"):
        from pathlib import Path

        from repro.obs.logging import configure_logging

        log_file = spec.get("log_file")
        if log_file and partition is not None:
            path = Path(log_file)
            log_file = str(
                path.with_name(f"{path.stem}.{role}{partition}{path.suffix}")
            )
        configure_logging(
            spec.get("log_level") or "warning",
            log_file,
            seed=spec.get("seed"),
            role=role,
            partition=partition,
        )


def partition_worker(connection: Any, spec: Dict[str, Any]) -> None:
    """Child-process entry: serve one partition until the pipe says stop.

    ``spec`` carries only picklable primitives; the policy is rebuilt
    in-process from the shared :func:`~repro.experiments.workloads.
    serving_policy` construction, so a partition behind a gateway runs
    exactly the policy a single ``repro serve`` would.
    """
    import asyncio

    asyncio.run(_serve_partition(connection, spec))


def gateway_worker(connection: Any, spec: Dict[str, Any]) -> None:
    """Child-process entry: a gateway fronting its own partition pool.

    This is the whole ``repro serve --role gateway`` deployment in one
    child process — the gateway spawns ``spec["partitions"]`` partition
    grandchildren, supervises them, and reports its public TCP port over
    the pipe.  The serving-throughput sweep uses it so the deployment
    competes on its own cores instead of sharing the load generator's
    interpreter.
    """
    import asyncio
    import multiprocessing

    # WorkerHandle spawns daemonic children, and daemonic processes may
    # not have children of their own — clear the flag so this deployment
    # can spawn its partition pool.
    multiprocessing.current_process().daemon = False
    asyncio.run(_serve_gateway(connection, spec))


async def _serve_gateway(connection: Any, spec: Dict[str, Any]) -> None:
    import asyncio

    from repro.serving.gateway import GatewayServer

    _configure_observability(spec, "gateway")
    # With explicit ``targets`` the gateway fronts partitions somebody
    # else owns — the scaled-edge topology, where several stateless
    # gateway processes share one partition pool.  Without them it
    # spawns (and supervises) a private pool: the self-contained
    # ``repro serve --role gateway`` deployment.
    targets = spec.get("targets")
    pool = None if targets else ProcessPartitionPool(spec.get("partitions", 1), spec)
    loop = asyncio.get_running_loop()
    try:
        if pool is not None:
            targets = await loop.run_in_executor(None, pool.start)
        gateway = GatewayServer(
            targets,
            pool=pool,
            max_inflight_queries=spec.get("max_inflight", 64),
        )
        await gateway.start()
        tcp = await gateway.start_tcp(spec.get("host", "127.0.0.1"), 0)
        if pool is not None:
            gateway.start_supervisor()
        connection.send({"port": tcp.sockets[0].getsockname()[1]})
        try:
            await loop.run_in_executor(None, connection.recv)
        except (EOFError, OSError):
            pass
        await gateway.close()
    finally:
        if pool is not None:
            await loop.run_in_executor(None, pool.stop)


def _spec_durability(spec: Dict[str, Any]) -> Optional[Any]:
    """Build the partition's durability layer from its spec, when asked.

    ``wal_dir`` switches durability on; ``checkpoint_every`` and
    ``wal_fsync`` tune it.  The WAL files are keyed by ``partition_index``
    so a pool's partitions share one directory.
    """
    wal_dir = spec.get("wal_dir")
    if not wal_dir:
        return None
    from repro.serving.durability import (
        DEFAULT_CHECKPOINT_EVERY,
        PartitionDurability,
    )

    return PartitionDurability(
        wal_dir,
        spec.get("partition_index", 0),
        checkpoint_every=spec.get("checkpoint_every", DEFAULT_CHECKPOINT_EVERY),
        fsync=spec.get("wal_fsync", "checkpoint"),
    )


async def _serve_partition(connection: Any, spec: Dict[str, Any]) -> None:
    from repro.experiments.workloads import serving_policy
    from repro.obs.trace import crash_dump_scope
    from repro.serving.server import CacheServer

    _configure_observability(
        spec, "partition", partition=spec.get("partition_index", 0)
    )
    policy = serving_policy(
        cost_factor=spec.get("cost_factor", 1.0), seed=spec.get("seed", 0)
    )
    # The whole serve lifetime sits inside the crash-dump scope: an
    # exception escaping the partition leaves its span ring behind as a
    # ``*.flightrec.json`` (no-op unless the spec set ``flightrec_dir``).
    with crash_dump_scope("crash"):
        # Recovery happens inside the constructor: a restarted partition
        # replays its snapshot+WAL through the live apply paths *before*
        # the port report below, so the gateway never dials a
        # half-recovered server.
        server = CacheServer(
            policy,
            capacity=spec.get("capacity"),
            max_inflight_queries=spec.get("max_inflight", 64),
            durability=_spec_durability(spec),
        )
        tcp = await server.start_tcp(spec.get("host", "127.0.0.1"), 0)
        port = tcp.sockets[0].getsockname()[1]
        from repro.obs.logging import get_logger

        get_logger("serving.procs").info(
            "partition serving",
            extra={"fields": {"port": port, "wal": bool(spec.get("wal_dir"))}},
        )
        connection.send({"port": port})
        import asyncio

        loop = asyncio.get_running_loop()
        try:
            # Any message — or EOF/reset when the parent dies — is the
            # stop signal.
            await loop.run_in_executor(None, connection.recv)
        except (EOFError, OSError):
            pass
        await server.close()


class ProcessPartitionPool:
    """N partition CacheServer processes behind ``tcp://`` targets.

    ``start()`` spawns every worker and blocks until each has reported its
    listening port; ``restart(index)`` replaces one worker (fresh process,
    fresh port) and returns the new target.  Use as a context manager so
    no partition outlives its pool.
    """

    def __init__(
        self,
        partitions: int,
        spec: Optional[Dict[str, Any]] = None,
        *,
        start_timeout: float = DEFAULT_START_TIMEOUT,
        max_restarts: int = DEFAULT_MAX_RESTARTS,
    ) -> None:
        at_least("partitions", partitions, 1, finite=True)
        self._max_restarts = at_least("max_restarts", max_restarts, 0, finite=True)
        self._spec = dict(spec or {})
        self._workers: List[WorkerHandle] = [
            WorkerHandle(index, partition_worker, (self._make_spec(index),))
            for index in range(partitions)
        ]
        self._ports: List[Optional[int]] = [None] * partitions
        self._start_timeout = positive("start_timeout", start_timeout, finite=True)

    def _make_spec(self, index: int) -> Dict[str, Any]:
        spec = dict(self._spec)
        # Partition servers must make identical policy decisions for a key
        # wherever it lands, so every partition shares the pool's seed.
        spec.setdefault("seed", 0)
        spec["partition_index"] = index
        return spec

    @property
    def partition_count(self) -> int:
        return len(self._workers)

    def __enter__(self) -> "ProcessPartitionPool":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def start(self) -> List[str]:
        """Spawn every worker; return their ``tcp://`` targets."""
        for worker in self._workers:
            worker.start()
        for index, worker in enumerate(self._workers):
            self._ports[index] = self._await_port(worker)
        return self.targets()

    def _await_port(self, worker: WorkerHandle) -> int:
        if worker.connection is not None and not worker.connection.poll(
            self._start_timeout
        ):
            raise TimeoutError(
                f"partition {worker.index} did not report its port within "
                f"{self._start_timeout:g}s"
            )
        return int(worker.recv()["port"])

    def target(self, index: int) -> str:
        port = self._ports[index]
        if port is None:
            raise RuntimeError(f"partition {index} is not started")
        return f"tcp://{self._spec.get('host', '127.0.0.1')}:{port}"

    def targets(self) -> List[str]:
        return [self.target(index) for index in range(len(self._workers))]

    def is_alive(self, index: int) -> bool:
        return self._workers[index].is_alive()

    def restart(self, index: int, grace: float = 5.0) -> str:
        """Replace worker ``index`` with a fresh process; return its target.

        Safe to call from an executor thread (the gateway's supervisor
        does): it only touches this worker's handle and port slot.  A
        fresh process that exits before reporting its port (its recovery
        raised, e.g. :class:`~repro.serving.errors.UnrecoverablePartition`)
        counts as one more failed restart.  Raises
        :class:`~repro.serving.errors.SupervisionExhausted` once the
        worker has burned through its restart budget — the caller (the
        gateway) then downgrades the partition to permanent-degraded
        instead of restarting it forever.
        """
        worker = self._workers[index]
        while worker.restarts < self._max_restarts:
            worker.restart(grace=grace)
            try:
                self._ports[index] = self._await_port(worker)
            except EOFError:
                continue
            return self.target(index)
        raise SupervisionExhausted(
            f"partition {index} died {worker.restarts + 1} times; "
            f"restart budget ({self._max_restarts}) exhausted, giving up",
            index=index,
            crashes=self.crash_history(),
        )

    @property
    def restarts(self) -> int:
        return sum(worker.restarts for worker in self._workers)

    def crash_history(self) -> Dict[int, int]:
        """Restart count per worker index (the supervision audit trail)."""
        return {worker.index: worker.restarts for worker in self._workers}

    def worker_restarts(self, index: int) -> int:
        return self._workers[index].restarts

    def kill(self, index: int) -> None:
        """Hard-kill one worker (tests simulate partition crashes with this)."""
        worker = self._workers[index]
        if worker.process is not None:
            worker.process.kill()
            worker.process.join(timeout=5.0)

    def stop(self, grace: float = 5.0) -> None:
        """Stop every worker: close pipes (EOF = stop), then escalate."""
        for worker in self._workers:
            worker.close_connection()
        for worker in self._workers:
            worker.stop(grace=grace)


class ServerProcess:
    """A whole serving deployment in one child process, behind a target.

    ``role="single"`` runs one :class:`CacheServer`; ``role="gateway"``
    runs a :class:`GatewayServer` that spawns its own partition pool
    (``spec["partitions"]`` grandchildren).  Either way ``start()`` blocks
    until the deployment reports its public port and returns a ``tcp://``
    target, so benchmarks can dial single-server and partitioned
    deployments through the identical client path.
    """

    def __init__(
        self,
        role: str = "single",
        spec: Optional[Dict[str, Any]] = None,
        *,
        start_timeout: float = DEFAULT_START_TIMEOUT,
    ) -> None:
        if role not in ("single", "gateway"):
            raise ValueError(f"role must be 'single' or 'gateway', not {role!r}")
        entry = partition_worker if role == "single" else gateway_worker
        self._spec = dict(spec or {})
        self._spec.setdefault("seed", 0)
        self._worker = WorkerHandle(0, entry, (self._spec,))
        self._start_timeout = positive("start_timeout", start_timeout, finite=True)
        self._port: Optional[int] = None

    def __enter__(self) -> str:
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def start(self) -> str:
        self._worker.start()
        if self._worker.connection is not None and not self._worker.connection.poll(
            self._start_timeout
        ):
            raise TimeoutError(
                f"serving deployment did not report its port within "
                f"{self._start_timeout:g}s"
            )
        self._port = int(self._worker.recv()["port"])
        return self.target()

    def target(self) -> str:
        if self._port is None:
            raise RuntimeError("deployment is not started")
        return f"tcp://{self._spec.get('host', '127.0.0.1')}:{self._port}"

    def is_alive(self) -> bool:
        return self._worker.is_alive()

    def stop(self, grace: float = 10.0) -> None:
        self._worker.close_connection()
        self._worker.stop(grace=grace)
