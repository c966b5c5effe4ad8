"""Command-line interface: run any reproduced experiment and print its table.

Usage::

    python -m repro.cli list
    python -m repro.cli run figure03
    python -m repro.cli run figure07_09 --workers 4
    python -m repro.cli run figure03 --profile figure03.prof
    python -m repro.cli run-all --workers 4

``--workers N`` fans the multi-configuration experiments out over N worker
processes through :mod:`repro.experiments.runner`; the printed tables are
identical to sequential runs (every sub-run is deterministically seeded).
Experiments without a parallel plan simply run sequentially.

``--profile FILE`` dumps a :mod:`cProfile` of the run to ``FILE``
(``run-all`` derives one file per experiment from it; with ``--workers``
pools only the parent process is profiled).

Every simulation runs on the merged-timeline batch kernel
(:mod:`repro.simulation.kernel`) over the per-object state layout, fed by
the one seeded data plane (:mod:`repro.data`).

The serving layer (:mod:`repro.serving`) adds two more commands::

    python -m repro.cli serve --port 7411
    python -m repro.cli serve --role gateway --partitions 4 --http-port 7412
    python -m repro.cli loadgen --mode deterministic --compare-offline
    python -m repro.cli loadgen --clients 8 --feeders 2 --constraint 1e9
    python -m repro.cli loadgen --mode open-loop --shape flash --peak-rate 800
    python -m repro.cli loadgen --target tcp://127.0.0.1:7411

``serve`` hosts an approximate cache behind the length-prefixed JSON
protocol on TCP.  ``--role single`` (default) is one
:class:`~repro.serving.server.CacheServer`; ``--role gateway`` spawns
``--partitions N`` CacheServer worker processes and fronts them with the
routing :class:`~repro.serving.gateway.GatewayServer` (same wire surface,
supervised restarts).  ``--http-port P`` additionally serves the HTTP
edge (:mod:`repro.serving.http`: ``GET /metrics`` and ``GET /healthz``) on
the same backend.

``loadgen`` replays the synthetic monitoring trace against an in-process
server (the default; ``--partitions N`` fronts it with an in-process
gateway) or a remote target, ``--target tcp://host:port``.  It prints
hit rate, refresh counts, latency percentiles and throughput.
``--compare-offline`` additionally runs the equivalent offline simulation
and fails unless the refresh counts, hit rate, total cost and query count
match exactly (deterministic mode only).  ``--mode open-loop`` (the
default) fires a seeded Poisson arrival schedule (``--shape
steady|ramp|flash``, ``--rate``, Zipf key popularity) over ``--clients``
connections that never wait for answers — the honest overload model,
where rejections and deadline misses are counted instead of throttling
the offered rate — while ``--feeders`` connections split the keys and
replay their updates.  Counts and rates are checked as they are parsed:
``--clients 0`` or ``--rate -5`` is a usage error (exit 2).

``--fault-plan`` turns either loadgen mode into a chaos run: transports
drop, truncate, delay and reorder frames on a seeded, replayable schedule
(:mod:`repro.serving.faults`), feeders are killed and reconnect-and-resync,
the deterministic querier retries with backoff.  ``--check-invariant``
(deterministic mode) audits every answer against the ground-truth
aggregate and exits non-zero if any returned interval excludes it — the
paper's containment guarantee, verified under fire.

``serve --wal-dir DIR`` makes partition state durable: every mutating op
is appended to a per-partition write-ahead log and periodically folded
into a snapshot checkpoint (``--checkpoint-every``, ``--wal-fsync``); a
SIGKILLed partition replays snapshot+WAL on restart and recovers its
exact state (:mod:`repro.serving.durability`).  ``loadgen
--partition-procs N`` drives that path end to end: a supervised gateway
over N durable partition *processes*, which a fault plan with
``part_kill_every`` SIGKILLs mid-run — the replayed report must stay
byte-identical to an uninterrupted one.

Observability (:mod:`repro.obs`) is off by default and shared by ``serve``
and ``loadgen``: ``--metrics`` enables the process metrics registry
(scrapeable as Prometheus text via ``GET /metrics`` on the HTTP edge and
the ``metrics`` protocol op, merged across partitions at the gateway),
``--trace`` the deterministic span tracer, ``--flightrec-dir DIR`` crash
flight-recorder dumps (``*.flightrec.json``), and ``--log-level`` /
``--log-file`` JSON-lines logging stamped with seed, role and partition.
All five reach spawned partition processes.  ``repro obs SOURCE``
pretty-prints a metrics exposition — from a scrape URL
(``http://host:port/metrics``), a ``host:port`` shorthand, or a saved
text file — optionally summing away label dimensions (``--aggregate``)::

    python -m repro.cli serve --role gateway --partitions 4 \
        --http-port 7412 --metrics
    python -m repro.cli obs http://127.0.0.1:7412/metrics
    python -m repro.cli obs 127.0.0.1:7412 --aggregate partition
"""

from __future__ import annotations

import argparse
import asyncio
import importlib.metadata
import math
import os
import sys
from typing import Any, Callable, Dict, List, Optional

from repro.core.checks import at_least, in_range, non_negative, positive
from repro.experiments.base import ExperimentResult, format_table, registry
from repro.serving.durability import DEFAULT_CHECKPOINT_EVERY, FSYNC_POLICIES
from repro.experiments.runner import plan_registry, run_plan


def _package_version() -> str:
    """The installed package version, falling back to the module constant."""
    try:
        return importlib.metadata.version("repro-adaptive-precision")
    except importlib.metadata.PackageNotFoundError:
        import repro

        return repro.__version__


def real(text: str) -> float:
    """A float flag's value.  ``float`` parses ``nan``, which every sign
    test downstream would have to catch, so the parser refuses it here."""
    value = float(text)
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    return value


def checked(
    parse: Callable[[str], Any], check: Callable[..., Any], *bounds: Any
) -> Callable[[str], Any]:
    """A flag converter: ``parse`` the text, then hold it to a
    :mod:`repro.core.checks` rule (finite), so a refused value is a usage
    error (exit 2) rather than a traceback from inside the run."""

    def convert(text: str) -> Any:
        value = parse(text)
        try:
            return check("the value", value, *bounds, finite=True)
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error)) from None

    convert.__name__ = parse.__name__
    return convert


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Adaptive Precision Setting for Cached Approximate "
            "Values' (Olston, Loo, Widom, SIGMOD 2001)"
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {_package_version()}",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list the available experiments")
    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", help="experiment id (see 'list')")
    run_all_parser = subparsers.add_parser(
        "run-all", help="run every experiment (may take a while)"
    )
    for subparser in (run_parser, run_all_parser):
        subparser.add_argument(
            "--workers",
            type=int,
            default=None,
            help="fan independent sub-runs out over this many processes",
        )
        subparser.add_argument(
            "--profile",
            default=None,
            metavar="FILE",
            help=(
                "dump a cProfile of the run to FILE (run-all derives one "
                "file per experiment; --workers pools profile the parent "
                "process only)"
            ),
        )
    def _add_obs_arguments(subparser: argparse.ArgumentParser) -> None:
        """The shared observability flags (``serve`` and ``loadgen``)."""
        subparser.add_argument(
            "--metrics",
            action="store_true",
            help=(
                "enable the process metrics registry (scrape via GET "
                "/metrics on the HTTP edge or the 'metrics' protocol op; "
                "spawned partitions inherit it)"
            ),
        )
        subparser.add_argument(
            "--trace",
            action="store_true",
            help=(
                "record deterministic trace spans (span ids derive from "
                "connection/frame ordinals, never the clock)"
            ),
        )
        subparser.add_argument(
            "--flightrec-dir",
            default=None,
            dest="flightrec_dir",
            metavar="DIR",
            help=(
                "dump the span ring as DIR/<role>-<detail>.flightrec.json "
                "on crashes and partition outages (implies --trace)"
            ),
        )
        subparser.add_argument(
            "--log-level",
            choices=("critical", "error", "warning", "info", "debug"),
            default=None,
            dest="log_level",
            help="emit JSON-lines logs at this level (default: logging off)",
        )
        subparser.add_argument(
            "--log-file",
            default=None,
            dest="log_file",
            metavar="FILE",
            help=(
                "write JSON-lines logs to FILE instead of stderr "
                "(partitions write FILE with a .partitionN suffix)"
            ),
        )

    serve_parser = subparsers.add_parser(
        "serve", help="host an approximate-cache server over TCP"
    )
    _add_obs_arguments(serve_parser)
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=checked(int, in_range, 0, 65535), default=7411
    )
    serve_parser.add_argument(
        "--role",
        choices=("single", "gateway"),
        default="single",
        help=(
            "deployment role: 'single' is one cache server (default), "
            "'gateway' fronts --partitions supervised CacheServer "
            "processes"
        ),
    )
    serve_parser.add_argument(
        "--partitions",
        type=int,
        default=1,
        help="partition processes behind the gateway (gateway role only)",
    )
    serve_parser.add_argument(
        "--http-port",
        type=checked(int, in_range, 0, 65535),
        default=None,
        dest="http_port",
        help="also serve the HTTP edge (GET /metrics, GET /healthz) on this port",
    )
    serve_parser.add_argument(
        "--capacity", type=int, default=None, help="cache capacity kappa"
    )
    serve_parser.add_argument(
        "--cost-factor", type=real, default=1.0, dest="cost_factor"
    )
    serve_parser.add_argument("--seed", type=int, default=0)
    serve_parser.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        dest="max_inflight",
        help="admission control: maximum concurrently executing queries",
    )
    serve_parser.add_argument(
        "--wal-dir",
        default=None,
        dest="wal_dir",
        metavar="DIR",
        help=(
            "make partition state durable: write-ahead log + snapshot "
            "checkpoints under DIR, replayed on restart (default: no WAL)"
        ),
    )
    serve_parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=DEFAULT_CHECKPOINT_EVERY,
        dest="checkpoint_every",
        metavar="N",
        help="fold the WAL into a snapshot every N records (with --wal-dir)",
    )
    serve_parser.add_argument(
        "--wal-fsync",
        choices=FSYNC_POLICIES,
        default="checkpoint",
        dest="wal_fsync",
        help=(
            "WAL fsync policy: 'always' fsyncs every record (power-loss "
            "safe), 'checkpoint' flushes per record and fsyncs at "
            "checkpoints (crash-safe, the default), 'never' leaves "
            "flushing to the OS"
        ),
    )
    loadgen_parser = subparsers.add_parser(
        "loadgen", help="replay the monitoring trace against a serving stack"
    )
    _add_obs_arguments(loadgen_parser)
    loadgen_parser.add_argument(
        "--mode",
        choices=("deterministic", "open-loop"),
        default="open-loop",
    )
    loadgen_parser.add_argument(
        "--hosts", type=checked(int, at_least, 1), default=25
    )
    loadgen_parser.add_argument(
        "--duration",
        type=checked(int, at_least, 2),
        default=300,
        help="trace length in seconds, at least 2",
    )
    loadgen_parser.add_argument(
        "--clients",
        type=checked(int, at_least, 1),
        default=4,
        help="query connections, at least 1 (open-loop mode)",
    )
    loadgen_parser.add_argument(
        "--rate",
        type=checked(real, non_negative),
        default=0.0,
        help=(
            "open-loop base arrival rate in queries/s, non-negative "
            "(0, the default, means 200/s)"
        ),
    )
    loadgen_parser.add_argument(
        "--feeders",
        type=checked(int, at_least, 1),
        default=1,
        help="feeder connections splitting the keys, at least 1 (open-loop mode)",
    )
    loadgen_parser.add_argument("--seed", type=int, default=5)
    loadgen_parser.add_argument(
        "--target",
        default=None,
        metavar="URL",
        help=(
            "drive a remote 'repro serve' by URL (tcp://host:port) "
            "instead of an in-process server"
        ),
    )
    loadgen_parser.add_argument(
        "--partitions",
        type=checked(int, at_least, 1),
        default=1,
        help=(
            "front the in-process server with a gateway over this many "
            "in-process partitions (no --target)"
        ),
    )
    loadgen_parser.add_argument(
        "--partition-procs",
        type=checked(int, non_negative),
        default=0,
        dest="partition_procs",
        help=(
            "front the replay with a supervised gateway over this many "
            "partition *processes* (deterministic mode; required for "
            "fault-plan partition kills; no --target)"
        ),
    )
    loadgen_parser.add_argument(
        "--wal-dir",
        default=None,
        dest="wal_dir",
        metavar="DIR",
        help=(
            "WAL + checkpoint directory for --partition-procs (default: "
            "a fresh temporary directory)"
        ),
    )
    loadgen_parser.add_argument(
        "--checkpoint-every",
        type=checked(int, at_least, 1),
        default=DEFAULT_CHECKPOINT_EVERY,
        dest="checkpoint_every",
        metavar="N",
        help="checkpoint cadence for --partition-procs WALs, at least 1",
    )
    loadgen_parser.add_argument(
        "--wal-fsync",
        choices=FSYNC_POLICIES,
        default="checkpoint",
        dest="wal_fsync",
        help="WAL fsync policy for --partition-procs (see 'serve')",
    )
    loadgen_parser.add_argument(
        "--shape",
        choices=("steady", "ramp", "flash"),
        default="steady",
        help="open-loop arrival shape (open-loop mode)",
    )
    loadgen_parser.add_argument(
        "--peak-rate",
        type=real,
        default=0.0,
        dest="peak_rate",
        help="peak queries/s for ramp and flash shapes (open-loop mode)",
    )
    loadgen_parser.add_argument(
        "--zipf-s",
        type=real,
        default=1.1,
        dest="zipf_s",
        help="Zipf skew of key popularity (open-loop mode)",
    )
    loadgen_parser.add_argument(
        "--open-duration",
        type=real,
        default=2.0,
        dest="open_duration",
        help="open-loop run length in wall seconds (open-loop mode)",
    )
    loadgen_parser.add_argument(
        "--constraint",
        type=real,
        default=float("inf"),
        help=(
            "precision constraint per open-loop query (interval width "
            "bound; inf = any precision, i.e. never refresh)"
        ),
    )
    loadgen_parser.add_argument(
        "--compare-offline",
        action="store_true",
        dest="compare_offline",
        help=(
            "also run the equivalent offline simulation and fail unless "
            "refresh counts, hit rate, total cost and query count match "
            "(deterministic mode, in-process server only)"
        ),
    )
    loadgen_parser.add_argument(
        "--fault-plan",
        default=None,
        dest="fault_plan",
        metavar="SPEC",
        help=(
            "inject deterministic faults: 'key=value,...' with keys seed, "
            "drop, truncate, delay, delay_ms, reorder, kill_every, outage, "
            "part_kill_every, part_kills "
            "(e.g. 'seed=7,drop=0.05,kill_every=40,outage=3'; "
            "'part_kill_every=10,part_kills=2' SIGKILLs pool partitions — "
            "needs --partition-procs); 'none' disables injection"
        ),
    )
    loadgen_parser.add_argument(
        "--check-invariant",
        action="store_true",
        dest="check_invariant",
        help=(
            "audit every deterministic-mode answer against the ground-truth "
            "aggregate and exit 1 on any interval that excludes it"
        ),
    )
    loadgen_parser.add_argument(
        "--deadline",
        type=checked(real, positive),
        default=None,
        help=(
            "per-operation client deadline in seconds, positive (default: "
            "none in deterministic mode, 2 in open-loop mode)"
        ),
    )
    obs_parser = subparsers.add_parser(
        "obs", help="pretty-print a /metrics exposition (URL or file)"
    )
    obs_parser.add_argument(
        "source",
        help=(
            "where to read the exposition: an http(s) URL, a host:port "
            "(fetches http://host:port/metrics), or a text file path"
        ),
    )
    obs_parser.add_argument(
        "--aggregate",
        action="append",
        default=None,
        metavar="LABEL",
        help=(
            "sum the samples across this label dimension (repeatable), "
            "e.g. --aggregate partition collapses per-partition series"
        ),
    )
    obs_parser.add_argument(
        "--filter",
        default=None,
        dest="name_filter",
        metavar="SUBSTRING",
        help="only show metrics whose name contains SUBSTRING",
    )
    return parser


def _run_experiment(experiment_id: str, workers: Optional[int]) -> ExperimentResult:
    """Run one experiment, through its parallel plan when ``workers > 1``
    and it declares one, else through its sequential runner."""
    plan_factory = plan_registry().get(experiment_id)
    if workers is not None and workers > 1 and plan_factory is not None:
        return run_plan(plan_factory(), workers=workers)
    return registry()[experiment_id]()


def _profile_destination(base: str, experiment_id: Optional[str]) -> str:
    """The dump path for one run: ``run`` uses ``base`` verbatim, ``run-all``
    derives ``<stem>-<experiment_id><ext>`` so every experiment keeps its own
    profile."""
    if experiment_id is None:
        return base
    stem, extension = os.path.splitext(base)
    return f"{stem}-{experiment_id}{extension or '.prof'}"


def _run_profiled(
    profile: Optional[str],
    experiment_id: Optional[str],
    run: Callable[[], ExperimentResult],
) -> ExperimentResult:
    """Run one experiment, dumping a :mod:`cProfile` when ``--profile`` asks.

    The stats file is written even when the run raises, so a profile of the
    work done up to a failure survives it.
    """
    if profile is None:
        return run()
    import cProfile

    destination = _profile_destination(profile, experiment_id)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return run()
    finally:
        profiler.disable()
        profiler.dump_stats(destination)
        print(f"profile written to {destination}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``repro`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "workers", None) is not None and args.workers < 0:
        parser.error(f"--workers must be non-negative, got {args.workers}")
    if args.command == "serve":
        return _run_serve(args, parser)
    if args.command == "loadgen":
        return _run_loadgen(args, parser)
    if args.command == "obs":
        return _run_obs(args, parser)
    experiments = registry()
    if args.command == "list":
        for experiment_id in sorted(experiments):
            print(experiment_id)
        return 0
    if args.command == "run":
        if args.experiment not in experiments:
            print(
                f"unknown experiment {args.experiment!r}; "
                f"available: {', '.join(sorted(experiments))}",
                file=sys.stderr,
            )
            return 2
        result = _run_profiled(
            args.profile,
            None,
            lambda: _run_experiment(args.experiment, args.workers),
        )
        print(format_table(result))
        return 0
    if args.command == "run-all":
        for experiment_id in sorted(experiments):
            result = _run_profiled(
                args.profile,
                experiment_id,
                lambda experiment_id=experiment_id: _run_experiment(
                    experiment_id, args.workers
                ),
            )
            print(format_table(result))
            print()
        return 0
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


def _serving_policy(cost_factor: float, seed: int):
    """The serving stack's default policy (the monitoring workload's)."""
    from repro.experiments.workloads import serving_policy

    return serving_policy(cost_factor=cost_factor, seed=seed)


def _run_serve(args, parser: argparse.ArgumentParser) -> int:
    """Handler for ``repro serve``: host a serving deployment over TCP."""
    from repro.serving.api import ServeConfig

    try:
        config = ServeConfig(
            role=args.role,
            host=args.host,
            port=args.port,
            http_port=args.http_port,
            partitions=args.partitions,
            capacity=args.capacity,
            cost_factor=args.cost_factor,
            seed=args.seed,
            max_inflight=args.max_inflight,
            wal_dir=args.wal_dir,
            checkpoint_every=args.checkpoint_every,
            wal_fsync=args.wal_fsync,
            metrics=args.metrics,
            trace=args.trace,
            flightrec_dir=args.flightrec_dir,
            log_level=args.log_level,
            log_file=args.log_file,
        )
    except ValueError as error:
        parser.error(str(error))
    try:
        asyncio.run(_serve(config))
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        print("shutting down")
    return 0


def _obs_spec(source: Any) -> Dict[str, Any]:
    """The picklable observability spec keys from a config/args object."""
    spec: Dict[str, Any] = {}
    for name in ("metrics", "trace", "flightrec_dir", "log_level", "log_file"):
        value = getattr(source, name, None)
        if value:
            spec[name] = value
    return spec


async def _serve(config) -> None:
    """Host the deployment one :class:`ServeConfig` describes, until killed."""
    from repro.serving.procs import _configure_observability

    # The foreground process configures its own observability exactly like
    # a spawned worker would; partition processes get the same spec keys.
    _configure_observability(
        {**_obs_spec(config), "seed": config.seed}, config.role
    )
    pool = None
    if config.role == "gateway":
        from repro.serving.gateway import GatewayServer
        from repro.serving.procs import ProcessPartitionPool

        spec = {
            "host": config.host,
            "capacity": config.capacity,
            "cost_factor": config.cost_factor,
            "seed": config.seed,
            "max_inflight": config.max_inflight,
            **_obs_spec(config),
        }
        if config.wal_dir:
            spec["wal_dir"] = config.wal_dir
            spec["checkpoint_every"] = config.checkpoint_every
            spec["wal_fsync"] = config.wal_fsync
        pool = ProcessPartitionPool(config.partitions, spec)
        loop = asyncio.get_running_loop()
        targets = await loop.run_in_executor(None, pool.start)
        backend = GatewayServer(
            targets, pool=pool, max_inflight_queries=config.max_inflight
        )
        await backend.start()
        backend.start_supervisor()
        banner = (
            f"gateway on {config.host}:{config.port} "
            f"({config.partitions} partitions: {', '.join(targets)})"
        )
    else:
        from repro.serving.server import CacheServer

        durability = None
        if config.wal_dir:
            from repro.serving.durability import PartitionDurability

            durability = PartitionDurability(
                config.wal_dir,
                0,
                checkpoint_every=config.checkpoint_every,
                fsync=config.wal_fsync,
            )
        backend = CacheServer(
            _serving_policy(config.cost_factor, config.seed),
            capacity=config.capacity,
            value_refresh_cost=config.cost_factor,
            query_refresh_cost=2.0,
            max_inflight_queries=config.max_inflight,
            durability=durability,
        )
        banner = f"{config.role} cache on {config.host}:{config.port}"
    if config.wal_dir:
        banner += f", wal in {config.wal_dir}"
    edge = None
    tcp = await backend.start_tcp(config.host, config.port)
    try:
        if config.http_port:
            from repro.serving.http import HttpEdge

            edge = HttpEdge(backend)
            await edge.start(config.host, config.http_port)
            banner += f", http on {config.host}:{config.http_port}"
        from repro.obs.logging import get_logger

        get_logger("cli").info(
            "serving",
            extra={
                "fields": {
                    "deployment": config.role,
                    "host": config.host,
                    "port": config.port,
                    "http_port": config.http_port,
                    "partitions": config.partitions
                    if config.role == "gateway"
                    else None,
                    "metrics": config.metrics,
                }
            },
        )
        print(banner)
        async with tcp:
            await tcp.serve_forever()
    finally:
        if edge is not None:
            await edge.close()
        await backend.close()
        if pool is not None:
            await asyncio.get_running_loop().run_in_executor(None, pool.stop)


def _run_loadgen(args, parser: argparse.ArgumentParser) -> int:
    """Handler for ``repro loadgen``: replay the trace against a server."""
    from repro.experiments.workloads import (
        serving_config,
        traffic_trace,
        traffic_streams,
    )
    from repro.serving.faults import FaultPlan
    from repro.serving.api import parse_target
    from repro.serving.loadgen import (
        OpenLoopProfile,
        replay_trace_deterministic,
        run_open_loop,
    )
    from repro.serving.server import CacheServer

    remote = args.target is not None
    if remote:
        try:
            parse_target(args.target)
        except ValueError as error:
            parser.error(f"--target: {error}")
    if args.compare_offline and (args.mode != "deterministic" or remote):
        parser.error(
            "--compare-offline needs --mode deterministic and an "
            "in-process server (no --target)"
        )
    if args.check_invariant and args.mode != "deterministic":
        parser.error(
            "--check-invariant needs --mode deterministic (open-loop "
            "arrivals interleave with the update replay, so a query has no "
            "single ground-truth instant)"
        )
    if args.partitions > 1 and remote:
        parser.error(
            "--partitions builds an in-process gateway; it cannot be "
            "combined with --target"
        )
    if args.partition_procs:
        if remote:
            parser.error(
                "--partition-procs spawns its own partition pool; it cannot "
                "be combined with --target"
            )
        if args.partitions > 1:
            parser.error("--partition-procs and --partitions are exclusive")
        if args.mode != "deterministic":
            parser.error("--partition-procs needs --mode deterministic")
    try:
        fault_plan = (
            FaultPlan.parse(args.fault_plan) if args.fault_plan is not None else None
        )
    except ValueError as error:
        parser.error(f"--fault-plan: {error}")
    if (
        fault_plan is not None
        and fault_plan.partition_kill_every > 0
        and not args.partition_procs
    ):
        parser.error(
            "fault-plan partition kills (part_kill_every) need "
            "--partition-procs N: only pool partitions can be SIGKILLed"
        )
    if args.mode == "deterministic":
        # The deterministic replay is one serialized feeder + querier; say
        # so instead of silently absorbing open-loop flags (mirrors how
        # run/run-all report ignored flags).
        defaults = build_parser().parse_args(["loadgen"])
        for flag, name in (
            ("--clients", "clients"),
            ("--rate", "rate"),
            ("--feeders", "feeders"),
        ):
            if getattr(args, name) != getattr(defaults, name):
                print(
                    f"note: --mode deterministic replays one serialized "
                    f"feeder/querier pair; {flag} ignored",
                    file=sys.stderr,
                )
    from repro.serving.procs import _configure_observability

    _configure_observability({**_obs_spec(args), "seed": args.seed}, "loadgen")
    trace = traffic_trace(host_count=args.hosts, duration=args.duration)
    config = serving_config(trace, seed=args.seed)

    profile = None
    if args.mode == "open-loop":
        try:
            profile = OpenLoopProfile(
                duration_s=args.open_duration,
                base_rate=args.rate if args.rate > 0 else 200.0,
                peak_rate=args.peak_rate,
                shape=args.shape,
                zipf_s=args.zipf_s,
                constraint=args.constraint,
                seed=args.seed,
            )
        except ValueError as error:
            parser.error(str(error))

    def _partition_server():
        return CacheServer(
            _serving_policy(1.0, args.seed),
            value_refresh_cost=config.value_refresh_cost,
            query_refresh_cost=config.query_refresh_cost,
        )

    async def drive():
        gateway = None
        partitions = []
        server = None
        pool = None
        if remote:
            target = args.target
        elif args.partition_procs:
            import tempfile

            from repro.serving.gateway import GatewayServer
            from repro.serving.procs import ProcessPartitionPool

            # Durability is always on for the process pool: it is what makes
            # a SIGKILLed partition recover the exact state a kill-free run
            # would hold, so chaos replays stay byte-identical.
            wal_dir = args.wal_dir or tempfile.mkdtemp(prefix="repro-wal-")
            pool = ProcessPartitionPool(
                args.partition_procs,
                {
                    "seed": args.seed,
                    "wal_dir": wal_dir,
                    "checkpoint_every": args.checkpoint_every,
                    "wal_fsync": args.wal_fsync,
                    **_obs_spec(args),
                },
            )
            loop = asyncio.get_running_loop()
            targets = await loop.run_in_executor(None, pool.start)
            gateway = GatewayServer(targets, pool=pool)
            await gateway.start()
            gateway.start_supervisor()
            target = gateway
        elif args.partitions > 1:
            from repro.serving.gateway import GatewayServer

            partitions = [_partition_server() for _ in range(args.partitions)]
            gateway = GatewayServer(partitions)
            await gateway.start()
            target = gateway
        else:
            server = _partition_server()
            target = server
        try:
            if args.mode == "deterministic":
                return await replay_trace_deterministic(
                    target,
                    trace,
                    config,
                    fault_plan=fault_plan,
                    check_invariant=args.check_invariant,
                    deadline=args.deadline,
                    partition_pool=pool,
                )
            return await run_open_loop(
                target,
                trace,
                config,
                profile=profile,
                connections=args.clients,
                feeders=args.feeders,
                deadline=args.deadline if args.deadline is not None else 2.0,
                fault_plan=fault_plan,
            )
        finally:
            if gateway is not None:
                await gateway.close()
            for partition in partitions:
                await partition.close()
            if server is not None:
                await server.close()
            if pool is not None:
                await asyncio.get_running_loop().run_in_executor(
                    None, pool.stop
                )

    report = asyncio.run(drive())
    if args.metrics:
        # Publishing is write-only and happens after the replay finished,
        # so the printed report is byte-identical with metrics on or off.
        report.publish()
    from repro.obs.logging import get_logger

    get_logger("cli").info(
        "loadgen complete",
        extra={
            "fields": {
                "mode": args.mode,
                "queries": report.queries,
                "updates_sent": report.updates_sent,
                "invariant_violations": report.invariant_violations,
            }
        },
    )
    print(report.describe())
    if args.check_invariant and report.invariant_violations:
        print(
            f"invariant check FAILED: {report.invariant_violations} of "
            f"{report.invariant_checks} answers excluded the true aggregate",
            file=sys.stderr,
        )
        return 1
    if args.compare_offline:
        from repro.simulation.simulator import CacheSimulation

        offline = CacheSimulation(
            config, traffic_streams(trace), _serving_policy(1.0, args.seed)
        ).run()
        matches = (
            report.value_refreshes == offline.value_refresh_count
            and report.query_refreshes == offline.query_refresh_count
            and report.hit_rate == offline.cache_hit_rate
            and report.total_cost == offline.total_cost
            and report.queries == offline.query_count
        )
        print(
            "offline comparison: "
            f"value_refreshes {offline.value_refresh_count} "
            f"query_refreshes {offline.query_refresh_count} "
            f"hit_rate {offline.cache_hit_rate:.6f} "
            f"total_cost {offline.total_cost:g} "
            f"queries {offline.query_count} -> "
            + ("MATCH" if matches else "MISMATCH")
        )
        if not matches:
            return 1
    return 0


def _fetch_exposition(source: str) -> str:
    """Read Prometheus text from a URL, ``host:port``, or a file path."""
    if not (source.startswith("http://") or source.startswith("https://")):
        if os.path.exists(source):
            with open(source, "r", encoding="utf-8") as handle:
                return handle.read()
        # A bare host:port means "scrape its HTTP edge".
        source = f"http://{source}/metrics"
    import urllib.request

    with urllib.request.urlopen(source, timeout=10) as response:
        return response.read().decode("utf-8")


def _format_metric_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:g}"


def _run_obs(args, parser: argparse.ArgumentParser) -> int:
    """Handler for ``repro obs``: pretty-print a metrics exposition."""
    from repro.obs.prom import parse_text

    try:
        text = _fetch_exposition(args.source)
    except OSError as error:
        print(f"cannot read {args.source!r}: {error}", file=sys.stderr)
        return 1
    try:
        types_by_name, samples = parse_text(text)
    except ValueError as error:
        print(f"cannot parse exposition: {error}", file=sys.stderr)
        return 1
    dropped = set(args.aggregate or ())
    if "le" in dropped:
        parser.error("--aggregate le would corrupt histogram buckets")
    # Sum across the dropped label dimensions (cumulative bucket counts and
    # counters sum exactly; summed gauges are a deliberate roll-up).
    totals: Dict[Any, float] = {}
    for name, labels, value in samples:
        if args.name_filter and args.name_filter not in name:
            continue
        kept = tuple(
            sorted(item for item in labels.items() if item[0] not in dropped)
        )
        totals[(name, kept)] = totals.get((name, kept), 0.0) + value
    if not totals:
        print("no samples" + (f" matching {args.name_filter!r}" if args.name_filter else ""))
        return 0
    def kind_of(name: str) -> str:
        # Histogram samples scrape as <name>_bucket/_sum/_count; the TYPE
        # header names the base metric.
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[: -len(suffix)] if name.endswith(suffix) else None
            if base and base in types_by_name:
                return types_by_name[base]
        return types_by_name.get(name, "untyped")

    last_name = None
    for (name, kept), value in sorted(totals.items()):
        if name != last_name:
            print(f"{name} ({kind_of(name)})")
            last_name = name
        rendered = ", ".join(f'{key}="{val}"' for key, val in kept)
        label_text = f"{{{rendered}}} " if rendered else ""
        print(f"  {label_text}{_format_metric_value(value)}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
