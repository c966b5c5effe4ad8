"""The benchmark's workloads: set-up, one repetition and its oracle.

Every workload runs in this process, closed loop at depth 1.  A
repetition starts hermetic: the in-process trace and schedule caches are
emptied and the on-disk trace cache points at a fresh directory, so every
repetition generates its traces instead of loading an earlier one's.
"""

from __future__ import annotations

import asyncio
import os
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from spans import Probes, SpanRecorder

#: The committed paper tables, in the order ``benchmarks/`` regenerates them.
ALL_TABLES = (
    "ablation_probabilities",
    "ablation_eviction",
    "figure02",
    "figure03",
    "figure03_convergence",
    "figure04_05",
    "figure06",
    "figure07_09",
    "figure10_13",
    "figure14_15",
    "section44",
    "section45",
    "table1",
)


@dataclass
class Repetition:
    """What one repetition of a workload measured."""

    build_s: float
    wall_s: float
    ops: int
    attempted: int
    failed: int
    #: Latency samples (seconds) by request kind.
    latencies: Dict[str, List[float]]
    #: Work the program reported doing (refreshes, queries, WAL records...).
    counts: Dict[str, float] = field(default_factory=dict)
    #: Seconds per table (``tables`` only).
    table_s: Dict[str, float] = field(default_factory=dict)
    frames: int = 0
    frame_bytes: int = 0


def reset_caches(trace_dir: Path) -> None:
    """Empty the process-wide caches and point the trace cache at a new dir."""
    from repro.data import engine
    from repro.experiments.workloads import traffic_trace

    traffic_trace.cache_clear()
    schedule_cache = getattr(engine, "_cached_reference_schedule_times", None)
    if schedule_cache is not None:
        schedule_cache.cache_clear()
    os.environ["REPRO_TRACE_CACHE_DIR"] = str(trace_dir)


def _report_error(context: str) -> None:
    print(f"perfbench: {context} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _table_jobs() -> Dict[str, Callable[[], Any]]:
    """Each table built with the exact calls ``benchmarks/test_bench_*`` make."""
    from repro.experiments import (
        ablations,
        figure02_model,
        figure03_optimality,
        figure04_05_timeseries,
        figure06_adaptivity,
        figure07_09_thresholds,
        figure10_13_exact,
        figure14_15_divergence,
        section44_sensitivity,
        section45_variations,
        table1,
    )
    from repro.experiments.base import ExperimentResult

    def ablation(rows: Callable[[], list], experiment_id: str, title: str):
        def job() -> ExperimentResult:
            return ExperimentResult(
                experiment_id=experiment_id,
                title=title,
                columns=("ablation", "variant", "Omega"),
                rows=rows(),
            )

        return job

    def convergence() -> ExperimentResult:
        checks = figure03_optimality.convergence_report(duration=2000.0)
        return ExperimentResult(
            experiment_id="figure03_convergence",
            title="Adaptive vs best fixed width across the Section 4.2 grid",
            columns=(
                "T_q",
                "delta_avg",
                "rho",
                "best W",
                "best Omega",
                "adaptive Omega",
                "regret",
            ),
            rows=[
                (
                    check.query_period,
                    check.constraint_average,
                    check.cost_factor,
                    check.best_fixed_width,
                    check.best_fixed_cost_rate,
                    check.adaptive_cost_rate,
                    check.regret,
                )
                for check in checks
            ],
            notes=(
                "Paper: within 5% of optimal across the grid; see "
                "EXPERIMENTS.md for measured gaps."
            ),
        )

    return {
        "ablation_probabilities": ablation(
            ablations.run_probability_ablation,
            "ablation_probabilities",
            "Probabilistic width adjustment vs always adjusting (rho = 4)",
        ),
        "ablation_eviction": ablation(
            ablations.run_eviction_ablation,
            "ablation_eviction",
            "Widest-first eviction vs LRU vs random (space-constrained cache)",
        ),
        "figure02": figure02_model.run,
        "figure03": figure03_optimality.run,
        "figure03_convergence": convergence,
        "figure04_05": figure04_05_timeseries.run,
        "figure06": figure06_adaptivity.run,
        "figure07_09": figure07_09_thresholds.run,
        "figure10_13": lambda: figure10_13_exact.run(query_periods=(1.0, 5.0)),
        "figure14_15": figure14_15_divergence.run,
        "section44": section44_sensitivity.run,
        "section45": section45_variations.run,
        "table1": table1.run,
    }


class Tables:
    """Regenerate the committed paper tables; each is byte-compared."""

    name = "tables"
    #: The request whose latency ``op_p50_ms`` reports.
    primary_op = "simulation_run"
    modules = ("repro.experiments.base",) + tuple(
        f"repro.experiments.{module}"
        for module in (
            "ablations",
            "figure02_model",
            "figure03_optimality",
            "figure04_05_timeseries",
            "figure06_adaptivity",
            "figure07_09_thresholds",
            "figure10_13_exact",
            "figure14_15_divergence",
            "section44_sensitivity",
            "section45_variations",
            "table1",
        )
    )

    def __init__(self, root: Path, seed: int, tables: Tuple[str, ...] = ALL_TABLES):
        # The tables keep their committed seeds: those are what the
        # byte oracle checks, so ``seed`` is recorded but not used.
        self.results_dir = root / "benchmarks" / "results"
        self.seed = seed
        self.tables = tables

    def settings(self) -> Dict[str, Any]:
        return {"tables": list(self.tables), "seeds": "committed"}

    def expected(self, scratch: Path) -> Dict[str, str]:
        """The committed table texts (a missing file compares unequal)."""
        expected = {}
        for table in self.tables:
            path = self.results_dir / f"{table}.txt"
            expected[table] = path.read_text() if path.is_file() else ""
        return expected

    def repetition(
        self,
        scratch: Path,
        expected: Dict[str, str],
        clock: Callable[[], float],
        recorder: Optional[SpanRecorder] = None,
    ) -> Repetition:
        from repro.experiments.base import format_table

        build_start = clock()
        reset_caches(scratch / "traces")
        jobs = _table_jobs()
        build_s = clock() - build_start
        failed = 0
        table_s: Dict[str, float] = {}
        with Probes(clock, recorder) as probes:
            root = recorder.begin("harness.tables") if recorder else -1
            start = clock()
            for table in self.tables:
                span = recorder.begin(f"experiments.{table}", True) if recorder else -1
                began = clock()
                try:
                    text = format_table(jobs[table]()) + "\n"
                except Exception:
                    _report_error(f"table {table}")
                    text = None
                table_s[table] = clock() - began
                if recorder:
                    recorder.finish(span)
                if text != expected[table]:
                    failed += 1
                    print(f"perfbench: table {table} differs", file=sys.stderr)
            wall_s = clock() - start
            if recorder:
                recorder.finish(root)
        runs = probes.simulations
        return Repetition(
            build_s=build_s,
            wall_s=wall_s,
            ops=sum(run[1] for run in runs),
            attempted=len(self.tables),
            failed=failed,
            latencies={self.primary_op: [run[0] for run in runs]},
            counts={
                "simulation.runs": len(runs),
                "simulation.events": sum(run[1] for run in runs),
                "caching.value_refreshes": sum(run[2] for run in runs),
                "caching.query_refreshes": sum(run[3] for run in runs),
                "queries": sum(run[4] for run in runs),
            },
            table_s=table_s,
        )


class _Replay:
    """``replay_trace_deterministic`` of a synthetic trace into a server.

    The oracle is the offline ``CacheSimulation`` of the same trace, config
    and policy: value and query refresh counts and the hit rate must equal
    it (the ``repro loadgen --compare-offline`` rule).
    """

    name = ""
    primary_op = ""
    hosts = 0
    duration = 0
    modules = (
        "repro.experiments.workloads",
        "repro.serving.durability",
        "repro.serving.gateway",
        "repro.serving.loadgen",
        "repro.serving.server",
        "repro.simulation.simulator",
    )

    def __init__(self, root: Path, seed: int, hosts: int = 0, duration: int = 0):
        self.seed = seed
        self.hosts = hosts or self.hosts
        self.duration = duration or self.duration

    def settings(self) -> Dict[str, Any]:
        return {"hosts": self.hosts, "duration": self.duration, "seed": self.seed}

    def trace(self):
        from repro.data.engine import DEFAULT_ENGINE
        from repro.experiments.workloads import traffic_trace

        return traffic_trace(self.hosts, self.duration, self.seed, DEFAULT_ENGINE)

    def config(self, trace):
        raise NotImplementedError

    def policy(self):
        from repro.experiments.workloads import serving_policy

        return serving_policy(1.0, self.seed)

    def server(self, config, durability=None):
        from repro.serving.server import CacheServer

        return CacheServer(
            self.policy(),
            value_refresh_cost=config.value_refresh_cost,
            query_refresh_cost=config.query_refresh_cost,
            durability=durability,
        )

    def build_servers(self, config, wal_dir: Path):
        """Returns (driver target, gateway partitions, servers in close order)."""
        raise NotImplementedError

    async def start(self, target) -> None:
        """Start the driver's target once the probes know every server."""

    def expected(self, scratch: Path) -> Dict[str, Any]:
        from repro.experiments.workloads import traffic_streams
        from repro.simulation.simulator import CacheSimulation

        reset_caches(scratch / "traces")
        trace = self.trace()
        offline = CacheSimulation(
            self.config(trace), traffic_streams(trace), self.policy()
        ).run()
        return {
            "value_refreshes": offline.value_refresh_count,
            "query_refreshes": offline.query_refresh_count,
            "hit_rate": offline.cache_hit_rate,
        }

    def repetition(
        self,
        scratch: Path,
        expected: Dict[str, Any],
        clock: Callable[[], float],
        recorder: Optional[SpanRecorder] = None,
    ) -> Repetition:
        return asyncio.run(self._repetition(scratch, expected, clock, recorder))

    async def _repetition(
        self,
        scratch: Path,
        expected: Dict[str, Any],
        clock: Callable[[], float],
        recorder: Optional[SpanRecorder],
    ) -> Repetition:
        from repro.serving.loadgen import replay_trace_deterministic

        with Probes(clock, recorder) as probes:
            build_start = clock()
            span = recorder.begin("harness.setup") if recorder else -1
            reset_caches(scratch / "traces")
            trace = self.trace()
            config = self.config(trace)
            target, partitions, servers = self.build_servers(config, scratch / "wal")
            probes.tag(target, partitions)
            await self.start(target)
            if recorder:
                recorder.finish(span)
            build_s = clock() - build_start
            report = None
            try:
                span = recorder.begin("harness.replay") if recorder else -1
                start = clock()
                try:
                    report = await replay_trace_deterministic(
                        target, trace, config, check_invariant=True
                    )
                except Exception:
                    _report_error(f"{self.name} replay")
                wall_s = clock() - start
                if recorder:
                    recorder.finish(span)
            finally:
                for server in servers:
                    await server.close()
            wal = [getattr(server, "durability", None) for server in servers]
            wal = [durability for durability in wal if durability is not None]
        latencies = dict(probes.latencies)
        requests = sum(len(latencies.get(op, ())) for op in ("query", "update_batch"))
        if report is None:
            return Repetition(build_s, wall_s, 0, requests + 1, requests + 1, latencies)
        matches = (
            report.value_refreshes == expected["value_refreshes"]
            and report.query_refreshes == expected["query_refreshes"]
            and report.hit_rate == expected["hit_rate"]
        )
        if not matches:
            print(
                f"perfbench: {self.name} refreshes value={report.value_refreshes} "
                f"query={report.query_refreshes} hit_rate={report.hit_rate!r} "
                f"differ from offline {expected}",
                file=sys.stderr,
            )
        failed = (
            report.queries_rejected
            + report.deadline_failures
            + report.invariant_violations
            + report.degraded_answers
            + (0 if matches else 1)
        )
        return Repetition(
            build_s=build_s,
            wall_s=wall_s,
            ops=report.queries + report.updates_sent,
            # Every query and update batch, plus the offline comparison.
            attempted=requests + 1,
            failed=failed,
            latencies=latencies,
            counts={
                "caching.value_refreshes": report.value_refreshes,
                "caching.query_refreshes": report.query_refreshes,
                "queries": report.queries,
                "updates": report.updates_sent,
                "durability.records": sum(d.records_appended for d in wal),
                "durability.bytes": sum(d.bytes_appended for d in wal),
                "durability.checkpoints": sum(d.checkpoints_taken for d in wal),
            },
            frames=probes.frames,
            frame_bytes=probes.frame_bytes,
        )


class ReplayWal(_Replay):
    """Write-heavy: one durable ``CacheServer``, monitoring-workload defaults.

    WAL on with the default checkpoint cadence and the ``checkpoint`` fsync
    policy; the ``traffic_config`` defaults (SUM, delta_avg = 100 K, one query
    per trace second) give about 50 updates per query.
    """

    name = "replay_wal"
    primary_op = "query"
    hosts = 50
    duration = 2400

    def config(self, trace):
        from repro.experiments.workloads import serving_config

        return serving_config(trace, seed=self.seed)

    def settings(self) -> Dict[str, Any]:
        from repro.serving.durability import DEFAULT_CHECKPOINT_EVERY

        return {
            **super().settings(),
            "wal_fsync": "checkpoint",
            "checkpoint_every": DEFAULT_CHECKPOINT_EVERY,
        }

    def build_servers(self, config, wal_dir: Path):
        from repro.serving.durability import PartitionDurability

        server = self.server(config, PartitionDurability(wal_dir, 0))
        return server, (), [server]


class GatewayRead(_Replay):
    """Read-heavy: a ``GatewayServer`` over two in-process partitions.

    WAL off; a query every 0.2 trace seconds over SUM and MAX with
    delta_avg = 20 K gives about 5 updates per query, with query-initiated
    refreshes about as many as value-initiated ones.
    """

    name = "gateway_read"
    primary_op = "query"
    hosts = 25
    duration = 600
    partitions = 2

    def config(self, trace):
        from repro.experiments.workloads import KILO, traffic_config
        from repro.queries.aggregates import AggregateKind

        return traffic_config(
            trace,
            query_period=0.2,
            constraint_average=20.0 * KILO,
            aggregates=(AggregateKind.SUM, AggregateKind.MAX),
            seed=self.seed,
        ).with_changes(warmup=0.0)

    def settings(self) -> Dict[str, Any]:
        return {**super().settings(), "partitions": self.partitions, "wal": "off"}

    def build_servers(self, config, wal_dir: Path):
        from repro.serving.gateway import GatewayServer

        partitions = [self.server(config) for _ in range(self.partitions)]
        gateway = GatewayServer(partitions)
        # Close the gateway before the partitions behind it.
        return gateway, partitions, [gateway, *partitions]

    async def start(self, target) -> None:
        await target.start()


WORKLOADS = {workload.name: workload for workload in (Tables, ReplayWal, GatewayRead)}
