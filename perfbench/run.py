"""The repository benchmark: paper-table regeneration and two serving replays.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0

Workloads (one process, closed loop at depth 1, see ``workloads.py``):

``tables``
    Regenerates the 13 committed paper tables in-process (reference engine,
    default core and kernel) and byte-compares each with
    ``benchmarks/results/<table>.txt``.  The tables keep their committed
    seeds; ``--seed`` is recorded only.
``replay_wal``
    Write-heavy: ``replay_trace_deterministic`` of a 50-host synthetic
    monitoring trace into one ``CacheServer`` with the WAL on.
``gateway_read``
    Read-heavy: the same driver through a ``GatewayServer`` over two
    in-process partitions, WAL off.

The serving trace and the workload (query) seed both come from ``--seed``.
A run repeats the workload, each repetition from a fresh set-up, until
``--seconds`` have passed (at least once), and prints, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Every time is read in reference seconds from the calibrated clock of
``clock.py``; the info lines also give each repetition's wall time.

End-to-end metrics (``--trace 0``):

``setup_s``
    Imports (median of nine fresh interpreters) plus the median over the
    repetitions of trace generation and server construction.
``run_s``
    Median time of one repetition: all tables, or one whole replay.
``ops_per_s``
    Median updates plus queries processed per second: simulated events on
    ``tables``, answered updates and queries on the replays.
``op_p50_ms``
    Median latency of the workload's primary request over the run: one
    simulation run on ``tables``, one query on the replays (queries take
    most of a replay's time, and the update-batch median drifts more with
    the machine).  The p50 and tail of every request kind are printed with
    their sample counts.
``peak_rss_mb``
    Peak resident memory of the process.

``--trace 1`` runs a warm-up, an untraced and a traced repetition
(``spans.py``) and prints the per-layer metrics instead: time in and calls
into each layer, the work it did, each layer's self time, and the tracing
overhead (traced minus untraced time).  The spans are written to
``.perfbench_out/`` when the run ends.  Failed operations (a table that
differs, a replay whose refresh counts or hit rate differ from the offline
simulation, a rejected, late, degraded or wrong answer) count against the
attempted ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fresh interpreters timed for the import share of ``setup_s``.
IMPORT_SAMPLES = 9

#: Tail percentiles tried, highest first; the first with at least
#: ``TAIL_MIN_BEYOND`` samples beyond it is reported.
TAIL_PERCENTILES = (0.99, 0.95, 0.9)
TAIL_MIN_BEYOND = 10

#: Gateway partition RPCs reported by op.
PARTITION_OPS = ("snapshot", "refresh_key", "update_batch")


def percentile(ordered: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending sample."""
    rank = max(int(fraction * len(ordered) + 0.5), 1)
    return ordered[min(rank, len(ordered)) - 1]


def latency_summary(samples: Sequence[float]) -> Dict[str, Any]:
    """p50 and the highest tail percentile with enough samples beyond it."""
    ordered = sorted(samples)
    summary: Dict[str, Any] = {"n": len(ordered)}
    if not ordered:
        return summary
    summary["p50_ms"] = percentile(ordered, 0.5) * 1000.0
    for fraction in TAIL_PERCENTILES:
        rank = max(int(fraction * len(ordered) + 0.5), 1)
        if len(ordered) - rank >= TAIL_MIN_BEYOND:
            summary[f"p{fraction * 100:g}_ms"] = ordered[rank - 1] * 1000.0
            break
    return summary


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: Any) -> Dict[str, Any]:
    import numpy

    from repro.data.engine import DEFAULT_ENGINE
    from repro.simulation.config import get_default_core
    from repro.simulation.kernel import DEFAULT_KERNEL

    return {
        "commit": git_commit(ROOT),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "engine": DEFAULT_ENGINE,
        "core": get_default_core(),
        "kernel": DEFAULT_KERNEL,
        **workload.settings(),
    }


def time_imports(modules: Sequence[str], clock: Any) -> List[float]:
    """Import time of ``modules`` in fresh interpreters (after one warm-up)."""
    code = "\n".join(
        [
            "import sys, time",
            f"sys.path.insert(0, {str(SRC)!r})",
            "start = time.perf_counter()",
            *(f"import {module}" for module in modules),
            "print(time.perf_counter() - start)",
        ]
    )
    samples = []
    for attempt in range(IMPORT_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        if attempt:
            samples.append(clock.convert(float(done.stdout.split()[-1])))
    return samples


def end_to_end(workload: Any, reps: List[Any], import_s: float) -> Dict[str, Any]:
    samples = [
        value for rep in reps for value in rep.latencies.get(workload.primary_op, ())
    ]
    ordered = sorted(samples)
    return {
        "setup_s": (import_s + statistics.median(rep.build_s for rep in reps), "s"),
        "run_s": (statistics.median(rep.wall_s for rep in reps), "s"),
        "ops_per_s": (statistics.median(rep.ops / rep.wall_s for rep in reps), "1/s"),
        "op_p50_ms": (percentile(ordered, 0.5) * 1000.0 if ordered else 0.0, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
    }


def per_layer(traced: Any, untraced: Any, recorder: Any) -> Dict[str, Any]:
    from spans import LAYERS, layer_of
    from workloads import ALL_TABLES

    totals = recorder.totals()

    def seconds(name: str) -> float:
        return totals[name]["seconds"] if name in totals else 0.0

    def calls(name: str) -> int:
        return int(totals[name]["calls"]) if name in totals else 0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    self_time: Dict[str, float] = defaultdict(float)
    for name, entry in totals.items():
        self_time[layer_of(name)] += entry["self"]
    counts = traced.counts
    queries = counts.get("queries", 0)
    value_refreshes = counts.get("caching.value_refreshes", 0)
    query_refreshes = counts.get("caching.query_refreshes", 0)
    events = counts.get("simulation.events", 0)
    metrics: Dict[str, Any] = {}
    for table in ALL_TABLES:
        metrics[f"experiments.{table}_s"] = (seconds(f"experiments.{table}"), "s")
    metrics.update(
        {
            "data.trace_gen_s": (seconds("data.trace_gen"), "s"),
            "data.trace_gen_calls": (calls("data.trace_gen"), "count"),
            "data.schedule_s": (seconds("data.schedule"), "s"),
            "simulation.runs": (calls("simulation.run"), "count"),
            "simulation.events": (events, "count"),
            "simulation.events_per_s": (
                ratio(events, seconds("simulation.run")),
                "1/s",
            ),
            "queries.select_s": (seconds("queries.select"), "s"),
            "queries.select_calls": (calls("queries.select"), "count"),
            "caching.value_refreshes": (value_refreshes, "count"),
            "caching.query_refreshes": (query_refreshes, "count"),
            "caching.refreshes_per_query": (
                ratio(value_refreshes + query_refreshes, queries),
                "ratio",
            ),
            "protocol.encode_s": (seconds("protocol.encode"), "s"),
            "protocol.decode_s": (seconds("protocol.decode"), "s"),
            "protocol.frames": (traced.frames, "count"),
            "protocol.bytes": (traced.frame_bytes, "B"),
            "api.query_s": (seconds("api.query"), "s"),
            "api.update_batch_s": (seconds("api.update_batch"), "s"),
            "durability.append_s": (seconds("durability.append"), "s"),
            "durability.append_count": (calls("durability.append"), "count"),
            "durability.checkpoint_s": (seconds("durability.checkpoint"), "s"),
            "durability.checkpoint_count": (calls("durability.checkpoint"), "count"),
            "durability.wal_bytes_per_update": (
                ratio(counts.get("durability.bytes", 0), counts.get("updates", 0)),
                "B",
            ),
            "execution.select_s": (seconds("execution.select"), "s"),
        }
    )
    for op in PARTITION_OPS:
        metrics[f"gateway.partition_rpc_{op}_s"] = (
            seconds(f"gateway.partition_rpc.{op}"),
            "s",
        )
    metrics["gateway.snapshots_per_query"] = (
        ratio(calls("gateway.partition_rpc.snapshot"), queries),
        "ratio",
    )
    metrics["gateway.refresh_rpcs_per_query"] = (
        ratio(calls("gateway.partition_rpc.refresh_key"), queries),
        "ratio",
    )
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_time.get(layer, 0.0), "s")
    metrics["trace.overhead_s"] = (traced.wall_s - untraced.wall_s, "s")
    metrics["trace.spans"] = (recorder.count, "count")
    return metrics


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args: argparse.Namespace, scratch: Path) -> Dict[str, Any]:
    """Measure one workload; returns the result object."""
    from clock import ReferenceClock
    from spans import SpanRecorder
    from workloads import WORKLOADS

    clock = ReferenceClock()
    workload = WORKLOADS[args.workload](ROOT, args.seed)
    import_samples = time_imports(workload.modules, clock)
    expected = workload.expected(scratch / "expected")
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}")
    print("environment " + json.dumps(environment(workload), sort_keys=True))

    walls: List[float] = []

    def repetition(recorder: Optional[Any] = None) -> Any:
        directory = scratch / f"rep{len(walls)}"
        directory.mkdir()
        started = perf_counter()
        try:
            return workload.repetition(directory, expected, clock, recorder)
        finally:
            walls.append(perf_counter() - started)
            shutil.rmtree(directory, ignore_errors=True)

    reps = []
    recorder = None
    if args.trace:
        # A warm-up, then the untraced baseline the overhead is taken from.
        reps.append(repetition())
        reps.append(repetition())
        recorder = SpanRecorder(clock)
        reps.append(repetition(recorder))
    else:
        started = perf_counter()
        while not reps or perf_counter() - started < args.seconds:
            reps.append(repetition())
    import_s = statistics.median(import_samples)
    speeds = clock.speeds
    print(
        f"repetitions={len(reps)} import_s={import_s:.4f}"
        + " run_s="
        + ",".join(f"{rep.wall_s:.4f}" for rep in reps)
        + " wall_s="
        + ",".join(f"{wall:.4f}" for wall in walls)
    )
    print(
        f"clock calibrations={len(speeds)} speed min={min(speeds):.4f} "
        f"median={statistics.median(speeds):.4f} max={max(speeds):.4f}"
    )
    kinds = sorted({kind for rep in reps for kind in rep.latencies})
    for kind in kinds:
        samples = [value for rep in reps for value in rep.latencies.get(kind, ())]
        print(f"latency {kind} " + json.dumps(latency_summary(samples)))
    for table in reps[0].table_s:
        seconds = statistics.median(rep.table_s[table] for rep in reps)
        print(f"table {table} {seconds:.4f}s")
    if recorder is not None:
        metrics = per_layer(reps[-1], reps[-2], recorder)
        path = ROOT / ".perfbench_out" / f"spans-{workload.name}-seed{args.seed}.npz"
        recorder.dump(path, {"workload": workload.name, "seed": args.seed})
        print(f"spans {recorder.count} written to {path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(workload, reps, import_s)
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources at {SRC}; run from a full checkout",
            file=sys.stderr,
        )
        return 2
    work = ROOT / ".perfbench_tmp"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    # Nothing may read or write the default per-user trace cache.
    os.environ["REPRO_TRACE_CACHE_DIR"] = str(scratch / "traces")
    sys.path.insert(0, str(SRC))
    try:
        result = run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
