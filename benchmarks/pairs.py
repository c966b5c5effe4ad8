"""Compare a parent checkout with this one on the repository benchmark.

Runs ``BENCHMARK.json``'s command in interleaved pairs, one run in each
checkout per pair, alternating which side goes first::

    python benchmarks/pairs.py --parent ../parent --workload tables --pairs 10

For every workload and ``end_to_end`` metric it prints each side's median
and quartiles, the change in the median and the change's wins out of the
pairs (ties count for neither).  It exits 1 when

- a run exits non-zero or reports ``correct: false``;
- the change fails a larger share of its attempted operations than the
  parent; or
- a change median is worse than the parent's by more than the metric's
  ``bound`` while the parent's own interquartile range is within that bound.

A metric whose parent interquartile range is wider than its bound is
reported ``unresolved`` and does not fail.  ``--trace`` passes ``--trace 1``
to every run and prints the ``per_layer`` metrics instead; those rows are
informational and never fail.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")

Run = Dict[str, Any]


def measure(
    workload: str, pairs: int, run: Callable[[str, str], Run]
) -> Dict[str, List[Run]]:
    """``pairs`` runs of ``workload`` per side; entry ``i`` of each is pair
    ``i``.  The parent runs first in even pairs, the change in odd ones."""
    runs: Dict[str, List[Run]] = {side: [] for side in SIDES}
    for index in range(pairs):
        for side in SIDES if index % 2 == 0 else SIDES[::-1]:
            runs[side].append(run(side, workload))
    return runs


def run_benchmark(
    command: Sequence[str], checkout: Path, workload: str, seconds: float, trace: bool
) -> Run:
    """One benchmark run in ``checkout``; a run that fails reads incorrect."""
    argv = [*command, "--workload", workload, "--seconds", f"{seconds:g}"]
    argv += ["--trace", str(int(trace))]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    tail = (done.stderr.strip().splitlines() or ["no result line"])[-1]
    return {"correct": False, "error": f"exit {done.returncode}: {tail}"}


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(q: Tuple[float, float, float]) -> str:
    """``median [q1, q3]``: four significant figures, or every digit of a
    large value, so counts that repeat exactly read equal."""
    q1, median, q3 = (f"{x:,.0f}" if abs(x) >= 1e4 else f"{x:.4g}" for x in q)
    return f"{median} [{q1}, {q3}]"


def share(part: float, base: float) -> float:
    """``part`` as a share of ``base``, infinite when ``base`` is zero."""
    if base:
        return part / abs(base)
    return 0.0 if part == 0 else math.copysign(math.inf, part)


def failed_share(runs: Sequence[Run]) -> float:
    attempted = sum(run.get("attempted", 0) for run in runs)
    return share(sum(run.get("failed", 0) for run in runs), attempted)


def value(run: Run, name: str) -> Optional[float]:
    """Metric ``name`` of a correct run, or None."""
    if run.get("correct") and name in run.get("metrics", {}):
        return run["metrics"][name]["value"]
    return None


def judge(
    metric: Dict[str, Any], runs: Dict, gate: bool, width: int
) -> Tuple[str, str]:
    """One metric's report line and its status: ``ok``, ``worse``,
    ``unresolved``, ``no data`` or, when not gated, ``info``."""
    name = metric["name"]
    per_pair = [
        (value(parent, name), value(change, name))
        for parent, change in zip(runs["parent"], runs["change"])
    ]
    parent, change = (
        [pair[side] for pair in per_pair if pair[side] is not None] for side in (0, 1)
    )
    if not parent or not change:
        return f"  {name:<{width}} no data", "no data"
    sign = 1.0 if metric["better"] == "lower" else -1.0
    p_quartiles, c_quartiles = quartiles(parent), quartiles(change)
    p_q1, p_median, p_q3 = p_quartiles
    moved = share(c_quartiles[1] - p_median, p_median)
    wins = sum(
        p is not None and c is not None and sign * (c - p) < 0 for p, c in per_pair
    )
    bound = metric.get("bound")
    if not gate or bound is None:
        status = "info"
    elif share(p_q3 - p_q1, p_median) > bound:
        status = "unresolved"
    else:
        status = "worse" if sign * moved > bound else "ok"
    line = (
        f"  {name:<{width}} parent {spread(p_quartiles)}"
        f"  change {spread(c_quartiles)}"
        f"  {moved:+.1%}  wins {wins}/{len(per_pair)}  {status}"
    )
    if status != "info":
        line += f" (bound {bound:.0%})"
    return line, status


def verdict(
    metrics: Sequence[Dict], runs: Dict, gate: bool = True
) -> Tuple[List[str], List[str]]:
    """The report lines and the failures of one workload's runs."""
    failures = [
        f"{side} run {index + 1}: {run.get('error', 'correct: false')}"
        for side in SIDES
        for index, run in enumerate(runs[side])
        if not run.get("correct")
    ]
    parent_share, change_share = (failed_share(runs[side]) for side in SIDES)
    if change_share > parent_share:
        failures.append(f"failed share {parent_share:.3%} -> {change_share:.3%}")
    lines = []
    width = max(len(metric["name"]) for metric in metrics)
    for metric in metrics:
        line, status = judge(metric, runs, gate, width)
        lines.append(line)
        if status == "worse":
            failures.append(f"{metric['name']} worse by over its bound")
    return lines, failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="parent checkout")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", choices=workloads, help="default: all")
    parser.add_argument("--trace", action="store_true", help="per-layer metrics")
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs and --seconds must be positive")
    if not args.parent.is_dir():
        parser.error(f"--parent {args.parent} is not a directory")
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    def run(side: str, workload: str) -> Run:
        result = run_benchmark(
            spec["command"], checkouts[side], workload, args.seconds, args.trace
        )
        status = "ok" if result.get("correct") else "failed"
        print(f"  {side}: {result.get('error', status)}", flush=True)
        return result

    failures = []
    for workload in [args.workload] if args.workload else workloads:
        print(f"{workload}: {args.pairs} pairs, parent {checkouts['parent']}")
        runs = measure(workload, args.pairs, run)
        lines, found = verdict(metrics, runs, gate=not args.trace)
        print("\n".join(lines))
        failures += [f"{workload}: {failure}" for failure in found]
    for failure in failures:
        print("FAIL " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
