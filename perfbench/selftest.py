"""Self-test of the benchmark harness at toy size.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks, in about a minute, that:

* each workload, at toy size, reports no failed operation on this code;
* a corrupted expected table or offline refresh count is reported as one
  failed operation;
* a traced repetition's counts (calls per probe, events, refreshes, frames,
  WAL records) repeat exactly;
* ``run.py`` prints, as its last line, the result object with every metric
  ``BENCHMARK.json`` lists, and fails without a result where the program's
  sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List

from clock import ReferenceClock
from run import ROOT, SRC
from spans import SpanRecorder
from workloads import GatewayRead, ReplayWal, Tables

#: Cheap tables (about a second together) standing in for all thirteen.
TOY_TABLES = ("figure02", "figure03", "section45", "table1")


class Checks:
    """Prints each check's outcome and keeps the failed ones."""

    def __init__(self) -> None:
        self.failures: List[str] = []

    def __call__(self, condition: bool, message: str) -> None:
        print(("ok   " if condition else "FAIL ") + message)
        if not condition:
            self.failures.append(message)


def toy_workloads() -> List[Any]:
    return [
        Tables(ROOT, 1, tables=TOY_TABLES),
        ReplayWal(ROOT, 3, hosts=10, duration=120),
        GatewayRead(ROOT, 3, hosts=10, duration=60),
    ]


def corrupt(workload: Any, expected: Dict[str, Any]) -> Dict[str, Any]:
    """One wrong expected table, or one wrong offline refresh count."""
    corrupted = dict(expected)
    if isinstance(workload, Tables):
        corrupted["figure03"] = corrupted["figure03"].replace("0", "1", 1)
    else:
        corrupted["value_refreshes"] += 1
    return corrupted


def traced_counts(
    workload: Any, scratch: Path, expected: Dict[str, Any], clock: ReferenceClock
) -> Dict[str, Any]:
    recorder = SpanRecorder(clock)
    rep = workload.repetition(scratch, expected, clock, recorder)
    calls = {name: entry["calls"] for name, entry in recorder.totals().items()}
    return {
        "calls": calls,
        "counts": rep.counts,
        "frames": (rep.frames, rep.frame_bytes),
        "failed": rep.failed,
    }


def check_workloads(check: Checks, scratch: Path) -> None:
    clock = ReferenceClock()
    for workload in toy_workloads():
        name = workload.name
        expected = workload.expected(scratch / f"{name}-expected")
        rep = workload.repetition(scratch / f"{name}-clean", expected, clock)
        check(rep.failed == 0 and rep.attempted > 0, f"{name}: no failed operation")
        check(rep.ops > 0 and rep.wall_s > 0, f"{name}: work was done and timed")
        bad = corrupt(workload, expected)
        rep = workload.repetition(scratch / f"{name}-bad", bad, clock)
        check(rep.failed == 1, f"{name}: a corrupted expectation fails one operation")
        first = traced_counts(workload, scratch / f"{name}-t1", expected, clock)
        second = traced_counts(workload, scratch / f"{name}-t2", expected, clock)
        check(first["failed"] == 0, f"{name}: the traced run fails nothing")
        check(first == second, f"{name}: traced counts repeat exactly")


def last_json(stdout: str) -> Dict[str, Any]:
    return json.loads(stdout.strip().splitlines()[-1])


def check_command_line(check: Checks, scratch: Path) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = [sys.executable, str(ROOT / "perfbench" / "run.py")]
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            command
            + ["--workload", "gateway_read", "--seed", "2", "--seconds", "1"]
            + ["--trace", str(trace)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=170,
        )
        check(done.returncode == 0, f"run.py --trace {trace} exits 0")
        result = last_json(done.stdout)
        check(
            set(result) == {"correct", "attempted", "failed", "metrics"},
            f"run.py --trace {trace} prints exactly the result keys",
        )
        check(
            set(result["metrics"]) == {metric["name"] for metric in spec[kind]},
            f"run.py --trace {trace} prints every {kind} metric",
        )
        check(result["correct"] and result["failed"] == 0, "the run is correct")
    bare = scratch / "bare"
    shutil.copytree(ROOT / "perfbench", bare / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "1"]
        + ["--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=170,
    )
    check(
        done.returncode != 0 and '"metrics"' not in done.stdout,
        "without the program's sources run.py fails and prints no result",
    )


def main() -> int:
    sys.path.insert(0, str(SRC))
    check = Checks()
    work = ROOT / ".perfbench_tmp"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=work))
    try:
        check_workloads(check, scratch)
        check_command_line(check, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass
    print(f"{len(check.failures)} failed check(s)")
    return 1 if check.failures else 0


if __name__ == "__main__":
    sys.exit(main())
