"""The parent/change pair gate of ``benchmarks/pairs.py``, fed synthetic runs.

No test here starts a benchmark process: the runner's verdict and pairing
functions take run results as plain data, ``main`` is driven with its
process launcher replaced, and the launcher itself runs a one-line Python
stand-in for the benchmark command.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "pairs", ROOT / "benchmarks" / "pairs.py"
)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

RUN_S = {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25}
OPS_PER_S = {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}

#: Ten parent readings around 10 with an interquartile range of 2% of it.
PARENT = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.02, 9.98]


def result(correct=True, attempted=100, failed=0, **metrics):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value} for name, value in metrics.items()},
    }


def runs_of(name, parent, change):
    return {
        "parent": [result(**{name: value}) for value in parent],
        "change": [result(**{name: value}) for value in change],
    }


def scaled(factor):
    return [value * factor for value in PARENT]


def test_change_worse_than_the_bound_fails():
    lines, failures = pairs.verdict([RUN_S], runs_of("run_s", PARENT, scaled(1.3)))
    assert failures == ["run_s worse by over its bound"]
    assert "+30.0%  wins 0/10  worse (bound 25%)" in lines[0]


def test_change_worse_within_the_bound_passes():
    lines, failures = pairs.verdict([RUN_S], runs_of("run_s", PARENT, scaled(1.2)))
    assert failures == []
    assert lines[0].endswith("ok (bound 25%)")


def test_parent_spread_wider_than_the_bound_is_unresolved():
    wide = [6.0, 14.0] * 5
    lines, failures = pairs.verdict(
        [RUN_S], runs_of("run_s", wide, [value * 1.5 for value in wide])
    )
    assert failures == []
    assert lines[0].endswith("unresolved (bound 25%)")


def test_higher_is_better_flips_the_direction():
    fewer = pairs.verdict([OPS_PER_S], runs_of("ops_per_s", PARENT, scaled(0.7)))
    more = pairs.verdict([OPS_PER_S], runs_of("ops_per_s", PARENT, scaled(1.3)))
    assert fewer[1] == ["ops_per_s worse by over its bound"]
    assert more[1] == []
    assert "wins 10/10  ok" in more[0][0]
    assert pairs.verdict([RUN_S], runs_of("run_s", PARENT, scaled(0.7)))[1] == []


def test_incorrect_or_crashed_run_fails():
    runs = runs_of("run_s", PARENT, PARENT)
    runs["change"][3] = result(correct=False, run_s=10.0)
    runs["parent"][1] = {"correct": False, "error": "exit 1: Traceback"}
    lines, failures = pairs.verdict([RUN_S], runs)
    assert failures == [
        "parent run 2: exit 1: Traceback",
        "change run 4: correct: false",
    ]
    assert lines[0].endswith("ok (bound 25%)")


def test_larger_failed_share_fails():
    runs = runs_of("run_s", PARENT, PARENT)
    assert pairs.verdict([RUN_S], runs)[1] == []
    runs["change"][0]["failed"] = 2
    assert pairs.verdict([RUN_S], runs)[1] == ["failed share 0.000% -> 0.200%"]
    runs["parent"][5]["failed"] = 2
    assert pairs.verdict([RUN_S], runs)[1] == []


def test_run_order_alternates_across_pairs():
    calls = []

    def run(side, workload):
        calls.append((side, workload))
        return result(run_s=1.0)

    runs = pairs.measure("tables", 4, run)
    assert [side for side, _ in calls] == [
        *("parent", "change"),
        *("change", "parent"),
        *("parent", "change"),
        *("change", "parent"),
    ]
    assert {workload for _, workload in calls} == {"tables"}
    assert len(runs["parent"]) == len(runs["change"]) == 4


def test_per_layer_rows_never_fail():
    metric = {"name": "queries.select_s", "unit": "s", "better": "lower"}
    runs = runs_of(metric["name"], PARENT, scaled(3.0))
    lines, failures = pairs.verdict([metric], runs, gate=False)
    assert failures == []
    assert lines[0].endswith("info")


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_main_reads_every_workload_and_metric(
    monkeypatch, capsys, tmp_path, trace, section
):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in spec[section]]
    seen = []

    def run_benchmark(command, checkout, workload, seconds, traced):
        seen.append((tuple(command), checkout, workload, seconds, traced))
        return result(**{name: 1.0 for name in names})

    monkeypatch.setattr(pairs, "run_benchmark", run_benchmark)
    argv = ["--parent", str(tmp_path), "--pairs", "2"] + ["--trace"] * trace
    assert pairs.main(argv) == 0
    workloads = [workload["name"] for workload in spec["workloads"]]
    assert [call[2] for call in seen] == [name for name in workloads for _ in range(4)]
    assert {call[0] for call in seen} == {tuple(spec["command"])}
    assert {call[1] for call in seen} == {tmp_path.resolve(), ROOT}
    assert {call[3:] for call in seen} == {(spec["run_seconds"], trace)}
    out = capsys.readouterr().out
    for name in workloads:
        assert f"{name}: 2 pairs" in out
    for name in names:
        assert out.count(f"  {name} ") == len(workloads)


#: A stand-in benchmark command: it echoes its arguments and working
#: directory on the last line of its output, after a line that is not JSON.
ECHO = [
    sys.executable,
    "-c",
    "import json, os, sys; print('warming up');"
    " print(json.dumps({'correct': True, 'argv': sys.argv[1:], 'cwd': os.getcwd()}))",
]


def test_run_benchmark_reads_the_last_line_in_the_checkout(tmp_path):
    run = pairs.run_benchmark(ECHO, tmp_path, "replay_wal", 5.0, True)
    assert run["correct"] is True
    assert run["argv"] == ["--workload", "replay_wal", "--seconds", "5", "--trace", "1"]
    assert Path(run["cwd"]).resolve() == tmp_path.resolve()
    untraced = pairs.run_benchmark(ECHO, tmp_path, "tables", 2.5, False)
    assert untraced["argv"][-3:] == ["2.5", "--trace", "0"]


@pytest.mark.parametrize(
    "code, error",
    [
        ("import sys; sys.exit('boom')", "exit 1: boom"),
        ("print('no json here')", "exit 0: no result line"),
        ("pass", "exit 0: no result line"),
    ],
)
def test_run_benchmark_without_a_result_line_reads_incorrect(tmp_path, code, error):
    command = [sys.executable, "-c", code]
    run = pairs.run_benchmark(command, tmp_path, "tables", 1, False)
    assert run == {"correct": False, "error": error}


def test_metric_missing_from_every_run_reads_no_data():
    runs = runs_of("run_s", PARENT, PARENT)
    lines, failures = pairs.verdict([RUN_S, OPS_PER_S], runs)
    assert failures == []
    assert lines[1] == "  ops_per_s no data"


def test_spread_prints_large_values_in_full():
    counts = pairs.quartiles([12345.0, 12346.0, 12347.0])
    assert pairs.spread(counts) == "12,346 [12,345, 12,347]"
    assert pairs.spread(pairs.quartiles([0.123456])) == "0.1235 [0.1235, 0.1235]"


@pytest.mark.parametrize(
    "argv",
    [["--pairs", "0"], ["--seconds", "0"], ["--workload", "no_such_workload"]],
)
def test_main_rejects_bad_options_before_running(monkeypatch, tmp_path, argv):
    monkeypatch.setattr(
        pairs, "run_benchmark", lambda *args: pytest.fail("a benchmark ran")
    )
    with pytest.raises(SystemExit) as exit_info:
        pairs.main(["--parent", str(tmp_path), *argv])
    assert exit_info.value.code == 2
    with pytest.raises(SystemExit) as exit_info:
        pairs.main(["--parent", str(tmp_path / "missing")])
    assert exit_info.value.code == 2
