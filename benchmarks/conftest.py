"""Shared plumbing of the committed-table tests.

Each ``test_bench_*`` test regenerates the rows of one paper table or figure
by calling its experiment once, checks the paper's claim about them, and
writes the table to ``benchmarks/results/<experiment>.txt``.  The committed
files are the byte-identity oracle: after ``pytest benchmarks/``,
``git diff --exit-code -- benchmarks/results/`` must be clean.  Timing lives
in the repository benchmark (``perfbench/``, compared across commits by
``benchmarks/pairs.py``), not here.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

RESULTS_DIR = Path(__file__).resolve().parent / "results"


@pytest.fixture
def save_result():
    """Return a callable persisting an ExperimentResult to benchmarks/results/."""
    from repro.experiments.base import ExperimentResult, format_table

    def _save(result: ExperimentResult, name: str = "") -> Path:
        RESULTS_DIR.mkdir(exist_ok=True)
        target = RESULTS_DIR / f"{name or result.experiment_id}.txt"
        target.write_text(format_table(result) + "\n")
        return target

    return _save
