"""Common experiment plumbing: results, table formatting, and the registry."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple


@dataclass
class ExperimentResult:
    """The rows of one reproduced table or figure.

    Attributes
    ----------
    experiment_id:
        Identifier matching DESIGN.md (e.g. ``"figure06"``).
    title:
        Human-readable description of what the rows show.
    columns:
        Column headers.
    rows:
        One tuple per row; cells may be numbers or strings.
    notes:
        Free-form remarks (e.g. which paper claim the rows support).
    """

    experiment_id: str
    title: str
    columns: Sequence[str]
    rows: List[Tuple]
    notes: str = ""

    def column_index(self, name: str) -> int:
        """Return the index of the named column (raises ``ValueError`` if absent)."""
        return list(self.columns).index(name)

    def column(self, name: str) -> List:
        """Return all values of the named column."""
        index = self.column_index(name)
        return [row[index] for row in self.rows]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return format_table(self)


def _format_cell(cell) -> str:
    if isinstance(cell, float):
        if math.isinf(cell):
            return "inf"
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.01:
            return f"{cell:.4g}"
        return f"{cell:.3f}"
    return str(cell)


def format_table(result: ExperimentResult) -> str:
    """Render an :class:`ExperimentResult` as an aligned text table."""
    headers = [str(column) for column in result.columns]
    formatted_rows = [[_format_cell(cell) for cell in row] for row in result.rows]
    widths = [len(header) for header in headers]
    for row in formatted_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [f"== {result.experiment_id}: {result.title} =="]
    lines.append("  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)))
    lines.append("  ".join("-" * width for width in widths))
    for row in formatted_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    if result.notes:
        lines.append(f"notes: {result.notes}")
    return "\n".join(lines)


#: Registry of experiment id -> zero-argument callable returning the result.
#: Populated lazily by :func:`registry` to avoid import cycles.
def registry() -> Dict[str, Callable[[], ExperimentResult]]:
    """Return the mapping of experiment ids to their default runners."""
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
        serving_faults,
        serving_throughput,
        table1,
    )

    return {
        "table1": table1.run,
        "figure02": figure02_model.run,
        "figure03": figure03_optimality.run,
        "figure04_05": figure04_05_timeseries.run,
        "figure06": figure06_adaptivity.run,
        "figure07_09": figure07_09_thresholds.run,
        "figure10_13": figure10_13_exact.run,
        "figure14_15": figure14_15_divergence.run,
        "section44": section44_sensitivity.run,
        "section45": section45_variations.run,
        "serving_throughput": serving_throughput.run,
        "serving_partition_sweep": serving_throughput.run_partition_sweep,
        "serving_faults": serving_faults.run,
        "ablations": ablations.run,
    }
