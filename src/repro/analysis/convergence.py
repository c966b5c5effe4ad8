"""Convergence diagnostics for the adaptive controller.

Section 4.2 reports that the adaptive algorithm converges to a width whose
performance is within 1% of the best fixed width on the base configuration
and within 5% across a small parameter grid.  These helpers quantify that:
:func:`relative_regret` compares an adaptive run's cost rate against the best
fixed-width cost rate, and :func:`convergence_report` summarises the final
widths of an adaptive run against a reference width.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Hashable, Mapping

from repro.core.checks import positive


def relative_regret(adaptive_cost_rate: float, optimal_cost_rate: float) -> float:
    """Fractional excess cost of the adaptive run over the optimum.

    ``0.01`` means the adaptive algorithm is within 1% of the best fixed
    width; small negative values can occur when the adaptive run happens to
    beat the best width in the sweep grid (e.g. because the true optimum lies
    between grid points).
    """
    positive("optimal_cost_rate", optimal_cost_rate, finite=True)
    return (adaptive_cost_rate - optimal_cost_rate) / optimal_cost_rate


@dataclass(frozen=True)
class ConvergenceReport:
    """Summary of how close adapted widths ended up to a reference width."""

    reference_width: float
    mean_final_width: float
    median_final_width: float
    mean_relative_error: float

    @property
    def converged_within(self) -> float:
        """Alias for :attr:`mean_relative_error` (fractional distance)."""
        return self.mean_relative_error


def convergence_report(
    final_widths: Mapping[Hashable, float], reference_width: float
) -> ConvergenceReport:
    """Summarise the final adapted widths against ``reference_width``."""
    positive("reference_width", reference_width, finite=True)
    finite = [width for width in final_widths.values() if math.isfinite(width)]
    if not finite:
        raise ValueError("no finite final widths to report on")
    mean_width = statistics.fmean(finite)
    median_width = statistics.median(finite)
    mean_error = statistics.fmean(
        abs(width - reference_width) / reference_width for width in finite
    )
    return ConvergenceReport(
        reference_width=reference_width,
        mean_final_width=mean_width,
        median_final_width=median_width,
        mean_relative_error=mean_error,
    )
