"""Analytical cost model of Section 3 and Appendix A.

For a cached approximation of width ``W`` the per-time-step refresh
probabilities are modelled as::

    P_vr = K1 / W**2        (value-initiated; Chebyshev bound on a random walk)
    P_qr = K2 * W           (query-initiated; uniform precision constraints)

so the expected cost rate is::

    Omega(W) = C_vr * K1 / W**2 + C_qr * K2 * W

which is minimised at ``W* = (rho * K1 / K2) ** (1/3)`` with
``rho = 2 * C_vr / C_qr``.  At ``W*`` the weighted probabilities balance:
``rho * P_vr(W*) = P_qr(W*)`` — the property the adaptive controller exploits
to find ``W*`` without estimating ``K1`` or ``K2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.checks import non_negative, positive
from repro.core.parameters import PrecisionParameters


@dataclass(frozen=True)
class CostModel:
    """Closed-form refresh-probability and cost-rate model.

    Parameters
    ----------
    parameters:
        Cost parameters (only ``C_vr``, ``C_qr`` and the derived ``rho`` are
        used; thresholds and adaptivity are irrelevant to the static model).
    k1:
        Model constant of the value-initiated refresh probability
        (``P_vr = k1 / W**2``).  Depends on the volatility of the data.
    k2:
        Model constant of the query-initiated refresh probability
        (``P_qr = k2 * W``).  Depends on the query rate and the distribution
        of precision constraints.
    """

    parameters: PrecisionParameters
    k1: float = 1.0
    k2: float = 1.0 / 200.0

    def __post_init__(self) -> None:
        positive("k1", self.k1, finite=True)
        positive("k2", self.k2, finite=True)

    # ------------------------------------------------------------------
    # Model functions
    # ------------------------------------------------------------------
    def value_refresh_probability(self, width: float) -> float:
        """``P_vr(W) = k1 / W**2`` (capped at 1), infinite-width gives 0."""
        non_negative("width", width, finite=False)
        if math.isinf(width):
            return 0.0
        if width == 0:
            return 1.0
        return min(self.k1 / width**2, 1.0)

    def query_refresh_probability(self, width: float) -> float:
        """``P_qr(W) = k2 * W`` (capped at 1), zero-width gives 0."""
        non_negative("width", width, finite=False)
        if math.isinf(width):
            return 1.0
        return min(self.k2 * width, 1.0)

    def cost_rate(self, width: float) -> float:
        """Expected cost per time step ``Omega(W)``."""
        p_vr = self.value_refresh_probability(width)
        p_qr = self.query_refresh_probability(width)
        return (
            self.parameters.value_refresh_cost * p_vr
            + self.parameters.query_refresh_cost * p_qr
        )

    def optimal_width(self) -> float:
        """The closed-form minimiser ``W* = (rho * k1 / k2) ** (1/3)``."""
        return (self.parameters.cost_factor * self.k1 / self.k2) ** (1.0 / 3.0)

    def optimal_cost_rate(self) -> float:
        """``Omega(W*)``."""
        return self.cost_rate(self.optimal_width())

    def balance_residual(self, width: float) -> float:
        """``rho * P_vr(W) - P_qr(W)`` — zero exactly at the optimum."""
        return (
            self.parameters.cost_factor * self.value_refresh_probability(width)
            - self.query_refresh_probability(width)
        )

    # ------------------------------------------------------------------
    # Curve sampling (used by the Figure 2 experiment)
    # ------------------------------------------------------------------
    def sample_curves(
        self, widths: Sequence[float]
    ) -> List[Tuple[float, float, float, float]]:
        """Return ``(W, P_vr, P_qr, Omega)`` rows for each width in ``widths``."""
        rows = []
        for width in widths:
            rows.append(
                (
                    width,
                    self.value_refresh_probability(width),
                    self.query_refresh_probability(width),
                    self.cost_rate(width),
                )
            )
        return rows

    # ------------------------------------------------------------------
    # Fitting helpers (used to validate the model against measurements)
    # ------------------------------------------------------------------
    @classmethod
    def fit(
        cls,
        parameters: PrecisionParameters,
        widths: Sequence[float],
        measured_p_vr: Sequence[float],
        measured_p_qr: Sequence[float],
    ) -> "CostModel":
        """Fit ``k1`` and ``k2`` to measured refresh probabilities.

        Uses simple least-squares in the transformed spaces
        ``P_vr * W**2 ~ k1`` and ``P_qr / W ~ k2`` (the model is linear in the
        constants once the width dependence is divided out), which is robust
        enough for validating the measured Figure 3 curves against the model.
        """
        if not (len(widths) == len(measured_p_vr) == len(measured_p_qr)):
            raise ValueError("widths and measurements must have equal length")
        if not widths:
            raise ValueError("at least one measurement is required")
        k1_samples = [p * w**2 for w, p in zip(widths, measured_p_vr) if w > 0]
        k2_samples = [p / w for w, p in zip(widths, measured_p_qr) if w > 0]
        if not k1_samples or not k2_samples:
            raise ValueError("measurements must include at least one positive width")
        k1 = sum(k1_samples) / len(k1_samples)
        k2 = sum(k2_samples) / len(k2_samples)
        return cls(parameters=parameters, k1=k1, k2=k2)
