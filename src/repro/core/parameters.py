"""Parameters of the adaptive precision-setting algorithm (Table 1).

The algorithm is controlled by five parameters (Section 2):

1. ``value_refresh_cost``  (``C_vr``) — cost of a value-initiated refresh.
2. ``query_refresh_cost``  (``C_qr``) — cost of a query-initiated refresh.
3. ``adaptivity``          (``alpha``) — how aggressively the width is adjusted.
4. ``lower_threshold``     (``theta_0``) — widths below it are treated as 0.
5. ``upper_threshold``     (``theta_1``) — widths at or above it are treated as
   infinity.

The first two are properties of the caching environment; the remaining three
tune the algorithm.  The derived *cost factor* ``rho = 2 * C_vr / C_qr``
determines how often the width is grown or shrunk; the factor of two comes
from the Appendix A analysis of interval approximations.  For stale-value
approximations (Divergence Caching emulation, Section 4.7) the appropriate
factor is ``rho' = C_vr / C_qr``, selected via ``cost_factor_multiplier``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict

from repro.core.checks import non_negative, positive


@dataclass(frozen=True)
class PrecisionParameters:
    """Immutable bundle of the algorithm's five parameters.

    Parameters
    ----------
    value_refresh_cost:
        ``C_vr`` — cost charged whenever the source value escapes the cached
        interval and the source pushes a fresh one.
    query_refresh_cost:
        ``C_qr`` — cost charged whenever a query must fetch the exact value.
    adaptivity:
        ``alpha >= 0`` — the multiplicative adjustment factor: widths grow to
        ``W * (1 + alpha)`` and shrink to ``W / (1 + alpha)``.
    lower_threshold:
        ``theta_0 >= 0`` — computed widths strictly below it are published as
        exactly ``0`` (exact caching).
    upper_threshold:
        ``theta_1 >= 0`` — computed widths at or above it are published as
        ``inf`` (effectively uncached).
    cost_factor_multiplier:
        Multiplier applied to ``C_vr / C_qr`` when forming the cost factor.
        ``2.0`` for interval approximations (the paper's ``rho``), ``1.0`` for
        stale-value approximations (the paper's ``rho'`` in Section 4.7).
    """

    value_refresh_cost: float = 1.0
    query_refresh_cost: float = 2.0
    adaptivity: float = 1.0
    lower_threshold: float = 0.0
    upper_threshold: float = math.inf
    cost_factor_multiplier: float = 2.0

    def __post_init__(self) -> None:
        positive("value_refresh_cost (C_vr)", self.value_refresh_cost, finite=True)
        positive("query_refresh_cost (C_qr)", self.query_refresh_cost, finite=True)
        non_negative("adaptivity (alpha)", self.adaptivity, finite=True)
        non_negative("lower_threshold (theta_0)", self.lower_threshold, finite=False)
        non_negative("upper_threshold (theta_1)", self.upper_threshold, finite=False)
        if self.upper_threshold < self.lower_threshold:
            raise ValueError(
                "upper_threshold (theta_1) must be >= lower_threshold (theta_0)"
            )
        positive("cost_factor_multiplier", self.cost_factor_multiplier, finite=True)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def cost_factor(self) -> float:
        """The cost factor ``rho = multiplier * C_vr / C_qr``."""
        return (
            self.cost_factor_multiplier
            * self.value_refresh_cost
            / self.query_refresh_cost
        )

    @property
    def growth_probability(self) -> float:
        """Probability of growing the width on a value-initiated refresh.

        ``min(rho, 1)``: when a query refresh is comparatively expensive
        (``rho > 1``) the width is grown on every value refresh; otherwise it
        is grown only a fraction ``rho`` of the time.
        """
        return min(self.cost_factor, 1.0)

    @property
    def shrink_probability(self) -> float:
        """Probability of shrinking the width on a query-initiated refresh.

        ``min(1 / rho, 1)``: when a value refresh is comparatively expensive
        (``rho > 1``) the width is shrunk only a fraction ``1 / rho`` of the
        time; otherwise on every query refresh.
        """
        return min(1.0 / self.cost_factor, 1.0)

    @property
    def growth_factor(self) -> float:
        """Multiplicative factor ``1 + alpha`` applied when growing."""
        return 1.0 + self.adaptivity

    @property
    def forces_exact_caching(self) -> bool:
        """True when ``theta_1 == theta_0`` so every width becomes 0 or inf.

        In this mode the algorithm degenerates to an adaptive *exact* caching
        scheme: each value is either cached exactly or effectively not cached
        (Section 4.6).
        """
        return self.upper_threshold == self.lower_threshold

    # ------------------------------------------------------------------
    # Convenience constructors / transforms
    # ------------------------------------------------------------------
    @classmethod
    def for_cost_factor(
        cls,
        cost_factor: float,
        *,
        query_refresh_cost: float = 2.0,
        adaptivity: float = 1.0,
        lower_threshold: float = 0.0,
        upper_threshold: float = math.inf,
    ) -> "PrecisionParameters":
        """Build parameters whose ``rho`` equals ``cost_factor``.

        The paper's experiments are organised around ``rho in {1, 4}`` with
        ``C_qr = 2``; this constructor inverts ``rho = 2 * C_vr / C_qr`` to
        recover the implied ``C_vr``.
        """
        positive("cost_factor", cost_factor, finite=True)
        value_refresh_cost = cost_factor * query_refresh_cost / 2.0
        return cls(
            value_refresh_cost=value_refresh_cost,
            query_refresh_cost=query_refresh_cost,
            adaptivity=adaptivity,
            lower_threshold=lower_threshold,
            upper_threshold=upper_threshold,
        )

    def with_thresholds(
        self, lower_threshold: float, upper_threshold: float
    ) -> "PrecisionParameters":
        """Return a copy with replaced thresholds."""
        return replace(
            self,
            lower_threshold=lower_threshold,
            upper_threshold=upper_threshold,
        )

    def with_adaptivity(self, adaptivity: float) -> "PrecisionParameters":
        """Return a copy with a replaced adaptivity parameter ``alpha``."""
        return replace(self, adaptivity=adaptivity)

    def for_stale_values(self) -> "PrecisionParameters":
        """Return a copy using the stale-value cost factor ``rho' = C_vr/C_qr``."""
        return replace(self, cost_factor_multiplier=1.0)

    def as_dict(self) -> Dict[str, float]:
        """Return a flat dictionary of the parameters, useful for reporting."""
        return {
            "C_vr": self.value_refresh_cost,
            "C_qr": self.query_refresh_cost,
            "rho": self.cost_factor,
            "alpha": self.adaptivity,
            "theta_0": self.lower_threshold,
            "theta_1": self.upper_threshold,
        }


#: Parameter presets matching the paper's two cost configurations: loosely
#: consistent updates (``C_vr = 1`` so ``rho = 1``) and two-phase locking
#: (``C_vr = 4`` so ``rho = 4``), both with ``C_qr = 2`` (Section 4.3).
PAPER_COST_CONFIGURATIONS: Dict[str, PrecisionParameters] = {
    "loose_consistency": PrecisionParameters(
        value_refresh_cost=1.0, query_refresh_cost=2.0
    ),
    "two_phase_locking": PrecisionParameters(
        value_refresh_cost=4.0, query_refresh_cost=2.0
    ),
}
