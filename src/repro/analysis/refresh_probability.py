"""Appendix A: estimating the refresh probabilities.

The paper models the data as a one-dimensional random walk with step size
``s`` and derives, per time step,

* the query-initiated refresh probability
  ``P_qr = W / (T_q * delta_max)`` — the probability ``1/T_q`` that a query
  arrives, times the probability ``W / delta_max`` that a uniformly drawn
  constraint in ``[0, delta_max]`` is smaller than the cached width, and
* the value-initiated refresh probability, bounded through Chebyshev's
  inequality on the binomially distributed displacement after ``t`` steps
  (variance ``s**2 * t``): ``P_vr <= t * (2 s / W)**2``, i.e. proportional to
  ``1 / W**2``.

These functions reproduce those formulas so the Figure 2 / Figure 3 analysis
can be checked against measurements.
"""

from __future__ import annotations

import math

from repro.core.checks import non_negative, positive


def random_walk_variance(step_size: float, steps: float) -> float:
    """Variance of a random walk's displacement after ``steps`` steps.

    Each step moves the value up or down by ``step_size``; the displacement is
    binomially distributed with variance ``step_size**2 * steps``.
    """
    non_negative("step_size", step_size, finite=True)
    non_negative("steps", steps, finite=True)
    return step_size**2 * steps


def chebyshev_escape_probability(
    step_size: float, steps: float, distance: float
) -> float:
    """Chebyshev bound on the walk having moved further than ``distance``.

    ``P[|X_t| >= k] <= Var(X_t) / k**2 = steps * (step_size / distance)**2``,
    capped at 1.
    """
    positive("distance", distance, finite=False)
    variance = random_walk_variance(step_size, steps)
    return min(variance / distance**2, 1.0)


def value_refresh_probability(step_size: float, steps: float, width: float) -> float:
    """Appendix A estimate of ``P_vr``: escape of a centred interval of ``width``.

    With a centred interval the walk must cover ``width / 2`` to escape, so
    ``P_vr ≈ steps * (2 * step_size / width)**2`` (capped at 1).
    """
    non_negative("width", width, finite=False)
    if width == 0:
        return 1.0
    if math.isinf(width):
        return 0.0
    return chebyshev_escape_probability(step_size, steps, width / 2.0)


def query_refresh_probability(
    width: float, query_period: float, max_constraint: float
) -> float:
    """Appendix A estimate of ``P_qr = W / (T_q * delta_max)`` (capped at 1).

    ``max_constraint`` is the upper end of the uniform constraint distribution
    (``delta_max``); a zero ``delta_max`` means every query demands exactness,
    so any non-zero width triggers a refresh whenever a query arrives.
    """
    non_negative("width", width, finite=False)
    positive("query_period", query_period, finite=True)
    non_negative("max_constraint", max_constraint, finite=False)
    query_probability = min(1.0 / query_period, 1.0)
    if max_constraint == 0:
        too_wide_probability = 0.0 if width == 0 else 1.0
    elif math.isinf(width):
        too_wide_probability = 1.0
    else:
        too_wide_probability = min(width / max_constraint, 1.0)
    return query_probability * too_wide_probability


def model_constants(
    step_size: float, query_period: float, max_constraint: float
) -> tuple:
    """Return the Appendix A model constants ``(K1, K2)``.

    ``K1`` is defined through ``P_vr = K1 / W**2`` evaluated one step after a
    refresh (``t = 1``), i.e. ``K1 = 4 * s**2``; ``K2`` through
    ``P_qr = K2 * W``, i.e. ``K2 = 1 / (T_q * delta_max)``.
    """
    positive("max_constraint (defines K2)", max_constraint, finite=False)
    positive("query_period", query_period, finite=True)
    positive("step_size", step_size, finite=True)
    k1 = 4.0 * step_size**2
    k2 = 1.0 / (query_period * max_constraint)
    return k1, k2
