"""Threshold clamping of interval widths (Section 2).

The algorithm keeps an internal ("original") width per value, but the width
actually *published* to the cache is clamped: widths strictly below the lower
threshold ``theta_0`` are published as ``0`` (exact copy) and widths at or
above the upper threshold ``theta_1`` are published as ``inf`` (effectively
uncached).  The source keeps adapting the original width, so the scheme can
leave either extreme once conditions change.
"""

from __future__ import annotations

import math


def apply_thresholds(
    width: float, lower_threshold: float, upper_threshold: float
) -> float:
    """Return the published width after applying ``theta_0`` / ``theta_1``.

    Parameters
    ----------
    width:
        The internally maintained ("original") width, ``>= 0``.
    lower_threshold:
        ``theta_0`` — widths strictly below it become ``0``.
    upper_threshold:
        ``theta_1`` — widths greater than or equal to it become ``inf``.

    Notes
    -----
    The order of the two tests matters when ``theta_0 == theta_1`` (the exact
    caching specialisation of Section 4.6): the paper's intent is that every
    width is then forced to either ``0`` or ``inf``, which the
    lower-test-first ordering delivers (widths below the common threshold go
    to 0, all others to inf).
    """
    if not width >= 0:
        raise ValueError(f"width must be non-negative, got {width}")
    if not (lower_threshold >= 0 and upper_threshold >= 0):
        raise ValueError("thresholds must be non-negative")
    if upper_threshold < lower_threshold:
        raise ValueError("upper threshold must be >= lower threshold")
    if width < lower_threshold:
        return 0.0
    if width >= upper_threshold:
        return math.inf
    return width


def is_exact_width(published_width: float) -> bool:
    """True when a published width denotes an exact copy."""
    return published_width == 0.0


def is_uncached_width(published_width: float) -> bool:
    """True when a published width denotes an effectively uncached value."""
    return math.isinf(published_width)
