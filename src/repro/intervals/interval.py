"""Closed numeric intervals used as cached approximations.

An interval approximation ``[L, H]`` is a *valid* approximation of an exact
numeric value ``V`` when ``L <= V <= H`` (Section 1.1 of the paper).  The
precision of the approximation is the reciprocal of its width,
``Prec([L, H]) = 1 / (H - L)``: a zero-width interval pins down the exact
value (infinite precision) while an unbounded interval carries no information
(zero precision).
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

_isnan = math.isnan


class Interval:
    """A closed interval ``[low, high]`` approximating a numeric value.

    Instances are immutable (assignment raises, as with the frozen dataclass
    this replaces — intervals hash on their endpoints and are shared, e.g.
    the module-level :data:`UNBOUNDED` singleton).  ``low`` may be ``-inf``
    and ``high`` may be ``+inf``.  This is a ``__slots__`` class rather than
    a frozen dataclass: intervals are created on every refresh and
    aggregate-bound computation, and the hand-written ``__init__`` is
    several times cheaper there.

    Parameters
    ----------
    low:
        Lower endpoint (inclusive).
    high:
        Upper endpoint (inclusive).  Must satisfy ``high >= low``.
    """

    __slots__ = ("low", "high", "width")

    def __init__(self, low: float, high: float) -> None:
        if high < low or _isnan(low) or _isnan(high):
            if _isnan(low) or _isnan(high):
                raise ValueError("interval endpoints must not be NaN")
            raise ValueError(f"invalid interval: high ({high}) < low ({low})")
        # Direct slot-descriptor writes: they bypass the immutability guard
        # below without paying object.__setattr__'s per-call attribute lookup.
        _set_low(self, low)
        _set_high(self, high)
        _set_width(self, high - low)

    def __setattr__(self, name, value):
        raise AttributeError("Interval is immutable")

    def __delattr__(self, name):
        raise AttributeError("Interval is immutable")

    def __reduce__(self):
        # Default __slots__ pickling restores state through setattr, which
        # the immutability guard blocks; rebuild through __init__ instead.
        return (Interval, (self.low, self.high))

    def __eq__(self, other: object):
        if not isinstance(other, Interval):
            return NotImplemented
        return self.low == other.low and self.high == other.high

    def __ne__(self, other: object):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        return hash((self.low, self.high))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def exact(cls, value: float) -> "Interval":
        """Return the zero-width interval ``[value, value]``."""
        return cls(value, value)

    @classmethod
    def centered(cls, center: float, width: float) -> "Interval":
        """Return an interval of the given ``width`` centred on ``center``.

        A ``width`` of ``math.inf`` yields the unbounded interval, matching
        the paper's convention that widths clamped to ``theta_1 = inf`` mean
        "effectively not cached".
        """
        if not width >= 0:
            raise ValueError(f"width must be non-negative, got {width}")
        if math.isinf(width):
            return UNBOUNDED
        half = width / 2.0
        return cls(center - half, center + half)

    @classmethod
    def above(cls, anchor: float, width: float) -> "Interval":
        """Return the one-sided interval ``[anchor, anchor + width]``.

        One-sided intervals are used for monotone quantities such as the
        update counters of stale-value approximations (Section 4.7).
        """
        if not width >= 0:
            raise ValueError(f"width must be non-negative, got {width}")
        if math.isinf(width):
            return cls(anchor, math.inf)
        return cls(anchor, anchor + width)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    # ``width`` (``high - low``; ``inf`` for unbounded intervals) is a slot
    # precomputed at construction: refresh selection reads it several times
    # per queried interval, so one subtraction at build time beats a property
    # call at every access.

    @property
    def center(self) -> float:
        """The midpoint of the interval.

        Raises :class:`ValueError` for intervals with an infinite endpoint,
        whose midpoint is undefined.
        """
        if math.isinf(self.low) or math.isinf(self.high):
            raise ValueError("center is undefined for unbounded intervals")
        return (self.low + self.high) / 2.0

    @property
    def precision(self) -> float:
        """``1 / width`` — infinite for exact intervals, zero for unbounded."""
        if self.width == 0:
            return math.inf
        return 1.0 / self.width

    @property
    def is_exact(self) -> bool:
        """True when the interval has zero width (an exact copy)."""
        return self.width == 0

    @property
    def is_unbounded(self) -> bool:
        """True when either endpoint is infinite."""
        return math.isinf(self.low) or math.isinf(self.high)

    # ------------------------------------------------------------------
    # Validity and membership
    # ------------------------------------------------------------------
    def contains(self, value: float) -> bool:
        """Return ``True`` if ``low <= value <= high``.

        This is exactly the paper's ``Valid([L, H], V)`` test.
        """
        return self.low <= value <= self.high

    def is_valid_for(self, value: float) -> bool:
        """Alias of :meth:`contains`, named after the paper's predicate."""
        return self.contains(value)

    def meets_constraint(self, max_width: float) -> bool:
        """Return ``True`` if the interval satisfies a precision constraint.

        A query with precision constraint ``delta`` accepts an approximation
        whose width does not exceed ``delta``.
        """
        if not max_width >= 0:
            raise ValueError(f"precision constraint must be >= 0, got {max_width}")
        return self.width <= max_width

    # ------------------------------------------------------------------
    # Set-like operations
    # ------------------------------------------------------------------
    def intersects(self, other: "Interval") -> bool:
        """Return ``True`` when the two intervals share at least one point."""
        return self.low <= other.high and other.low <= self.high

    def intersection(self, other: "Interval") -> Optional["Interval"]:
        """Return the overlap of two intervals, or ``None`` if disjoint."""
        if not self.intersects(other):
            return None
        return Interval(max(self.low, other.low), min(self.high, other.high))

    def hull(self, other: "Interval") -> "Interval":
        """Return the smallest interval containing both intervals."""
        return Interval(min(self.low, other.low), max(self.high, other.high))

    # ------------------------------------------------------------------
    # Arithmetic (used by bounded aggregates)
    # ------------------------------------------------------------------
    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.low + other.low, self.high + other.high)

    def __neg__(self) -> "Interval":
        return Interval(-self.high, -self.low)

    def __sub__(self, other: "Interval") -> "Interval":
        return self + (-other)

    def scale(self, factor: float) -> "Interval":
        """Return the interval scaled by a non-negative ``factor``."""
        if not factor >= 0:
            raise ValueError("scale factor must be non-negative")
        if factor == 0:
            return Interval.exact(0.0)
        return Interval(self.low * factor, self.high * factor)

    def shift(self, offset: float) -> "Interval":
        """Return the interval translated by ``offset``."""
        return Interval(self.low + offset, self.high + offset)

    def clamp_value(self, value: float) -> float:
        """Return ``value`` clipped into the interval."""
        return min(max(value, self.low), self.high)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Interval({self.low!r}, {self.high!r})"


#: Slot descriptors bound once so ``Interval.__init__`` can write its fields
#: past the immutability guard without per-call attribute-machinery overhead.
_set_low = Interval.low.__set__
_set_high = Interval.high.__set__
_set_width = Interval.width.__set__

#: The fully unbounded interval: a valid approximation of any value, carrying
#: no information (zero precision).
UNBOUNDED = Interval(-math.inf, math.inf)

#: The exact approximation of zero, occasionally useful as an identity for
#: interval sums.
EXACT_ZERO = Interval.exact(0.0)


def hull(intervals: Iterable[Interval]) -> Interval:
    """Return the smallest interval containing every interval in ``intervals``.

    Raises :class:`ValueError` on an empty iterable.
    """
    result: Optional[Interval] = None
    for interval in intervals:
        result = interval if result is None else result.hull(interval)
    if result is None:
        raise ValueError("hull() of an empty collection is undefined")
    return result


def intersection(intervals: Iterable[Interval]) -> Optional[Interval]:
    """Return the common overlap of all ``intervals`` (``None`` if empty/disjoint)."""
    result: Optional[Interval] = None
    for interval in intervals:
        if result is None:
            result = interval
            continue
        result = result.intersection(interval)
        if result is None:
            return None
    return result
