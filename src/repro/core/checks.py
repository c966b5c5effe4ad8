"""The one place that decides which numbers a constructor accepts.

Every check is written ``not lo < value`` rather than ``value <= lo``: any
comparison with NaN is false, so the negated form rejects NaN along with
the bad signs.  Whether ``+inf`` is legal is stated at each call site by the
keyword-only ``finite`` argument, never implied: a duration, a rate or a
count must be finite, while theta_1, delta or a constraint may be infinite.
Each check returns its value, so a constructor checks and assigns at once.

Per-event checks (an ``Interval``, a cache put, a refresh, a placement, a
refresh selection) stay inline in the same negated form: they run several
times per refresh, and a call here costs more than the comparison
(docs/PERFORMANCE.md, "Why per-event checks stay inline").
"""

_INF = float("inf")


def _refuse(name: str, rule: str, value: float, finite: bool) -> ValueError:
    rule += " and finite" if finite else ""
    return ValueError(f"{name} must be {rule}, got {value!r}")


def positive(name: str, value: float, *, finite: bool) -> float:
    """``value > 0``; ``+inf`` passes only when ``finite`` is false."""
    if not (0 < value < _INF if finite else value > 0):
        raise _refuse(name, "positive", value, finite)
    return value


def non_negative(name: str, value: float, *, finite: bool) -> float:
    """``value >= 0``; ``+inf`` passes only when ``finite`` is false."""
    if not (0 <= value < _INF if finite else value >= 0):
        raise _refuse(name, "non-negative", value, finite)
    return value


def at_least(name: str, value: float, minimum: float, *, finite: bool) -> float:
    """``value >= minimum`` (a count passes ``finite=True``)."""
    if not (minimum <= value < _INF if finite else value >= minimum):
        raise _refuse(name, f"at least {minimum}", value, finite)
    return value


def in_range(
    name: str, value: float, low: float, high: float, *, finite: bool
) -> float:
    """``low <= value <= high`` for finite bounds, which refuse ``+inf``
    on their own; ``finite`` only keeps the signature of the other rules."""
    if not low <= value <= high:
        raise _refuse(name, f"in [{low}, {high}]", value, finite=False)
    return value


def probability(name: str, value: float) -> float:
    """``0 <= value <= 1``."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def finite(name: str, value: float) -> float:
    """Any real number but NaN and the infinities."""
    if not -_INF < value < _INF:
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value
