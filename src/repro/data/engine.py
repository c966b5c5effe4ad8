"""The data plane's name and its memoised periodic update grid.

Every random quantity the data layer draws — random-walk steps, Poisson
update arrivals, bursty traffic seconds — comes from a seeded
``random.Random`` in the order of the historical per-step loops, so every
seeded output (and with it every committed figure table) is byte-identical
run to run.  The generators draw in their own methods
(:class:`~repro.data.random_walk.RandomWalkGenerator`,
:class:`~repro.data.streams.CounterStream`,
:class:`~repro.data.traffic.SyntheticTrafficTraceGenerator`); this module
keeps what they share: the periodic schedule grid and its memo.
"""

from __future__ import annotations

import functools
from typing import List, Tuple

#: The data plane's name, recorded in benchmark environments.  There is one
#: data plane; ``repro.experiments.workloads.traffic_trace`` still accepts
#: this name as its fourth positional argument and rejects any other.
DEFAULT_ENGINE = "reference"


#: Grids longer than this are rebuilt per call instead of memoised: the
#: lru_cache bounds entry count, not bytes, so paper-scale sweeps over many
#: distinct (interval, duration) pairs must not pin multi-million-entry
#: tuples for the process lifetime.
_SCHEDULE_CACHE_MAX_STEPS = 1_000_000


def _build_reference_schedule_times(interval: float, duration: float) -> List[float]:
    # Accumulates with repeated float additions (no closed-form multiply) so
    # the instants are bit-identical to the historical update loop.
    times: List[float] = []
    time = interval
    horizon = duration + 1e-9
    while time <= horizon:
        times.append(round(time, 9))
        time += interval
    return times


@functools.lru_cache(maxsize=16)
def _cached_reference_schedule_times(
    interval: float, duration: float
) -> Tuple[float, ...]:
    return tuple(_build_reference_schedule_times(interval, duration))


def schedule_times(interval: float, duration: float) -> List[float]:
    """The periodic instants ``interval, 2*interval, ...`` up to ``duration``
    (inclusive, with the kernel's 1e-9 horizon tolerance).

    Returns a fresh list per call (callers may keep or alter it).  Every
    source of a run typically shares one grid, so small grids are memoised
    per ``(interval, duration)`` as immutable tuples; grids past
    :data:`_SCHEDULE_CACHE_MAX_STEPS` bypass the memo to keep memory
    retention bounded by entries *and* bytes.
    """
    if duration / interval > _SCHEDULE_CACHE_MAX_STEPS:
        return _build_reference_schedule_times(interval, duration)
    return list(_cached_reference_schedule_times(interval, duration))
