"""Data substrate: update streams, random walks, and the synthetic trace.

The paper evaluates on two kinds of data: synthetic one-dimensional random
walks (Section 4.2) and a real two-hour wide-area network traffic trace of the
50 most heavily trafficked hosts [PF95] (Section 4.3).  The trace itself is
not redistributable, so :mod:`repro.data.traffic` generates a synthetic
stand-in with the same structure (bursty, heavy-tailed ON/OFF behaviour,
one-minute moving-window averaging, the same value range); see DESIGN.md for
the substitution rationale.

All random generation draws from seeded ``random.Random`` generators in the
order the committed figure tables were produced with, so every seeded stream
and trace is byte-identical run to run.  Generated traces are memoised per
process by :func:`repro.experiments.workloads.traffic_trace`.
"""

from repro.data.merged import MergedTimeline, merge_timelines
from repro.data.random_walk import RandomWalkGenerator
from repro.data.streams import (
    CounterStream,
    RandomWalkStream,
    TraceStream,
    UpdateStream,
)
from repro.data.trace import Trace, moving_window_average
from repro.data.traffic import SyntheticTrafficTraceGenerator

__all__ = [
    "MergedTimeline",
    "merge_timelines",
    "RandomWalkGenerator",
    "UpdateStream",
    "RandomWalkStream",
    "TraceStream",
    "CounterStream",
    "Trace",
    "moving_window_average",
    "SyntheticTrafficTraceGenerator",
]
