"""Merged-timeline export: one time-ordered event stream from many sources.

The simulator pre-materialises every source's update schedule up front
(:meth:`repro.data.streams.UpdateStream.schedule`), which means the whole
update timeline of a run is known before the first event executes.  The batch
execution kernel (:mod:`repro.simulation.kernel`) exploits that by replaying a
*merged* view of the per-source timelines instead of pushing every event
through a general priority queue.  This module builds that merged view.

Two representations are produced, picked per run by :func:`merge_timelines`:

* **lockstep** — every source shares one identical time grid (random walks,
  trace replays: one update per source per sample instant).  The merged
  stream is then simply "for each grid instant, every source in insertion
  order", stored as the shared ``times`` list plus one value column per
  source — no per-event bookkeeping at all.
* **dynamic** — the grids differ (Poisson counters, mixed periods), so the
  exact event order depends on dynamic tie-breaking and must be resolved
  while the simulation runs.  The kernel replays it with a small heap over
  per-source cursors (see :func:`repro.simulation.kernel.run_batch_kernel`),
  replicating the ``(time, priority, sequence)`` semantics of a
  priority-queue scheduler: with cross-source ties, tied events run in the
  order their *predecessors* were executed (each source's next event draws
  its tie-break sequence when the previous one is handled), which no
  statically computed sort key can reproduce in general.
"""

from __future__ import annotations

from typing import Hashable, List, Mapping, Optional, Sequence, Tuple

#: The two merged-timeline representations (``MergedTimeline.mode``).
MODE_LOCKSTEP = "lockstep"
MODE_DYNAMIC = "dynamic"


class MergedTimeline:
    """The merged update timeline of one simulation run.

    Attributes
    ----------
    mode:
        One of :data:`MODE_LOCKSTEP`, :data:`MODE_DYNAMIC`.
    keys:
        Source keys in insertion (scheduling) order; ``columns`` and the
        per-source lists refer to positions in this tuple.
    times / columns:
        For ``lockstep`` mode: the shared time grid and one value column per
        source (``columns[i][j]`` is source ``i``'s value at ``times[j]``).
    times_per_source / values_per_source:
        For ``dynamic`` mode: each source's own ``(times, values)`` schedule
        columns, consumed through per-source cursors.
    """

    __slots__ = (
        "mode",
        "keys",
        "times",
        "columns",
        "times_per_source",
        "values_per_source",
    )

    def __init__(
        self,
        mode: str,
        keys: Tuple[Hashable, ...],
        times: Optional[List[float]] = None,
        columns: Optional[List[List[float]]] = None,
        times_per_source: Optional[List[List[float]]] = None,
        values_per_source: Optional[List[List[float]]] = None,
    ) -> None:
        self.mode = mode
        self.keys = keys
        self.times = times
        self.columns = columns
        self.times_per_source = times_per_source
        self.values_per_source = values_per_source

    @property
    def event_count(self) -> int:
        """Number of update events in the merged stream."""
        if self.mode == MODE_LOCKSTEP:
            assert self.times is not None and self.columns is not None
            return len(self.times) * len(self.columns)
        assert self.times_per_source is not None
        return sum(len(times) for times in self.times_per_source)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MergedTimeline(mode={self.mode!r}, sources={len(self.keys)}, "
            f"events={self.event_count})"
        )


def merge_timelines(
    timelines: Mapping[Hashable, Tuple[Sequence[float], Sequence[float]]],
) -> MergedTimeline:
    """Build the merged view of a run's pre-materialised update timelines.

    ``timelines`` maps each source key to its ``(times, values)`` schedule
    columns (:meth:`UpdateStream.schedule`), in scheduling order (the
    simulator's source insertion order — the order initial tie-break
    sequences were assigned in).  The columns are used as they are, not
    copied.
    """
    keys = tuple(timelines)
    times_per_source = [times for times, _ in timelines.values()]
    values_per_source = [values for _, values in timelines.values()]

    # Lockstep detection: every source updates at exactly the same instants.
    # This is the dominant shape (random walks and trace replays all tick on
    # one shared per-second grid).  The streams of one trace return the very
    # same ``times`` list, so the identity test settles them without a pass;
    # other grids fall back to C-level list equality.
    if times_per_source:
        grid = times_per_source[0]
        if all(times is grid or times == grid for times in times_per_source[1:]):
            return MergedTimeline(
                mode=MODE_LOCKSTEP,
                keys=keys,
                times=grid,
                columns=values_per_source,
            )

    return MergedTimeline(
        mode=MODE_DYNAMIC,
        keys=keys,
        times_per_source=times_per_source,
        values_per_source=values_per_source,
    )
