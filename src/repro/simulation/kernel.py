"""The batch execution kernel: the simulator's one event executor.

A :class:`~repro.simulation.simulator.CacheSimulation` run knows its whole
event population up front: per-source update timelines are
pre-materialised and the query clock is strictly periodic.  So instead of
pushing every event through a priority queue, this module replays the
events as a merged stream (:mod:`repro.data.merged`) interleaved with the
query clock by a two-pointer walk.  It dispatches straight to the
update/query handler bodies, with no heap traffic on the lockstep/static
paths and no event objects ever.

The kernel executes events in exactly the order a general discrete-event
scheduler would:

* events execute in ``(time, priority, sequence)`` order — updates before
  queries at equal instants, FIFO within a class;
* tie-break sequences are drawn when an event is (re)scheduled, so two
  sources tied at one instant execute in the order their *previous* events
  were handled (initial events in source-insertion order).  The lockstep and
  static representations are only selected when that dynamic order coincides
  with their static order (identical grids / no shared instants); otherwise
  the dynamic path replays the sequence draws with a small cursor heap;
* the query clock accumulates ``time += period`` in floating point and both
  processes observe the ``HORIZON_TOLERANCE`` horizon slack.

``tests/scheduler_oracle.py`` keeps such a scheduler as the reference:
property tests in ``tests/test_event_kernel.py`` drive randomized tie-heavy
workloads through both and assert identical event sequences, and whole
simulations replayed from the oracle's sequence must match ``run()`` field
for field.
"""

from __future__ import annotations

import heapq
from typing import Callable, Hashable, Optional

from repro.data.merged import MODE_LOCKSTEP, MODE_STATIC, MergedTimeline

#: Slack when comparing event times against the run's horizon: an event
#: nominally at the horizon still executes even if float accumulation
#: (``time += period``) pushed it a hair past it.
HORIZON_TOLERANCE = 1e-9

#: The executor's name, recorded in benchmark environments.  The batch
#: kernel is the only one.
DEFAULT_KERNEL = "batch"

UpdateHandler = Callable[[Hashable, float, float], None]
QueryHandler = Callable[[float], None]
UpdateBatchHandler = Callable[[float, int], None]


def run_batch_kernel(
    merged: MergedTimeline,
    duration: float,
    query_period: float,
    handle_update: UpdateHandler,
    handle_query: QueryHandler,
    handle_update_batch: Optional[UpdateBatchHandler] = None,
) -> int:
    """Replay a merged timeline interleaved with the periodic query clock.

    Parameters
    ----------
    merged:
        The run's merged update timeline (:func:`repro.data.merged.merge_timelines`).
    duration:
        The simulation horizon; events past ``duration + HORIZON_TOLERANCE``
        are not executed.
    query_period:
        ``T_q``; the first query fires at ``query_period`` and the clock
        accumulates by repeated addition.
    handle_update / handle_query:
        The simulator's per-event bodies, called in exact event order.
    handle_update_batch:
        Optional whole-instant update handler for the lockstep path: called
        as ``handle_update_batch(time, position)`` once per shared grid
        instant *instead of* the per-source ``handle_update`` fan-out, with
        ``position`` indexing the merged columns; the handler must apply the
        sources in merged key order, as the fan-out does.  The simulator
        passes one on every lockstep run (both cores); the event count is
        unchanged (one event per source per instant).  Without it the kernel
        fans out per source, which is how ``tests/test_event_kernel.py``
        checks the event order.  Ignored on the static/dynamic paths,
        which never batch.

    Returns
    -------
    int
        The number of events executed (one per update, one per query).
    """
    horizon = duration + HORIZON_TOLERANCE
    query_time = query_period
    query_live = query_time <= horizon
    processed = 0

    if merged.mode == MODE_LOCKSTEP:
        times = merged.times
        assert times is not None and merged.columns is not None
        source_count = len(merged.keys)
        if handle_update_batch is not None:
            for position, time in enumerate(times):
                if time > horizon:
                    break
                while query_live and query_time < time:
                    handle_query(query_time)
                    processed += 1
                    query_time += query_period
                    query_live = query_time <= horizon
                handle_update_batch(time, position)
                processed += source_count
        else:
            sources = list(zip(merged.keys, merged.columns))
            for position, time in enumerate(times):
                if time > horizon:
                    break
                while query_live and query_time < time:
                    handle_query(query_time)
                    processed += 1
                    query_time += query_period
                    query_live = query_time <= horizon
                for key, column in sources:
                    handle_update(key, time, column[position])
                processed += source_count
    elif merged.mode == MODE_STATIC:
        times = merged.times
        assert (
            times is not None
            and merged.values is not None
            and merged.source_indices is not None
        )
        keys = merged.keys
        values = merged.values
        source_indices = merged.source_indices
        for position, time in enumerate(times):
            if time > horizon:
                break
            while query_live and query_time < time:
                handle_query(query_time)
                processed += 1
                query_time += query_period
                query_live = query_time <= horizon
            handle_update(keys[source_indices[position]], time, values[position])
            processed += 1
    else:
        # Dynamic path: cross-source ties must follow a scheduler's
        # sequence semantics, so replay the sequence draws with a heap of
        # per-source cursors.  Only update events live in the heap: the
        # query clock never compares sequences against updates (different
        # priorities) and only one query is pending at a time, so the
        # two-pointer interleave is exact.  ``heapq.merge``-style static
        # merging would order ties by input position instead — wrong
        # whenever a tied source's previous event executed late.
        times_per_source = merged.times_per_source
        values_per_source = merged.values_per_source
        assert times_per_source is not None and values_per_source is not None
        keys = merged.keys
        heap = []
        sequence = 0
        for index, times in enumerate(times_per_source):
            if times:
                heap.append((times[0], sequence, index, 0))
                sequence += 1
        heapq.heapify(heap)
        heapreplace = heapq.heapreplace
        heappop = heapq.heappop
        while heap:
            time, _, index, position = heap[0]
            if time > horizon:
                break
            while query_live and query_time < time:
                handle_query(query_time)
                processed += 1
                query_time += query_period
                query_live = query_time <= horizon
            source_times = times_per_source[index]
            next_position = position + 1
            # Advance the source's cursor before running the handler, as a
            # single sift: the successor draws the next tie-break sequence
            # at the same point in the pop order either way (handlers never
            # schedule events), and heapreplace is one sift instead of two.
            if next_position < len(source_times):
                heapreplace(
                    heap,
                    (source_times[next_position], sequence, index, next_position),
                )
                sequence += 1
            else:
                heappop(heap)
            handle_update(keys[index], time, values_per_source[index][position])
            processed += 1

    while query_live:
        handle_query(query_time)
        processed += 1
        query_time += query_period
        query_live = query_time <= horizon
    return processed


class MergedEventWalk:
    """A resumable cursor over a merged timeline's update events.

    :func:`run_batch_kernel` owns its whole walk in one loop, which is the
    fastest shape for an uninterrupted run but leaves callers no way to pause
    between events.  This class exposes the identical update stream through
    an explicit cursor: callers alternate :meth:`advance` (execute every
    update up to a query instant) with their own query handling.  The
    serving load generator (:mod:`repro.serving.loadgen`)
    relies on that shape to interleave awaited RPCs with the walk.

    The event order is exactly :func:`run_batch_kernel`'s: calling
    ``advance(t, handler)`` before handling the query at ``t`` executes every
    update with ``time <= min(t, horizon)`` — updates precede queries at
    equal instants, FIFO within a source, and cross-source ties follow the
    scheduler's sequence-draw semantics on the dynamic path.  Equivalence is
    asserted against ``run_batch_kernel`` in ``tests/test_event_kernel.py``.
    """

    __slots__ = ("_merged", "_horizon", "_position", "_heap", "_sequence", "_sources")

    def __init__(self, merged: MergedTimeline, horizon: float) -> None:
        self._merged = merged
        self._horizon = horizon
        self._position = 0
        self._heap = None
        self._sequence = 0
        self._sources = None
        if merged.mode == MODE_LOCKSTEP:
            assert merged.times is not None and merged.columns is not None
            self._sources = list(zip(merged.keys, merged.columns))
        elif merged.mode != MODE_STATIC:
            times_per_source = merged.times_per_source
            assert times_per_source is not None
            heap = []
            sequence = 0
            for index, times in enumerate(times_per_source):
                if times:
                    heap.append((times[0], sequence, index, 0))
                    sequence += 1
            heapq.heapify(heap)
            self._heap = heap
            self._sequence = sequence

    def advance(self, until: float, handle_update) -> int:
        """Execute every pending update with ``time <= min(until, horizon)``.

        Returns the number of update events executed.  Passing the horizon
        itself drains the stream's tail after the last query tick.
        """
        horizon = self._horizon
        if until > horizon:
            until = horizon
        merged = self._merged
        executed = 0
        if merged.mode == MODE_LOCKSTEP:
            times = merged.times
            sources = self._sources
            position = self._position
            while position < len(times):
                time = times[position]
                if time > until:
                    break
                for key, column in sources:
                    handle_update(key, time, column[position])
                executed += len(sources)
                position += 1
            self._position = position
        elif merged.mode == MODE_STATIC:
            times = merged.times
            keys = merged.keys
            values = merged.values
            source_indices = merged.source_indices
            position = self._position
            while position < len(times):
                time = times[position]
                if time > until:
                    break
                handle_update(keys[source_indices[position]], time, values[position])
                executed += 1
                position += 1
            self._position = position
        else:
            times_per_source = merged.times_per_source
            values_per_source = merged.values_per_source
            keys = merged.keys
            heap = self._heap
            sequence = self._sequence
            heapreplace = heapq.heapreplace
            heappop = heapq.heappop
            while heap:
                time, _, index, position = heap[0]
                if time > until:
                    break
                source_times = times_per_source[index]
                next_position = position + 1
                if next_position < len(source_times):
                    heapreplace(
                        heap,
                        (source_times[next_position], sequence, index, next_position),
                    )
                    sequence += 1
                else:
                    heappop(heap)
                handle_update(keys[index], time, values_per_source[index][position])
                executed += 1
            self._sequence = sequence
        return executed
