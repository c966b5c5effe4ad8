"""The general discrete-event scheduler, kept as the batch kernel's oracle.

The simulator executes every run on the merged-timeline batch kernel
(:mod:`repro.simulation.kernel`).  The kernel's contract is that it executes
events in exactly the order a priority-queue scheduler would: by
``(time, priority, sequence)``, updates before queries at equal instants,
FIFO within a class, and a tie-break sequence drawn whenever an event is
(re)scheduled.  This module is that scheduler, small enough to read at a
glance, together with :func:`scheduler_event_sequence`, which replays a
workload through it the way the simulator would schedule it.  The tests
compare the kernel against it event for event.
"""

from __future__ import annotations

import heapq
import itertools
from enum import IntEnum
from typing import Any, Callable, Hashable, List, Optional, Tuple

from repro.simulation.kernel import HORIZON_TOLERANCE

#: Slack when rejecting events scheduled in the scheduler's past; absorbs the
#: float round-off of accumulated periodic schedules (``time += period``).
PAST_TOLERANCE = 1e-12


class EventPriority(IntEnum):
    """Tie-breaking order for events scheduled at the same instant."""

    UPDATE = 0
    QUERY = 1


_sequence = itertools.count()


class SimulationEvent:
    """An event ordered by ``(time, priority, sequence)``."""

    __slots__ = ("time", "priority", "sequence", "action", "key", "payload")

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        action: Callable[["SimulationEvent"], None],
        key: Optional[Hashable] = None,
        payload: Any = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.action = action
        self.key = key
        self.payload = payload

    def __lt__(self, other: "SimulationEvent") -> bool:
        mine = (self.time, self.priority, self.sequence)
        return mine < (other.time, other.priority, other.sequence)

    @classmethod
    def create(
        cls,
        time: float,
        priority: EventPriority,
        action: Callable[["SimulationEvent"], None],
        key: Optional[Hashable] = None,
        payload: Any = None,
    ) -> "SimulationEvent":
        """Build an event with an automatically assigned tie-break sequence."""
        if time < 0:
            raise ValueError("event time must be non-negative")
        return cls(time, int(priority), next(_sequence), action, key, payload)


class EventScheduler:
    """Priority-queue based discrete-event executor.

    The heap stores ``(time, priority, sequence, event)`` tuples; the unique
    sequence guarantees the event object itself is never compared.
    """

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, int, SimulationEvent]] = []
        self._now = 0.0
        self._processed = 0

    @property
    def now(self) -> float:
        """The timestamp of the most recently executed event."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def _push(self, event: SimulationEvent) -> None:
        if event.time + PAST_TOLERANCE < self._now:
            raise ValueError(
                f"cannot schedule event at {event.time} before current time {self._now}"
            )
        heapq.heappush(self._queue, (event.time, event.priority, event.sequence, event))

    def schedule_at(
        self,
        time: float,
        priority: EventPriority,
        action: Callable[[SimulationEvent], None],
        key=None,
        payload=None,
    ) -> SimulationEvent:
        """Create an event and queue it; it must not lie in the past."""
        event = SimulationEvent.create(time, priority, action, key, payload)
        self._push(event)
        return event

    def reschedule(
        self, event: SimulationEvent, time: float, payload=None
    ) -> SimulationEvent:
        """Re-queue an already-executed event at a new time.

        The event draws a fresh tie-break sequence exactly as a newly
        created event would.  It must not still be pending.
        """
        event.time = time
        event.payload = payload
        event.sequence = next(_sequence)
        self._push(event)
        return event

    def run(self, until: Optional[float] = None) -> int:
        """Execute queued events in order; returns how many ran.

        Events later than ``until + HORIZON_TOLERANCE`` stay queued.
        """
        executed = 0
        queue = self._queue
        horizon = None if until is None else until + HORIZON_TOLERANCE
        while queue:
            time = queue[0][0]
            if horizon is not None and time > horizon:
                break
            self.step()
            executed += 1
        if until is not None and until > self._now:
            self._now = until
        return executed

    def step(self) -> Optional[SimulationEvent]:
        """Execute exactly one event (or return ``None`` if idle)."""
        if not self._queue:
            return None
        time, _, _, event = heapq.heappop(self._queue)
        if time > self._now:
            self._now = time
        event.action(event)
        self._processed += 1
        return event


def scheduler_event_sequence(timelines, duration, query_period):
    """Replay ``{key: (times, values)}`` columns and the query clock.

    Schedules the workload as a simulator on this scheduler would: one
    in-flight update event per source, rescheduled on execution with the
    source's next step, and one periodic query event, rescheduled every
    ``query_period`` while it stays within the horizon.  Returns the
    executed events as ``("update", key, time, value)`` and
    ``("query", None, time, None)`` tuples, with the executed-event count.
    """
    events = []
    scheduler = EventScheduler()
    cursors = {key: zip(times, values) for key, (times, values) in timelines.items()}
    horizon = duration + HORIZON_TOLERANCE

    def handle_update(event):
        events.append(("update", event.key, event.time, event.payload))
        step = next(cursors[event.key], None)
        if step is not None:
            scheduler.reschedule(event, step[0], step[1])

    def handle_query(event):
        events.append(("query", None, event.time, None))
        next_time = event.time + query_period
        if next_time <= horizon:
            scheduler.reschedule(event, next_time)

    for key in timelines:
        step = next(cursors[key], None)
        if step is not None:
            scheduler.schedule_at(
                step[0], EventPriority.UPDATE, handle_update, key=key, payload=step[1]
            )
    if query_period <= horizon:
        scheduler.schedule_at(query_period, EventPriority.QUERY, handle_query)
    scheduler.run(until=duration)
    return events, scheduler.processed
