"""Unit tests for the oracle discrete-event scheduler and its events."""

import pytest
from scheduler_oracle import EventPriority, EventScheduler, SimulationEvent


class TestSimulationEvent:
    def test_create_assigns_increasing_sequence(self):
        first = SimulationEvent.create(1.0, EventPriority.UPDATE, lambda e: None)
        second = SimulationEvent.create(1.0, EventPriority.UPDATE, lambda e: None)
        assert second.sequence > first.sequence

    def test_ordering_by_time(self):
        early = SimulationEvent.create(1.0, EventPriority.QUERY, lambda e: None)
        late = SimulationEvent.create(2.0, EventPriority.UPDATE, lambda e: None)
        assert early < late

    def test_ordering_by_priority_at_same_time(self):
        update = SimulationEvent.create(1.0, EventPriority.UPDATE, lambda e: None)
        query = SimulationEvent.create(1.0, EventPriority.QUERY, lambda e: None)
        assert update < query

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            SimulationEvent.create(-1.0, EventPriority.UPDATE, lambda e: None)


class TestEventScheduler:
    def test_runs_events_in_time_order(self):
        scheduler = EventScheduler()
        log = []
        scheduler.schedule_at(3.0, EventPriority.UPDATE, lambda e: log.append(3))
        scheduler.schedule_at(1.0, EventPriority.UPDATE, lambda e: log.append(1))
        scheduler.schedule_at(2.0, EventPriority.UPDATE, lambda e: log.append(2))
        scheduler.run()
        assert log == [1, 2, 3]

    def test_updates_run_before_queries_at_same_instant(self):
        scheduler = EventScheduler()
        log = []
        scheduler.schedule_at(1.0, EventPriority.QUERY, lambda e: log.append("query"))
        scheduler.schedule_at(1.0, EventPriority.UPDATE, lambda e: log.append("update"))
        scheduler.run()
        assert log == ["update", "query"]

    def test_run_until_leaves_future_events_queued(self):
        scheduler = EventScheduler()
        log = []
        scheduler.schedule_at(1.0, EventPriority.UPDATE, lambda e: log.append(1))
        scheduler.schedule_at(5.0, EventPriority.UPDATE, lambda e: log.append(5))
        executed = scheduler.run(until=2.0)
        assert executed == 1
        assert log == [1]
        assert scheduler.pending == 1
        assert scheduler.now == 2.0

    def test_events_can_schedule_more_events(self):
        scheduler = EventScheduler()
        log = []

        def periodic(event):
            log.append(event.time)
            if event.time < 3.0:
                scheduler.schedule_at(event.time + 1.0, EventPriority.UPDATE, periodic)

        scheduler.schedule_at(1.0, EventPriority.UPDATE, periodic)
        scheduler.run()
        assert log == [1.0, 2.0, 3.0]

    def test_cannot_schedule_into_the_past(self):
        scheduler = EventScheduler()
        scheduler.schedule_at(5.0, EventPriority.UPDATE, lambda e: None)
        scheduler.run()
        with pytest.raises(ValueError):
            scheduler.schedule_at(1.0, EventPriority.UPDATE, lambda e: None)

    def test_step_executes_single_event(self):
        scheduler = EventScheduler()
        log = []
        scheduler.schedule_at(1.0, EventPriority.UPDATE, lambda e: log.append("a"))
        scheduler.schedule_at(2.0, EventPriority.UPDATE, lambda e: log.append("b"))
        event = scheduler.step()
        assert event is not None
        assert log == ["a"]
        assert scheduler.pending == 1

    def test_step_on_empty_queue_returns_none(self):
        assert EventScheduler().step() is None

    def test_processed_counter(self):
        scheduler = EventScheduler()
        for time in (1.0, 2.0, 3.0):
            scheduler.schedule_at(time, EventPriority.UPDATE, lambda e: None)
        scheduler.run()
        assert scheduler.processed == 3

    def test_event_payload_and_key_passed_through(self):
        scheduler = EventScheduler()
        seen = {}

        def action(event):
            seen["key"] = event.key
            seen["payload"] = event.payload

        scheduler.schedule_at(1.0, EventPriority.UPDATE, action, key="abc", payload=42)
        scheduler.run()
        assert seen == {"key": "abc", "payload": 42}
