"""Event-ordering invariants of the batch kernel vs the oracle scheduler.

The batch kernel (:mod:`repro.simulation.kernel`) must replicate the
``(time, priority, sequence)`` semantics of the general discrete-event
scheduler kept in ``scheduler_oracle`` exactly: updates before queries at
equal instants, FIFO within a class, and the dynamic cross-source
tie-breaking in which two sources tied at one instant execute in the order
their previous events were handled.  These tests drive randomized tie-heavy
workloads through both executors and assert identical event sequences, then
check the same equivalence end-to-end: a simulation replayed from the
oracle's event sequence must match ``CacheSimulation.run()`` field for
field, for every merged-timeline representation.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caching.policies.adaptive import AdaptivePrecisionPolicy
from repro.core.parameters import PrecisionParameters
from repro.data.engine import get_engine
from repro.data.merged import (
    MODE_DYNAMIC,
    MODE_LOCKSTEP,
    MODE_STATIC,
    merge_timelines,
)
from repro.data.random_walk import RandomWalkGenerator
from repro.data.streams import CounterStream, RandomWalkStream
from repro.simulation.config import SimulationConfig
from repro.simulation.kernel import HORIZON_TOLERANCE, run_batch_kernel
from repro.simulation.metrics import SimulationResult
from repro.simulation.simulator import CacheSimulation
from scheduler_oracle import EventPriority, EventScheduler, scheduler_event_sequence


def kernel_event_sequence(timelines, duration, query_period, engine=None):
    """Replay the same workload through the batch kernel."""
    events = []
    merged = merge_timelines(timelines, engine=engine)
    processed = run_batch_kernel(
        merged,
        duration=duration,
        query_period=query_period,
        handle_update=lambda key, time, value: events.append(
            ("update", key, time, value)
        ),
        handle_query=lambda time: events.append(("query", None, time, None)),
    )
    return events, processed, merged.mode


# ----------------------------------------------------------------------
# Randomized tie-heavy equivalence (the kernel's core contract)
# ----------------------------------------------------------------------
@st.composite
def tie_heavy_workloads(draw):
    """Several sources on small-integer time grids: cross-source ties abound."""
    source_count = draw(st.integers(min_value=1, max_value=5))
    duration = draw(st.integers(min_value=3, max_value=20))
    query_period = draw(st.sampled_from([1.0, 2.0, 3.0, 2.5]))
    timelines = {}
    for index in range(source_count):
        # Integer event times in [1, duration + 1]; non-decreasing with
        # possible repeats inside one source, heavy collisions across
        # sources.  A source may also be empty.
        length = draw(st.integers(min_value=0, max_value=12))
        times = sorted(
            draw(
                st.lists(
                    st.integers(min_value=1, max_value=duration + 1),
                    min_size=length,
                    max_size=length,
                )
            )
        )
        timelines[f"src-{index}"] = (
            [float(time) for time in times],
            [float(position) for position in range(length)],
        )
    return timelines, float(duration), query_period


@settings(max_examples=200, deadline=None)
@given(tie_heavy_workloads())
def test_kernel_matches_scheduler_on_tie_heavy_workloads(workload):
    timelines, duration, query_period = workload
    expected, expected_count = scheduler_event_sequence(
        timelines, duration, query_period
    )
    actual, actual_count, _ = kernel_event_sequence(timelines, duration, query_period)
    assert actual == expected
    assert actual_count == expected_count


@settings(max_examples=100, deadline=None)
@given(tie_heavy_workloads())
def test_kernel_matches_scheduler_with_vector_merge(workload):
    """The vector engine's batch merge must never alter the event order."""
    timelines, duration, query_period = workload
    expected, _ = scheduler_event_sequence(timelines, duration, query_period)
    actual, _, _ = kernel_event_sequence(
        timelines, duration, query_period, engine=get_engine("vector")
    )
    assert actual == expected


# ----------------------------------------------------------------------
# The scheduler's own tie-break invariants (the contract being replicated)
# ----------------------------------------------------------------------
def test_updates_execute_before_queries_at_equal_timestamps():
    order = []
    scheduler = EventScheduler()
    scheduler.schedule_at(
        time=5.0,
        priority=EventPriority.QUERY,
        action=lambda event: order.append("query"),
    )
    scheduler.schedule_at(
        time=5.0,
        priority=EventPriority.UPDATE,
        action=lambda event: order.append("update"),
        key="k",
    )
    scheduler.run()
    assert order == ["update", "query"]


def test_fifo_within_a_priority_class():
    order = []
    scheduler = EventScheduler()
    for label in ("first", "second", "third"):
        scheduler.schedule_at(
            time=1.0,
            priority=EventPriority.UPDATE,
            action=lambda event: order.append(event.key),
            key=label,
        )
    scheduler.run()
    assert order == ["first", "second", "third"]


def test_tied_sources_follow_predecessor_processing_order():
    """The dynamic tie-break: at a shared instant, the source whose previous
    event ran *earlier* executes first — regardless of insertion order."""
    # Insertion order B then A, but A's predecessor (t=1) runs before B's
    # (t=3), so at t=5 A must run before B.
    timelines = {
        "b": ([3.0, 5.0], [0.0, 1.0]),
        "a": ([1.0, 5.0], [0.0, 1.0]),
    }
    expected, _ = scheduler_event_sequence(timelines, 6.0, 100.0)
    update_order = [key for kind, key, time, _ in expected if time == 5.0]
    assert update_order == ["a", "b"]
    actual, _, mode = kernel_event_sequence(timelines, 6.0, 100.0)
    assert mode == MODE_DYNAMIC
    assert actual == expected
    # The static merge would order this tie by insertion position (b first),
    # which is why the vector engine must refuse to batch-merge it.
    assert (
        get_engine("vector").merge_timelines(
            [[3.0, 5.0], [1.0, 5.0]], [[0.0, 1.0], [0.0, 1.0]]
        )
        is None
    )


# ----------------------------------------------------------------------
# Merged-timeline representations
# ----------------------------------------------------------------------
def test_lockstep_mode_for_identical_grids():
    timelines = {
        "a": ([1.0, 2.0], [10.0, 11.0]),
        "b": ([1.0, 2.0], [20.0, 21.0]),
    }
    merged = merge_timelines(timelines)
    assert merged.mode == MODE_LOCKSTEP
    assert merged.event_count == 4


def test_static_mode_for_disjoint_times_with_vector_engine():
    timelines = {
        "a": ([1.0, 4.0], [10.0, 11.0]),
        "b": ([2.5, 3.5], [20.0, 21.0]),
    }
    merged = merge_timelines(timelines, engine=get_engine("vector"))
    assert merged.mode == MODE_STATIC
    assert merged.times == [1.0, 2.5, 3.5, 4.0]
    assert merged.source_indices == [0, 1, 1, 0]
    assert merged.values == [10.0, 20.0, 21.0, 11.0]


def test_dynamic_mode_without_engine_merge():
    timelines = {
        "a": ([1.0, 4.0], [10.0, 11.0]),
        "b": ([2.5], [20.0]),
    }
    merged = merge_timelines(timelines)
    assert merged.mode == MODE_DYNAMIC
    assert merged.event_count == 3


# ----------------------------------------------------------------------
# End-to-end: a simulation replayed from the oracle's events equals run()
# ----------------------------------------------------------------------
def _walk_simulation():
    streams = {
        f"walk-{index}": RandomWalkStream(
            RandomWalkGenerator(start=100.0, rng=random.Random(index))
        )
        for index in range(4)
    }
    config = SimulationConfig(
        duration=150.0,
        warmup=15.0,
        query_period=1.5,
        query_size=3,
        constraint_average=25.0,
        constraint_variation=1.0,
        seed=7,
        track_keys=("walk-2",),
    )
    policy = AdaptivePrecisionPolicy(
        PrecisionParameters(), initial_width=4.0, rng=random.Random(7)
    )
    return CacheSimulation(config, streams, policy)


def _poisson_simulation(engine_name="reference"):
    engine = get_engine(engine_name)
    streams = {
        f"counter-{index}": CounterStream(
            mean_interval=1.0, poisson=True, rng=engine.rng(50 + index), engine=engine
        )
        for index in range(3)
    }
    config = SimulationConfig(
        duration=120.0,
        warmup=12.0,
        query_period=2.0,
        query_size=2,
        constraint_average=4.0,
        seed=11,
        engine=engine_name,
    )
    policy = AdaptivePrecisionPolicy(
        PrecisionParameters(), initial_width=2.0, rng=random.Random(11)
    )
    return CacheSimulation(config, streams, policy)


def _oracle_replay(simulation):
    """Run ``simulation`` on the oracle scheduler's event sequence.

    The kernel is bypassed: every event the oracle executes is fed, in its
    order, to the simulator's own update and query bodies.
    """
    config = simulation.config
    events, processed = scheduler_event_sequence(
        simulation._columns, config.duration, config.query_period
    )

    def execute():
        for kind, key, time, value in events:
            if kind == "update":
                simulation._apply_one_update(key, time, value)
            else:
                simulation._run_query(time)
        return processed

    simulation._execute = execute
    return simulation.run()


@pytest.mark.parametrize(
    "build, mode",
    [
        (_walk_simulation, MODE_LOCKSTEP),
        (_poisson_simulation, MODE_DYNAMIC),
        (lambda: _poisson_simulation("vector"), MODE_STATIC),
    ],
    ids=["walk-lockstep", "poisson-dynamic", "vector-static"],
)
def test_full_simulation_matches_oracle_replay(build, mode):
    simulation = build()
    merged = merge_timelines(
        simulation._columns, engine=simulation.config.stream_engine()
    )
    assert merged.mode == mode
    actual = simulation.run()
    expected = _oracle_replay(build())
    for field in dataclasses.fields(SimulationResult):
        assert getattr(actual, field.name) == getattr(expected, field.name), field.name
    assert actual.events_processed > 0


# ----------------------------------------------------------------------
# MergedEventWalk: the resumable cursor equals the kernel's event stream
# ----------------------------------------------------------------------
def walk_event_sequence(timelines, duration, query_period, engine=None):
    """Replay the workload through MergedEventWalk's advance/drain pattern."""
    from repro.simulation.kernel import MergedEventWalk

    events = []
    merged = merge_timelines(timelines, engine=engine)
    horizon = duration + HORIZON_TOLERANCE
    walk = MergedEventWalk(merged, horizon)
    processed = 0
    query_time = query_period
    def collect(key, time, value):
        events.append(("update", key, time, value))

    while query_time <= horizon:
        processed += walk.advance(query_time, collect)
        events.append(("query", None, query_time, None))
        processed += 1
        query_time += query_period
    processed += walk.advance(horizon, collect)
    return events, processed


@settings(max_examples=150, deadline=None)
@given(tie_heavy_workloads())
def test_merged_event_walk_matches_kernel(workload):
    timelines, duration, query_period = workload
    if not any(times for times, _ in timelines.values()):
        timelines["src-extra"] = ([1.0], [0.0])
    kernel_events, kernel_processed, _ = kernel_event_sequence(
        timelines, duration, query_period
    )
    walk_events, walk_processed = walk_event_sequence(timelines, duration, query_period)
    assert walk_events == kernel_events
    assert walk_processed == kernel_processed


def test_merged_event_walk_matches_kernel_on_vector_static_merge():
    rng = random.Random(11)
    timelines = {
        f"src-{index}": (
            sorted(round(rng.uniform(0.1, 19.9), 3) + index * 20.0 for _ in range(8)),
            [float(step) for step in range(8)],
        )
        for index in range(3)
    }
    engine = get_engine("vector")
    kernel_events, kernel_processed, mode = kernel_event_sequence(
        timelines, 70.0, 3.0, engine=engine
    )
    walk_events, walk_processed = walk_event_sequence(
        timelines, 70.0, 3.0, engine=engine
    )
    assert mode == MODE_STATIC
    assert walk_events == kernel_events
    assert walk_processed == kernel_processed
