"""Event-ordering invariants of the batch kernel vs the general scheduler.

The batch kernel (:mod:`repro.simulation.kernel`) must replicate the
``(time, priority, sequence)`` semantics of :class:`EventScheduler` exactly:
updates before queries at equal instants, FIFO within a class, and the
dynamic cross-source tie-breaking in which two sources tied at one instant
execute in the order their previous events were handled.  These tests drive
randomized tie-heavy workloads through both executors and assert identical
event sequences, then check the same equivalence end-to-end on full
simulations for every merged-timeline representation.
"""

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
from repro.simulation.engine import HORIZON_TOLERANCE, EventScheduler
from repro.simulation.events import EventPriority
from repro.simulation.kernel import run_batch_kernel
from repro.simulation.simulator import CacheSimulation


# ----------------------------------------------------------------------
# Reference executor: the simulator's scheduling pattern on EventScheduler
# ----------------------------------------------------------------------
def scheduler_event_sequence(timelines, duration, query_period):
    """Replay ``{key: (times, values)}`` columns + query clock through the
    general scheduler.

    Reproduces exactly the scheduling pattern of ``CacheSimulation``'s
    fallback path: one in-flight update event per source (rescheduled on
    execution), a periodic recycled query event, horizon checks included.
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
                time=step[0],
                priority=EventPriority.UPDATE,
                action=handle_update,
                key=key,
                payload=step[1],
            )
    if query_period <= horizon:
        scheduler.schedule_at(
            time=query_period, priority=EventPriority.QUERY, action=handle_query
        )
    scheduler.run(until=duration)
    return events, scheduler.processed


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
# End-to-end: whole simulations agree between the kernels
# ----------------------------------------------------------------------
def _walk_simulation(kernel, engine="reference"):
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
        kernel=kernel,
        engine=engine,
        track_keys=("walk-2",),
    )
    policy = AdaptivePrecisionPolicy(
        PrecisionParameters(), initial_width=4.0, rng=random.Random(7)
    )
    return CacheSimulation(config, streams, policy).run()


def _poisson_simulation(kernel):
    engine = get_engine("reference")
    streams = {
        f"counter-{index}": CounterStream(
            mean_interval=1.0, poisson=True, rng=engine.rng(50 + index)
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
        kernel=kernel,
    )
    policy = AdaptivePrecisionPolicy(
        PrecisionParameters(), initial_width=2.0, rng=random.Random(11)
    )
    return CacheSimulation(config, streams, policy).run()


@pytest.mark.parametrize("build", [_walk_simulation, _poisson_simulation])
def test_full_simulation_identical_across_kernels(build):
    batch = build("batch")
    scheduler = build("scheduler")
    assert batch.cost_rate == scheduler.cost_rate
    assert batch.total_cost == scheduler.total_cost
    assert batch.value_refresh_count == scheduler.value_refresh_count
    assert batch.query_refresh_count == scheduler.query_refresh_count
    assert batch.query_count == scheduler.query_count
    assert batch.events_processed == scheduler.events_processed
    assert batch.final_widths == scheduler.final_widths
    assert batch.interval_samples == scheduler.interval_samples


def test_full_simulation_identical_on_vector_engine_static_merge():
    """Under --engine vector the kernel may take the numpy argsort path; the
    results must still match the scheduler fallback draw for draw."""
    batch = _walk_simulation("batch", engine="vector")
    scheduler = _walk_simulation("scheduler", engine="vector")
    assert batch.cost_rate == scheduler.cost_rate
    assert batch.events_processed == scheduler.events_processed
    assert batch.final_widths == scheduler.final_widths


def test_kernel_config_validation():
    with pytest.raises(ValueError, match="unknown kernel"):
        SimulationConfig(duration=10.0, kernel="warp")


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
