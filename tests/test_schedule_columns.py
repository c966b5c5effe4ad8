"""The column contract of :meth:`UpdateStream.schedule`.

A schedule is a ``(times, values)`` pair of parallel lists; ``updates()``
zips the same columns.  The streams of one trace share a single ``times``
list, which :func:`merge_timelines` recognises as a lockstep grid.  The
columns must describe exactly the events the per-event loops used to emit,
and the dynamic merged representation built from them must equal the one
built from per-event tuples.
"""

import random

import pytest

from repro.data.merged import MODE_DYNAMIC, MODE_LOCKSTEP, merge_timelines
from repro.data.random_walk import RandomWalkGenerator
from repro.data.streams import (
    CounterStream,
    RandomWalkStream,
    TraceStream,
    streams_from_trace,
)
from repro.data.trace import Trace
from repro.data.traffic import SyntheticTrafficTraceGenerator


def _trace():
    return SyntheticTrafficTraceGenerator(
        host_count=3, duration_seconds=90, seed=5
    ).generate()


def _trace_stream():
    trace = _trace()
    return TraceStream(trace, trace.keys[1])


STREAM_BUILDERS = {
    "random_walk": lambda: RandomWalkStream(
        RandomWalkGenerator(start=20.0, rng=random.Random(3)), interval=0.7
    ),
    "trace": _trace_stream,
    "counter": lambda: CounterStream(mean_interval=1.3, start=0.1),
    "poisson_counter": lambda: CounterStream(
        mean_interval=0.8, poisson=True, rng=random.Random(9)
    ),
}


def _legacy_trace_updates(trace, key, duration):
    """The per-event loop ``TraceStream.schedule`` used to run."""
    values = trace.series[key]
    events = []
    for index in range(1, len(values)):
        time = index * trace.sample_interval
        if time > duration + 1e-9:
            break
        events.append((time, values[index]))
    return events


def _legacy_periodic_counter_updates(mean_interval, start, duration):
    """The per-event loop the periodic ``CounterStream`` used to run."""
    events = []
    time, value = 0.0, start
    while True:
        time += mean_interval
        if time > duration + 1e-9:
            return events
        value += 1.0
        events.append((time, value))


def _split(events):
    return [time for time, _ in events], [value for _, value in events]


@pytest.mark.parametrize("kind", sorted(STREAM_BUILDERS))
def test_updates_zip_the_schedule_columns(kind):
    build = STREAM_BUILDERS[kind]
    times, values = build().schedule(60.0)
    assert isinstance(times, list) and isinstance(values, list)
    assert len(times) == len(values) > 0
    assert times == sorted(times) and 0.0 < times[0] and times[-1] <= 60.0
    assert list(build().updates(60.0)) == list(zip(times, values))


@pytest.mark.parametrize("duration", [0.5, 1.0, 29.999999999, 30.0, 44.4, 500.0])
@pytest.mark.parametrize("interval", [1.0, 0.3])
def test_trace_schedule_equals_legacy_loop(duration, interval):
    trace = Trace(
        series={"a": [float(i % 7) for i in range(120)], "b": [1.0] * 120},
        sample_interval=interval,
    )
    for key in trace.keys:
        expected = _legacy_trace_updates(trace, key, duration)
        assert list(TraceStream(trace, key).updates(duration)) == expected
        assert TraceStream(trace, key).schedule(duration) == _split(expected)


@pytest.mark.parametrize("start", [0.0, 0.1, 1e17])
def test_periodic_counter_equals_legacy_loop(start):
    expected = _legacy_periodic_counter_updates(0.3, start, 40.0)
    stream = CounterStream(mean_interval=0.3, start=start)
    assert list(stream.updates(40.0)) == expected


def test_streams_of_one_trace_share_one_times_list():
    trace = _trace()
    schedules = {
        key: stream.schedule(45.0) for key, stream in streams_from_trace(trace).items()
    }
    grid = next(iter(schedules.values()))[0]
    assert all(times is grid for times, _ in schedules.values())
    assert grid == [float(second) for second in range(1, 46)]
    merged = merge_timelines(schedules)
    assert merged.mode == MODE_LOCKSTEP
    assert merged.times is grid
    assert merged.columns == [values for _, values in schedules.values()]
    # A different horizon gets its own grid, still shared across streams.
    longer = [stream.schedule(60.0)[0] for stream in streams_from_trace(trace).values()]
    assert longer[0] is not grid and all(times is longer[0] for times in longer)


POISSON_SEEDS = (70, 71, 72)


def _poisson_columns():
    return {
        seed: CounterStream(
            mean_interval=1.0, poisson=True, rng=random.Random(seed)
        ).schedule(80.0)
        for seed in POISSON_SEEDS
    }


def _legacy_poisson_split():
    """Per-event tuples from the loop the Poisson ``CounterStream`` used to
    run, split per source the way ``merge_timelines`` used to split them."""
    split = []
    for seed in POISSON_SEEDS:
        rng = random.Random(seed)
        events, time, value = [], 0.0, 0.0
        while True:
            time += rng.expovariate(1.0)
            if time > 80.0 + 1e-9:
                break
            value += 1.0
            events.append((time, value))
        split.append(_split(events))
    return [times for times, _ in split], [values for _, values in split]


def test_dynamic_mode_equals_the_legacy_events():
    merged = merge_timelines(_poisson_columns())
    assert merged.mode == MODE_DYNAMIC
    times_per_source, values_per_source = _legacy_poisson_split()
    assert merged.times_per_source == times_per_source
    assert merged.values_per_source == values_per_source
