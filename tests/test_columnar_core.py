"""The columnar core's contract: bit-identical to the object world.

Two families of guarantees pin PR 8's struct-of-arrays hot path:

* **Round trips** — random per-source state survives ``ColumnarState``
  mirroring and a whole cache survives ``cache_to_columns`` /
  ``columns_to_cache`` field for field (endpoints, original widths, access
  times, hence eviction priorities).  Floats cross between worlds through
  float64 arrays, which round-trip exactly, so equality here is ``==``, not
  approximate.
* **Run equality** — a ``CacheSimulation`` with ``core="columnar"`` leaves
  a result, sources and cache entries identical in every field to
  ``core="object"`` on adaptive, mixed-aggregate, capacity-bounded, sharded,
  tracked and wide-query (vectorised query path) workloads, including the
  regimes that exercise the escape-rate bailout and the sharded scalar
  fallback.
"""

from __future__ import annotations

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caching.cache import ApproximateCache
from repro.caching.columnar import (
    ColumnarState,
    cache_to_columns,
    columns_to_cache,
)
from repro.caching.policies.adaptive import AdaptivePrecisionPolicy
from repro.caching.source import DataSource
from repro.core.parameters import PrecisionParameters
from repro.data.random_walk import RandomWalkGenerator
from repro.data.streams import RandomWalkStream
from repro.intervals.interval import UNBOUNDED, Interval
from repro.queries.aggregates import AggregateKind
from repro.simulation.config import SimulationConfig
from repro.simulation.simulator import CacheSimulation

# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

finite = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@st.composite
def intervals(draw):
    """A published interval: bounded, half-bounded or ``UNBOUNDED``."""
    shape = draw(st.sampled_from(("bounded", "low-open", "high-open", "unbounded")))
    if shape == "unbounded":
        return UNBOUNDED
    low = draw(finite)
    if shape == "low-open":
        return Interval(-math.inf, low)
    if shape == "high-open":
        return Interval(low, math.inf)
    width = draw(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    return Interval(low, low + width)


@st.composite
def source_populations(draw):
    """A keyed population of ``DataSource`` objects with random state."""
    count = draw(st.integers(min_value=1, max_value=12))
    sources = {}
    for index in range(count):
        key = f"host-{index}"
        source = DataSource(key=key, value=draw(finite))
        source.update_count = draw(st.integers(min_value=0, max_value=1000))
        source.last_update_time = draw(times)
        source.last_refresh_time = draw(times)
        if draw(st.booleans()):
            source.published_interval = draw(intervals())
            source.published_width = draw(
                st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
            )
        sources[key] = source
    return sources


@st.composite
def populated_caches(draw):
    """An ``ApproximateCache`` holding random entries with distinct times."""
    count = draw(st.integers(min_value=0, max_value=10))
    cache = ApproximateCache()
    for index in range(count):
        installed = draw(times)
        cache.put(
            f"key-{index}",
            draw(intervals()),
            draw(st.floats(min_value=0.0, max_value=1e6, allow_nan=False)),
            installed,
        )
        if draw(st.booleans()):
            cache.get(f"key-{index}", installed + draw(times), record_stats=False)
    return cache


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------


class TestColumnarStateRoundTrip:
    @given(source_populations())
    @settings(max_examples=80, deadline=None)
    def test_mirror_equals_sources_and_round_trips(self, sources):
        state = ColumnarState(tuple(sources), sources)
        assert state.equals_sources(sources)
        rebuilt = state.to_sources()
        assert set(rebuilt) == set(sources)
        for key, source in sources.items():
            clone = rebuilt[key]
            assert clone.value == source.value
            assert clone.update_count == source.update_count
            assert clone.last_update_time == source.last_update_time
            assert clone.published_width == source.published_width
            assert clone.last_refresh_time == source.last_refresh_time
            assert clone.published_interval == source.published_interval

    @given(source_populations(), finite, times)
    @settings(max_examples=50, deadline=None)
    def test_sync_source_writes_array_owned_fields_back(
        self, sources, value, time
    ):
        state = ColumnarState(tuple(sources), sources)
        key = next(iter(sources))
        index = state.index_of[key]
        state.values[index] = value
        state.update_count[index] += 3
        state.last_update_time[index] = time
        state.sync_source(sources[key], index)
        assert sources[key].value == value
        assert sources[key].last_update_time == time
        assert state.equals_sources(sources)

    @given(source_populations())
    @settings(max_examples=50, deadline=None)
    def test_equality_detects_a_drifted_field(self, sources):
        state = ColumnarState(tuple(sources), sources)
        key = next(iter(sources))
        sources[key].value += 1.0
        assert not state.equals_sources(sources)

    @given(source_populations())
    @settings(max_examples=50, deadline=None)
    def test_publication_mirroring(self, sources):
        state = ColumnarState(tuple(sources), sources)
        for key, source in sources.items():
            index = state.index_of[key]
            expected = (
                source.published_interval
                if source.published_interval is not None
                else UNBOUNDED
            )
            assert state.interval_at(index) == expected
            state.clear_publication(index)
            assert state.interval_at(index) == UNBOUNDED


class TestCacheRoundTrip:
    @given(populated_caches())
    @settings(max_examples=80, deadline=None)
    def test_cache_columns_cache_is_field_identical(self, cache):
        rebuilt = columns_to_cache(cache_to_columns(cache))
        original = cache.entries()
        clones = rebuilt.entries()
        assert len(clones) == len(original)
        for entry, clone in zip(original, clones):
            assert clone.key == entry.key
            assert clone.interval == entry.interval
            assert clone.original_width == entry.original_width
            assert clone.installed_at == entry.installed_at
            assert clone.last_access_time == entry.last_access_time

    @given(populated_caches())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_preserves_eviction_order(self, cache):
        # Evicting everything from both caches (capacity 0 re-put) must pick
        # victims in the same order: priorities and sequence tie-breaks
        # survive the columnar decomposition.
        entries = cache.entries()
        first = columns_to_cache(cache_to_columns(cache))
        second = columns_to_cache(cache_to_columns(cache))
        assert [entry.key for entry in first.entries()] == [
            entry.key for entry in second.entries()
        ] == [entry.key for entry in entries]

    def test_columns_are_parallel_float_arrays(self):
        cache = ApproximateCache()
        cache.put("a", Interval(1.0, 3.0), 2.0, 1.0)
        cache.put("b", UNBOUNDED, 0.0, 2.0)
        columns = cache_to_columns(cache)
        assert columns["keys"] == ["a", "b"]
        assert columns["low"].tolist() == [1.0, -math.inf]
        assert columns["high"].tolist() == [3.0, math.inf]
        assert columns["width"].tolist() == [2.0, math.inf]


# ---------------------------------------------------------------------------
# Columnar vs object runs
# ---------------------------------------------------------------------------


def _run(core: str, host_count: int = 5, policy=None, **overrides):
    """Run one simulation; returns ``(result, simulation)``."""
    streams = {
        f"walk-{index}": RandomWalkStream(
            RandomWalkGenerator(start=100.0, rng=random.Random(index))
        )
        for index in range(host_count)
    }
    config_kwargs = dict(
        duration=120.0,
        warmup=10.0,
        query_period=1.0,
        query_size=3,
        constraint_average=20.0,
        constraint_variation=1.0,
        seed=3,
        core=core,
    )
    config_kwargs.update(overrides)
    config = SimulationConfig(**config_kwargs)
    if policy is None:
        policy = AdaptivePrecisionPolicy(
            PrecisionParameters(), initial_width=4.0, rng=random.Random(3)
        )
    simulation = CacheSimulation(config, streams, policy)
    return simulation.run(), simulation


def _post_run_state(result, simulation):
    """Everything a caller can inspect after a run, as comparable values:
    the result, every source and every cache entry, field for field."""
    return (
        dataclasses.asdict(result),
        {key: dataclasses.asdict(source) for key, source in simulation.sources.items()},
        [dataclasses.asdict(entry) for entry in simulation.cache.entries()],
    )


RUN_CASES = {
    "adaptive": dict(),
    "mixed-aggregates": dict(
        aggregates=(
            AggregateKind.SUM,
            AggregateKind.MAX,
            AggregateKind.MIN,
            AggregateKind.AVG,
        )
    ),
    "capacity-bounded": dict(cache_capacity=4),
    "sharded": dict(shards=3, host_count=8),
    "tracked-keys": dict(track_keys=("walk-0", "walk-2")),
    # 36 keys per query reach the vectorised query path, which counts hits
    # without touching the cache entries.
    "wide-query": dict(host_count=40, query_size=36),
}


class TestColumnarRunEquality:
    @pytest.mark.parametrize("name", sorted(RUN_CASES))
    def test_columnar_equals_object_field_for_field(self, name):
        overrides = dict(RUN_CASES[name])
        host_count = overrides.pop("host_count", 5)
        object_state = _post_run_state(
            *_run("object", host_count=host_count, **overrides)
        )
        columnar_state = _post_run_state(
            *_run("columnar", host_count=host_count, **overrides)
        )
        assert columnar_state[0] == object_state[0]
        assert columnar_state[1] == object_state[1]
        assert columnar_state[2] == object_state[2]


class _BailSpy:
    """Counts the columnar walk's escape-rate bailouts."""

    def __init__(self, monkeypatch):
        self.bails = 0
        original = CacheSimulation._col_bail

        def bail(simulation, time, position):
            self.bails += 1
            return original(simulation, time, position)

        monkeypatch.setattr(CacheSimulation, "_col_bail", bail)


class _WriteLoggingPolicy(AdaptivePrecisionPolicy):
    """The adaptive policy plus a write observer, which keeps a run off the
    columnar walk: every core takes the object lockstep walk."""

    def __init__(self):
        super().__init__(PrecisionParameters(), initial_width=4.0, rng=random.Random(3))
        self.writes = []

    def record_write(self, key, time):
        self.writes.append((key, time))


class TestFusedChainEquality:
    """The fused per-event chain against the object core and the scheduler:
    an escape-heavy run that bails to the object walk mid-run, and a run
    whose policy observes writes."""

    @pytest.mark.parametrize(
        "query_size", [3, 36], ids=["scalar-queries", "columnar-queries"]
    )
    def test_escape_heavy_run_bails_and_matches_object(self, monkeypatch, query_size):
        # Tight constraints shrink the bounds until a large share of the
        # updates escape, so the probe window hands the run back.
        overrides = dict(
            host_count=40,
            query_size=query_size,
            constraint_average=0.5,
            duration=200.0,
        )
        object_state = _post_run_state(*_run("object", **overrides))
        spy = _BailSpy(monkeypatch)
        columnar_state = _post_run_state(*_run("columnar", **overrides))
        assert spy.bails == 1
        assert columnar_state[0] == object_state[0]
        assert columnar_state[1] == object_state[1]
        assert columnar_state[2] == object_state[2]

    def test_write_observing_tracked_run_matches_across_cores_and_kernels(self):
        overrides = dict(host_count=8, query_size=4, track_keys=("walk-1", "walk-5"))
        states = {}
        writes = {}
        for core in ("columnar", "object"):
            policy = _WriteLoggingPolicy()
            states[core] = _post_run_state(*_run(core, policy=policy, **overrides))
            writes[core] = policy.writes
        assert writes["object"]
        assert states["object"][0]["interval_samples"]
        assert writes["columnar"] == writes["object"]
        assert states["columnar"][0] == states["object"][0]
        assert states["columnar"][1] == states["object"][1]
        assert states["columnar"][2] == states["object"][2]
