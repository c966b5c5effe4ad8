"""Post-warm-up refresh accounting, recounted from a log of every refresh.

A run's refresh counts and cost are its network model's counters, which the
cache core restarts at the first refresh at or after the warm-up end.  Each
case wraps the run's policy so that it logs ``(time, kind)`` on every
refresh, recounts the post-warm-up refreshes and their cost in event order
from that log, and asserts exact equality (``==``, not approx) with the
:class:`~repro.simulation.metrics.SimulationResult`: summing the costs from
0.0 in event order is how the result must have summed them.
"""

import random

import pytest

from repro.caching.policies.adaptive import AdaptivePrecisionPolicy
from repro.caching.policies.base import PrecisionPolicy
from repro.caching.policies.exact_caching import ExactCachingPolicy
from repro.caching.policies.static import StaticWidthPolicy
from repro.core.parameters import PrecisionParameters
from repro.data.random_walk import RandomWalkGenerator
from repro.data.streams import CounterStream, RandomWalkStream
from repro.simulation.config import SimulationConfig
from repro.simulation.simulator import CacheSimulation

DURATION = 120.0
SOURCES = 6


class _Logged(PrecisionPolicy):
    """Delegates to ``inner`` and logs ``(time, kind)`` on every refresh."""

    def __init__(self, inner):
        self.inner = inner
        self.log = []

    def on_value_initiated_refresh(self, key, exact_value, time):
        self.log.append((time, "value"))
        return self.inner.on_value_initiated_refresh(key, exact_value, time)

    def on_query_initiated_refresh(self, key, exact_value, time):
        self.log.append((time, "query"))
        return self.inner.on_query_initiated_refresh(key, exact_value, time)

    def record_write(self, key, time):
        self.inner.record_write(key, time)

    def record_read(self, key, time, served_from_cache):
        self.inner.record_read(key, time, served_from_cache)

    def record_constraint(self, key, constraint, time):
        self.inner.record_constraint(key, constraint, time)

    def notifies_source_on_eviction(self):
        return self.inner.notifies_source_on_eviction()


def _streams(kind, seed):
    """``SOURCES`` streams: a shared one-second grid, or Poisson counters."""
    if kind == "lockstep":
        return {
            f"walk-{index}": RandomWalkStream(
                RandomWalkGenerator(start=100.0, rng=random.Random(seed * 100 + index))
            )
            for index in range(SOURCES)
        }
    return {
        f"counter-{index}": CounterStream(
            mean_interval=0.7, poisson=True, rng=random.Random(seed * 100 + index)
        )
        for index in range(SOURCES)
    }


def _policy(name, c_vr, c_qr, seed):
    if name == "adaptive":
        return AdaptivePrecisionPolicy(
            PrecisionParameters(value_refresh_cost=c_vr, query_refresh_cost=c_qr),
            initial_width=4.0,
            rng=random.Random(seed),
        )
    if name == "wjh97":
        return ExactCachingPolicy(value_refresh_cost=c_vr, query_refresh_cost=c_qr)
    return StaticWidthPolicy(width=float(name))


def _recount(log, warmup, c_vr, c_qr):
    """The post-warm-up counts and cost, summed in event order from 0.0."""
    value = query = 0
    cost = 0.0
    for time, kind in log:
        if time < warmup:
            continue
        if kind == "value":
            value += 1
            cost += c_vr
        else:
            query += 1
            cost += c_qr
    return value, query, cost


def _run(streams, policy, warmup, c_vr, c_qr, seed, **overrides):
    settings = dict(
        duration=DURATION,
        warmup=warmup,
        query_period=1.0,
        query_size=3,
        constraint_average=6.0,
        constraint_variation=1.0,
        value_refresh_cost=c_vr,
        query_refresh_cost=c_qr,
        seed=seed,
    )
    settings.update(overrides)
    logged = _Logged(policy)
    simulation = CacheSimulation(SimulationConfig(**settings), streams, logged)
    return simulation, simulation.run(), logged.log


def _assert_result_is_the_recount(simulation, result, log, warmup, c_vr, c_qr):
    value, query, cost = _recount(log, warmup, c_vr, c_qr)
    assert (result.value_refresh_count, result.query_refresh_count) == (value, query)
    assert result.total_cost == cost
    duration = DURATION - warmup
    assert result.cost_rate == cost / duration
    assert result.value_refresh_rate == value / duration
    assert result.query_refresh_rate == query / duration
    # The simulator's network model is the counter the result was read from.
    network = simulation.network
    assert (network.value_refreshes, network.query_refreshes) == (value, query)
    assert network.total_cost == cost


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "stream_kind, policy_name, warmup, c_vr, c_qr",
    [
        ("lockstep", "adaptive", 0.0, 1.0, 2.0),
        # 40.0 is both an update instant of the grid and a query instant.
        ("lockstep", "adaptive", 40.0, 1.0, 2.0),
        ("lockstep", "adaptive", 40.0, 0.1, 0.3),
        ("lockstep", "adaptive", 33.3, 0.1, 0.3),
        ("lockstep", "wjh97", 40.0, 0.1, 0.3),
        ("poisson", "adaptive", 0.0, 0.1, 0.3),
        ("poisson", "adaptive", 37.5, 0.1, 0.3),
        ("poisson", "adaptive", 37.5, 4.0, 2.0),
        ("poisson", "wjh97", 37.5, 0.1, 0.3),
    ],
)
def test_result_equals_the_post_warmup_recount(
    stream_kind, policy_name, warmup, c_vr, c_qr, seed
):
    simulation, result, log = _run(
        _streams(stream_kind, seed),
        _policy(policy_name, c_vr, c_qr, seed),
        warmup,
        c_vr,
        c_qr,
        seed,
    )
    # Non-trivial: refreshes on both sides of the warm-up end.
    assert any(time < warmup for time, _ in log) == (warmup > 0)
    assert any(time >= warmup for time, _ in log)
    _assert_result_is_the_recount(simulation, result, log, warmup, c_vr, c_qr)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("c_vr, c_qr", [(1.0, 2.0), (0.1, 0.3)])
def test_warmup_exactly_on_a_poisson_update_instant(c_vr, c_qr, seed):
    # The warm-up only decides what is counted, so a first run finds an
    # update instant that fired a value-initiated refresh, and a second run
    # ends its warm-up there and logs the same refreshes.
    _, _, first_log = _run(
        _streams("poisson", seed),
        _policy("adaptive", c_vr, c_qr, seed),
        0.0,
        c_vr,
        c_qr,
        seed,
    )
    warmup = next(t for t, kind in first_log if kind == "value" and t > 30.0)
    assert warmup != int(warmup)  # an update instant, not a query instant
    simulation, result, log = _run(
        _streams("poisson", seed),
        _policy("adaptive", c_vr, c_qr, seed),
        warmup,
        c_vr,
        c_qr,
        seed,
    )
    assert log == first_log
    _assert_result_is_the_recount(simulation, result, log, warmup, c_vr, c_qr)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("stream_kind", ["lockstep", "poisson"])
def test_no_refresh_after_warmup_counts_zero(stream_kind, seed):
    # Every interval is wide enough to hold its value for the whole run and
    # every query is loose enough to accept it, so the only refreshes are
    # the first fetch of each key, all inside the warm-up.
    simulation, result, log = _run(
        _streams(stream_kind, seed),
        _policy("1e9", 0.1, 0.3, seed),
        60.0,
        0.1,
        0.3,
        seed,
        query_size=SOURCES,
        constraint_average=1e12,
    )
    assert log and all(time < 60.0 for time, _ in log)
    assert (result.refresh_count, result.total_cost, result.cost_rate) == (0, 0.0, 0.0)
    _assert_result_is_the_recount(simulation, result, log, 60.0, 0.1, 0.3)
