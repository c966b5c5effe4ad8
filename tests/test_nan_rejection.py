"""Every numeric constructor field the simulator and the server take rejects NaN.

Construction only: a NaN that a constructor let through would poison every
width, cost or schedule built from it, and ``CounterStream.schedule`` with
a NaN mean interval never terminates, so nothing here draws a schedule.
"""

import math
from types import SimpleNamespace

import pytest

from repro.caching.cache import ApproximateCache
from repro.caching.core import CacheCore
from repro.caching.policies.base import PrecisionDecision, PrecisionPolicy
from repro.caching.policies.divergence import DivergenceCachingPolicy
from repro.caching.policies.exact_caching import ExactCachingPolicy
from repro.caching.policies.static import StaticWidthPolicy
from repro.core.parameters import PrecisionParameters
from repro.core.policy import AdaptiveWidthController
from repro.data.random_walk import RandomWalkGenerator
from repro.data.streams import CounterStream, RandomWalkStream
from repro.intervals.interval import Interval
from repro.serving.server import CacheServer
from repro.simulation.metrics import MetricsCollector
from repro.simulation.network import NetworkModel

NAN = math.nan
PARAMETERS = PrecisionParameters()
POLICY = StaticWidthPolicy(1.0)

#: One case per field: the class and its keyword arguments, one of them NaN.
CASES = [
    (CounterStream, {"mean_interval": NAN}),
    (RandomWalkStream, {"interval": NAN}),
    (RandomWalkGenerator, {"step_low": NAN}),
    (RandomWalkGenerator, {"step_high": NAN}),
    (NetworkModel, {"value_refresh_cost": NAN}),
    (NetworkModel, {"query_refresh_cost": NAN}),
    (NetworkModel, {"latency_per_message": NAN}),
    (ExactCachingPolicy, {"value_refresh_cost": NAN}),
    (ExactCachingPolicy, {"query_refresh_cost": NAN}),
    (DivergenceCachingPolicy, {"value_refresh_cost": NAN}),
    (DivergenceCachingPolicy, {"query_refresh_cost": NAN}),
    (DivergenceCachingPolicy, {"initial_allowance": NAN}),
    (StaticWidthPolicy, {"width": NAN}),
    (AdaptiveWidthController, {"parameters": PARAMETERS, "initial_width": NAN}),
    (CacheServer, {"policy": POLICY, "refresh_timeout": NAN}),
    (CacheServer, {"policy": POLICY, "degraded_slack": NAN}),
    (PrecisionDecision, {"interval": Interval(0.0, 1.0), "original_width": NAN}),
    (MetricsCollector, {"warmup": NAN}),
]


def _case_id(case):
    cls, fields = case
    (field,) = [name for name, value in fields.items() if value is NAN]
    return f"{cls.__name__}.{field}"


@pytest.mark.parametrize("case", CASES, ids=[_case_id(case) for case in CASES])
def test_nan_field_is_rejected(case):
    cls, fields = case
    with pytest.raises(ValueError):
        cls(**fields)


# ----------------------------------------------------------------------
# A NaN ``original_width`` past construction: the cache and the core
# ----------------------------------------------------------------------
def test_cache_put_rejects_nan_width_and_keeps_widest_first_eviction():
    """A NaN width compares false both ways, so a capacity-1 cache that took
    one kept it and evicted every wider entry that followed."""
    cache = ApproximateCache(capacity=1)
    with pytest.raises(ValueError, match="original_width must be non-negative"):
        cache.put("nan", Interval(0.0, 1.0), NAN, time=0.0)
    assert len(cache) == 0
    assert cache.put("narrow", Interval(0.0, 1.0), 1.0, time=1.0) == []
    # Widest first: the incoming 100-wide entry is the one evicted.
    assert cache.put("wide", Interval(0.0, 100.0), 100.0, time=2.0) == ["wide"]
    assert cache.get("narrow") is not None and cache.get("wide") is None


class _NanWidthPolicy(PrecisionPolicy):
    """Decides a plain namespace with a NaN width, which ``PrecisionDecision``
    itself would refuse, so only the core's own check stands in the way."""

    def _decide(self, key, exact_value, time):
        interval = Interval.centered(exact_value, 2.0)
        return SimpleNamespace(interval=interval, original_width=NAN)

    on_value_initiated_refresh = _decide
    on_query_initiated_refresh = _decide


@pytest.mark.parametrize("query_initiated", [True, False], ids=["query", "value"])
def test_core_refresh_rejects_nan_width(query_initiated):
    core = CacheCore(_NanWidthPolicy(), ApproximateCache(capacity=1), NetworkModel())
    core.register("a", 10.0)
    with pytest.raises(ValueError, match="original_width must be non-negative"):
        core.refresh("a", 1.0, query_initiated)
    assert core.sources["a"].published_interval is None
    assert len(core.cache) == 0
