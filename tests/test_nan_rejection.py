"""Every numeric constructor field the simulator and the server take rejects NaN.

Construction only: a NaN that a constructor let through would poison every
width, cost or schedule built from it, and ``CounterStream.schedule`` with
a NaN mean interval never terminates, so nothing here draws a schedule.
"""

import math

import pytest

from repro.caching.policies.divergence import DivergenceCachingPolicy
from repro.caching.policies.exact_caching import ExactCachingPolicy
from repro.caching.policies.static import StaticWidthPolicy
from repro.core.parameters import PrecisionParameters
from repro.core.policy import AdaptiveWidthController
from repro.data.random_walk import RandomWalkGenerator
from repro.data.streams import CounterStream, RandomWalkStream
from repro.serving.server import CacheServer
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
