"""Every numeric constructor field rejects NaN, and the out-of-range values
each one accepts are named with a reason.

Construction only: a NaN that a constructor let through would poison every
width, cost or schedule built from it, and ``CounterStream.schedule`` with
a NaN mean interval or ``OpenLoopProfile.arrival_times`` with a NaN
duration never terminates, so nothing here draws a schedule or an arrival.

``CASES`` declares each public constructor with an int- or float-annotated
parameter in the simulator and serving packages, the keyword arguments it
needs, and the numeric fields it checks.  NaN must always raise
``ValueError``; each of -inf, -1.0, 0.0 and +inf must raise it too unless
``ALLOWED`` names the value with a reason.  ``EXCLUDED`` names the public
classes left out, and ``test_every_numeric_constructor_is_covered`` fails
when a new one is neither in the table nor excluded.
"""

import importlib
import inspect
import math
import pkgutil
from types import SimpleNamespace

import pytest

from repro.caching.cache import ApproximateCache
from repro.caching.core import CacheCore
from repro.caching.policies.adaptive import (
    AdaptivePrecisionPolicy,
    UncenteredAdaptivePolicy,
)
from repro.caching.policies.base import PrecisionDecision, PrecisionPolicy
from repro.caching.policies.divergence import DivergenceCachingPolicy
from repro.caching.policies.exact_caching import ExactCachingPolicy
from repro.caching.policies.static import StaticWidthPolicy
from repro.core.cost_model import CostModel
from repro.core.parameters import PrecisionParameters
from repro.core.policy import AdaptiveWidthController
from repro.core.variations import (
    HistoryWindowController,
    TimeVaryingWidthController,
    UncenteredWidthController,
)
from repro.data.random_walk import RandomWalkGenerator
from repro.data.streams import CounterStream, RandomWalkStream
from repro.data.trace import Trace
from repro.data.traffic import BurstModel, SyntheticTrafficTraceGenerator
from repro.intervals.interval import Interval
from repro.intervals.placement import (
    LinearGrowthPlacement,
    PowerGrowthPlacement,
    UncenteredPlacement,
)
from repro.intervals.staleness import StalenessBound
from repro.queries.constraints import (
    ConstraintDistribution,
    PrecisionConstraintGenerator,
)
from repro.queries.workload import QueryWorkload
from repro.serving.api import Client, ServeConfig
from repro.serving.durability import PartitionDurability
from repro.serving.faults import FaultPlan
from repro.serving.gateway import GatewayServer
from repro.serving.loadgen import OpenLoopProfile, RetryPolicy
from repro.serving.procs import ProcessPartitionPool, ServerProcess
from repro.serving.server import BaseFrameServer, CacheServer
from repro.simulation.config import SimulationConfig
from repro.simulation.metrics import MetricsCollector
from repro.simulation.network import NetworkModel

NAN = math.nan
INF = math.inf
PARAMETERS = PrecisionParameters()
POLICY = StaticWidthPolicy(1.0)
SERVER_FIELDS = ("max_inflight_queries", "admission_queue_limit", "refresh_timeout")
COSTS = ("value_refresh_cost", "query_refresh_cost")

#: ``(class, keyword arguments it needs, numeric fields it checks)``.
CASES = [
    (ApproximateCache, {}, ("capacity",)),
    (
        CacheCore,
        {"policy": POLICY, "cache": ApproximateCache(), "network": NetworkModel()},
        ("count_from",),
    ),
    (AdaptivePrecisionPolicy, {"parameters": PARAMETERS}, ("initial_width",)),
    (UncenteredAdaptivePolicy, {"parameters": PARAMETERS}, ("initial_width",)),
    (PrecisionDecision, {"interval": Interval(0.0, 1.0)}, ("original_width",)),
    (
        DivergenceCachingPolicy,
        {},
        (*COSTS, "window_size", "initial_allowance"),
    ),
    (ExactCachingPolicy, {}, (*COSTS, "reevaluation_window")),
    (StaticWidthPolicy, {}, ("width",)),
    (CostModel, {"parameters": PARAMETERS}, ("k1", "k2")),
    (
        PrecisionParameters,
        {},
        (
            *COSTS,
            "adaptivity",
            "lower_threshold",
            "upper_threshold",
            "cost_factor_multiplier",
        ),
    ),
    (AdaptiveWidthController, {"parameters": PARAMETERS}, ("initial_width",)),
    (HistoryWindowController, {"parameters": PARAMETERS}, ("initial_width", "window")),
    (
        TimeVaryingWidthController,
        {"parameters": PARAMETERS},
        ("initial_width", "exponent", "growth_scale"),
    ),
    (UncenteredWidthController, {"parameters": PARAMETERS}, ("initial_width",)),
    (
        RandomWalkGenerator,
        {},
        ("step_low", "step_high", "up_probability", "start"),
    ),
    (CounterStream, {}, ("mean_interval", "start")),
    (RandomWalkStream, {}, ("interval",)),
    (Trace, {"series": {"a": [1.0, 2.0]}}, ("sample_interval",)),
    (
        BurstModel,
        {
            "mean_off_seconds": 100.0,
            "pareto_shape": 1.5,
            "min_burst_seconds": 10.0,
            "peak_rate": 1e6,
            "activity_bias": 0.5,
        },
        (
            "mean_off_seconds",
            "pareto_shape",
            "min_burst_seconds",
            "peak_rate",
            "activity_bias",
        ),
    ),
    (
        SyntheticTrafficTraceGenerator,
        {},
        ("host_count", "duration_seconds", "peak_rate", "smoothing_window_seconds"),
    ),
    (LinearGrowthPlacement, {}, ("drift_rate",)),
    (PowerGrowthPlacement, {}, ("exponent", "growth_scale")),
    (UncenteredPlacement, {}, ("upper_fraction",)),
    (
        StalenessBound,
        {"snapshot": 1.0, "refresh_update_count": 0, "allowance": 1.0},
        ("snapshot", "refresh_update_count", "allowance"),
    ),
    (
        ConstraintDistribution,
        {"minimum": 0.0, "maximum": 1.0},
        ("minimum", "maximum"),
    ),
    (PrecisionConstraintGenerator, {"average": 1.0}, ("average", "variation")),
    (
        QueryWorkload,
        {
            "keys": ["a"],
            "period": 1.0,
            "constraint_generator": PrecisionConstraintGenerator(1.0),
        },
        ("period", "query_size"),
    ),
    (Client, {"transport": None}, ("default_deadline",)),
    (
        ServeConfig,
        {},
        ("partitions", "capacity", "cost_factor", "max_inflight", "checkpoint_every"),
    ),
    (
        PartitionDurability,
        {"directory": "wal"},
        ("partition_index", "checkpoint_every"),
    ),
    (
        FaultPlan,
        {},
        (
            "drop_rate",
            "truncate_rate",
            "delay_rate",
            "delay_seconds",
            "reorder_rate",
            "reorder_window",
            "kill_every",
            "outage_queries",
            "partition_kill_every",
            "partition_kills",
        ),
    ),
    (
        GatewayServer,
        {"targets": ["tcp://127.0.0.1:1"]},
        (*SERVER_FIELDS, "recovery_grace"),
    ),
    (
        OpenLoopProfile,
        {},
        (
            "duration_s",
            "base_rate",
            "peak_rate",
            "zipf_s",
            "keys_per_query",
            "constraint",
        ),
    ),
    (RetryPolicy, {}, ("attempts", "base_delay", "max_delay")),
    (
        ProcessPartitionPool,
        {"partitions": 1},
        ("partitions", "start_timeout", "max_restarts"),
    ),
    (ServerProcess, {}, ("start_timeout",)),
    (BaseFrameServer, {}, SERVER_FIELDS),
    (
        CacheServer,
        {"policy": POLICY},
        (
            "capacity",
            *COSTS,
            "latency_per_message",
            *SERVER_FIELDS,
            "degraded_slack",
        ),
    ),
    (
        SimulationConfig,
        {"duration": 100.0},
        (
            "duration",
            "warmup",
            "query_period",
            "query_size",
            "constraint_average",
            "constraint_variation",
            "cache_capacity",
            *COSTS,
        ),
    ),
    (MetricsCollector, {}, ("warmup",)),
    (
        NetworkModel,
        {},
        (
            *COSTS,
            "messages_per_value_refresh",
            "messages_per_query_refresh",
            "latency_per_message",
        ),
    ),
]


def _allow(cls, fields, values, reason):
    return {(cls, field, value): reason for field in fields for value in values}


#: ``(class, field, value) -> reason`` for each out-of-range value a field
#: accepts.  NaN is never here.
ALLOWED = {
    **_allow(CacheCore, ["count_from"], [0.0], "count from the first refresh"),
    **_allow(CacheCore, ["count_from"], [INF], "never restart the count"),
    **_allow(PrecisionDecision, ["original_width"], [0.0, INF], "exact, or uncached"),
    **_allow(
        DivergenceCachingPolicy,
        ["initial_allowance"],
        [0.0, INF],
        "exact, or never stale",
    ),
    **_allow(StaticWidthPolicy, ["width"], [0.0], "exact caching"),
    **_allow(StaticWidthPolicy, ["width"], [INF], "theta_1: never cached"),
    **_allow(PrecisionParameters, ["adaptivity"], [0.0], "alpha = 0: fixed width"),
    **_allow(
        PrecisionParameters,
        ["lower_threshold", "upper_threshold"],
        [0.0, INF],
        "theta_0 = theta_1 is exact caching (Section 4.6); theta_1 = inf is the "
        "paper's default, theta_0 = inf makes every copy exact",
    ),
    **_allow(TimeVaryingWidthController, ["growth_scale"], [0.0], "no growth"),
    **_allow(RandomWalkGenerator, ["step_low"], [0.0], "steps may be empty"),
    **_allow(RandomWalkGenerator, ["up_probability"], [0.0], "a falling walk"),
    **_allow(RandomWalkGenerator, ["start"], [-1.0, 0.0], "any finite start"),
    **_allow(CounterStream, ["start"], [-1.0, 0.0], "any finite start"),
    **_allow(
        BurstModel,
        ["pareto_shape"],
        [INF],
        "the Pareto limit: every burst lasts min_burst_seconds",
    ),
    **_allow(BurstModel, ["activity_bias"], [0.0], "a host at its base rate"),
    **_allow(LinearGrowthPlacement, ["drift_rate"], [-1.0, 0.0], "either way"),
    **_allow(PowerGrowthPlacement, ["growth_scale"], [0.0], "no growth"),
    **_allow(UncenteredPlacement, ["upper_fraction"], [0.0], "all below"),
    **_allow(StalenessBound, ["snapshot"], [-1.0, 0.0], "any finite value"),
    **_allow(StalenessBound, ["refresh_update_count"], [0.0], "before any update"),
    **_allow(StalenessBound, ["allowance"], [0.0, INF], "exact, or never stale"),
    **_allow(ConstraintDistribution, ["minimum"], [0.0], "delta_min = 0"),
    **_allow(ConstraintDistribution, ["maximum"], [0.0], "every query exact"),
    **_allow(ConstraintDistribution, ["maximum"], [INF], "delta_max may be inf"),
    **_allow(
        PrecisionConstraintGenerator, ["average"], [0.0, INF], "delta may be 0 or inf"
    ),
    **_allow(PrecisionConstraintGenerator, ["variation"], [0.0], "one constraint"),
    **_allow(Client, ["default_deadline"], [INF], "no deadline"),
    **_allow(PartitionDurability, ["partition_index"], [0.0], "the first one"),
    **_allow(
        FaultPlan,
        [
            "drop_rate",
            "truncate_rate",
            "delay_rate",
            "delay_seconds",
            "reorder_rate",
            "kill_every",
            "outage_queries",
            "partition_kill_every",
            "partition_kills",
        ],
        [0.0],
        "that fault off",
    ),
    **_allow(
        OpenLoopProfile, ["peak_rate"], [0.0], "no peak: the shape keeps base_rate"
    ),
    **_allow(OpenLoopProfile, ["zipf_s"], [0.0], "uniform key popularity"),
    **_allow(OpenLoopProfile, ["constraint"], [0.0], "an exact answer"),
    **_allow(OpenLoopProfile, ["constraint"], [INF], "any precision"),
    **_allow(ProcessPartitionPool, ["max_restarts"], [0.0], "no restart"),
    **_allow(
        BaseFrameServer, ["admission_queue_limit"], [0.0], "reject when saturated"
    ),
    **_allow(BaseFrameServer, ["refresh_timeout"], [INF], "no refresh deadline"),
    **_allow(GatewayServer, ["admission_queue_limit"], [0.0], "reject when saturated"),
    **_allow(GatewayServer, ["refresh_timeout"], [INF], "no refresh deadline"),
    **_allow(GatewayServer, ["recovery_grace"], [0.0], "answer from the mirror"),
    **_allow(GatewayServer, ["recovery_grace"], [INF], "wait for recovery"),
    **_allow(CacheServer, ["admission_queue_limit"], [0.0], "reject when saturated"),
    **_allow(CacheServer, ["refresh_timeout"], [INF], "no refresh deadline"),
    **_allow(CacheServer, ["latency_per_message"], [0.0], "no simulated latency"),
    **_allow(SimulationConfig, ["warmup"], [0.0], "no warm-up"),
    **_allow(
        SimulationConfig,
        ["constraint_average"],
        [0.0, INF],
        "exact queries, or any precision",
    ),
    **_allow(SimulationConfig, ["constraint_variation"], [0.0], "one constraint"),
    **_allow(MetricsCollector, ["warmup"], [0.0], "no warm-up"),
    **_allow(NetworkModel, ["latency_per_message"], [0.0], "no simulated latency"),
}

#: Public classes with an int- or float-annotated constructor parameter that
#: the table leaves out, with the reason.
EXCLUDED = {
    # Per-event objects: built once per update, refresh, lookup or query and
    # checked inline (docs/PERFORMANCE.md, "Why per-event checks stay inline").
    "repro.intervals.interval.Interval": "per-event; rejects NaN inline",
    "repro.queries.workload.Query": "per-query; rejects NaN inline",
    "repro.caching.cache.CacheEntry": "per-put state of a checked put",
    "repro.caching.source.DataSource": "per-key state the core fills in",
    "repro.queries.refresh_selection.QueryExecution": "a query's result record",
    # Results and counters the program fills in, never configuration.
    "repro.caching.cache.CacheStatistics": "counters",
    "repro.core.policy.ControllerState": "a controller's state snapshot",
    "repro.simulation.metrics.IntervalSample": "a sampled result row",
    "repro.simulation.metrics.SimulationResult": "a run's results",
    "repro.serving.loadgen.LoadgenReport": "a replay's results",
    "repro.serving.server.ServingStatistics": "counters",
    # Built by the program from a configuration checked above.
    "repro.queries.workload.DrawScript": "built by QueryWorkload's checks",
    "repro.simulation.kernel.MergedEventWalk": "horizon from SimulationConfig",
    "repro.serving.faults.SessionFaults": "per-connection state of a FaultPlan",
    # Exceptions, whose numbers report a fault.
    "repro.serving.durability.WalCorruption": "an exception",
    "repro.serving.errors.SupervisionExhausted": "an exception",
    "repro.serving.errors.UnrecoverablePartition": "an exception",
    # A socket address, checked by the operating system when dialled.
    "repro.serving.loadgen.TcpDialer": "a port number",
    # Wire messages, decoded and checked per frame by the protocol codec.
    "repro.serving.protocol.BoundedAnswer": "a wire message",
    "repro.serving.protocol.QueryRequest": "a wire message",
    "repro.serving.protocol.RefreshKey": "a wire message",
    "repro.serving.protocol.RegisterAck": "a wire message",
    "repro.serving.protocol.RegisterFeeder": "a wire message",
    "repro.serving.protocol.Snapshot": "a wire message",
    "repro.serving.protocol.SnapshotReply": "a wire message",
    "repro.serving.protocol.Update": "a wire message",
    "repro.serving.protocol.UpdateBatch": "a wire message",
    "repro.serving.protocol.UpdateBatchAck": "a wire message",
}

PACKAGES = (
    "repro.caching",
    "repro.core",
    "repro.data",
    "repro.intervals",
    "repro.queries",
    "repro.simulation",
    "repro.serving",
)


def _field_cases():
    for cls, base, fields in CASES:
        for field in fields:
            yield pytest.param(cls, base, field, id=f"{cls.__name__}.{field}")


def _value_cases():
    for cls, base, fields in CASES:
        for field in fields:
            for value in (-INF, -1.0, 0.0, INF):
                name = f"{cls.__name__}.{field}={value:g}"
                yield pytest.param(cls, base, field, value, id=name)


@pytest.mark.parametrize("cls,base,field", _field_cases())
def test_nan_field_is_rejected(cls, base, field):
    with pytest.raises(ValueError):
        cls(**{**base, field: NAN})


@pytest.mark.parametrize("cls,base,field,value", _value_cases())
def test_out_of_range_value_is_rejected_or_allowed(cls, base, field, value):
    if (cls, field, value) in ALLOWED:
        cls(**{**base, field: value})
    else:
        with pytest.raises(ValueError):
            cls(**{**base, field: value})


def test_allow_list_names_only_table_fields():
    declared = {(cls, field) for cls, _, fields in CASES for field in fields}
    assert {(cls, field) for cls, field, _ in ALLOWED} <= declared


def _numeric_constructors():
    """Dotted names of the public classes whose constructor takes an int- or
    float-annotated parameter (``Optional`` of either included)."""
    numeric = {"int", "float", "Optional[int]", "Optional[float]", int, float}
    found = set()
    for package in PACKAGES:
        module = importlib.import_module(package)
        names = [package] + [
            info.name for info in pkgutil.walk_packages(module.__path__, package + ".")
        ]
        for name in names:
            for attribute, obj in vars(importlib.import_module(name)).items():
                if attribute.startswith("_") or not inspect.isclass(obj):
                    continue
                if obj.__module__ != name:
                    continue
                try:
                    parameters = inspect.signature(obj).parameters.values()
                except (TypeError, ValueError):
                    continue
                if any(parameter.annotation in numeric for parameter in parameters):
                    found.add(f"{name}.{attribute}")
    return found


def test_every_numeric_constructor_is_covered():
    covered = {f"{cls.__module__}.{cls.__qualname__}" for cls, _, _ in CASES}
    missing = _numeric_constructors() - covered - set(EXCLUDED)
    assert not missing, f"add to CASES or EXCLUDED with a reason: {sorted(missing)}"


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
