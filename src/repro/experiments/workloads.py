"""Shared workload builders used by the experiment modules.

The paper's dynamic-environment experiments all run against the same
network-monitoring trace and mostly differ in algorithm parameters, query
period and constraint distribution.  This module centralises the construction
of those shared pieces (with caching of the synthetic trace, which is the
most expensive artefact to build) so individual experiment modules stay
small and declarative.
"""

from __future__ import annotations

import functools
import math
import random
from typing import Dict, Hashable, Optional, Sequence, Tuple

from repro.caching.policies.adaptive import AdaptivePrecisionPolicy
from repro.caching.policies.exact_caching import ExactCachingPolicy
from repro.core.parameters import PrecisionParameters
from repro.data.engine import DEFAULT_ENGINE
from repro.data.random_walk import RandomWalkGenerator
from repro.data.streams import RandomWalkStream, TraceStream, UpdateStream
from repro.data.trace import Trace
from repro.data.traffic import SyntheticTrafficTraceGenerator
from repro.queries.aggregates import AggregateKind
from repro.simulation.config import SimulationConfig
from repro.simulation.simulator import CacheSimulation
from repro.simulation.metrics import SimulationResult

#: Default laptop-scale settings; the paper's full scale is 50 hosts / 7200 s.
DEFAULT_HOST_COUNT = 25
DEFAULT_TRACE_DURATION = 1500
DEFAULT_WARMUP_FRACTION = 0.2

#: 10**3, the unit the paper abbreviates as ``K`` in Section 4.
KILO = 1_000.0


@functools.lru_cache(maxsize=8)
def traffic_trace(
    host_count: int = DEFAULT_HOST_COUNT,
    duration: int = DEFAULT_TRACE_DURATION,
    seed: int = 7,
    engine: str = DEFAULT_ENGINE,
) -> Trace:
    """Return (and memoise, per process) the synthetic monitoring trace.

    ``engine`` is kept as the fourth positional parameter because the
    benchmark harness in ``perfbench/`` passes :data:`DEFAULT_ENGINE` there;
    any other value raises :class:`ValueError`, as there is one data plane.
    """
    if engine != DEFAULT_ENGINE:
        raise ValueError(
            f"unknown data plane {engine!r}; the only one is {DEFAULT_ENGINE!r}"
        )
    return SyntheticTrafficTraceGenerator(
        host_count=host_count,
        duration_seconds=duration,
        seed=seed,
    ).generate()


def traffic_streams(trace: Trace) -> Dict[Hashable, UpdateStream]:
    """Build one trace-replay update stream per host in ``trace``."""
    return {key: TraceStream(trace, key) for key in trace.keys}


def random_walk_streams(
    count: int,
    seed: int,
    up_probability: float = 0.5,
    start: float = 100.0,
) -> Dict[Hashable, UpdateStream]:
    """Build ``count`` independent random-walk streams (paper Section 4.2 data).

    Every walk gets its own deterministically derived random generator.
    """
    streams: Dict[Hashable, UpdateStream] = {}
    for index in range(count):
        walk = RandomWalkGenerator(
            up_probability=up_probability,
            start=start,
            rng=random.Random(seed * 1000 + index),
        )
        streams[f"walk-{index}"] = RandomWalkStream(walk)
    return streams


def adaptive_policy(
    cost_factor: float = 1.0,
    adaptivity: float = 1.0,
    lower_threshold: float = 0.0,
    upper_threshold: float = math.inf,
    initial_width: float = 1.0,
    seed: int = 0,
) -> AdaptivePrecisionPolicy:
    """Build the paper's policy for a given ``rho`` and tuning parameters."""
    parameters = PrecisionParameters.for_cost_factor(
        cost_factor,
        adaptivity=adaptivity,
        lower_threshold=lower_threshold,
        upper_threshold=upper_threshold,
    )
    return AdaptivePrecisionPolicy(
        parameters, initial_width=initial_width, rng=random.Random(seed)
    )


def serving_policy(cost_factor: float = 1.0, seed: int = 0) -> AdaptivePrecisionPolicy:
    """The serving stack's default policy: the monitoring workload's tuning.

    One construction shared by ``repro serve`` / ``repro loadgen``
    (:mod:`repro.cli`), the ``serving_faults`` experiment and perfbench's
    serving workloads, so the three surfaces always measure the same policy.
    """
    return adaptive_policy(
        cost_factor=cost_factor,
        lower_threshold=1.0 * KILO,
        initial_width=KILO,
        seed=seed,
    )


def serving_config(trace: Trace, seed: int = 5) -> SimulationConfig:
    """The serving stack's default workload config (shared construction).

    The warmup-free twin of the monitoring workload: one construction shared
    by ``repro loadgen`` (:mod:`repro.cli`) and the ``serving_faults`` and
    ``serving_partition_sweep`` experiments, so the CLI's
    ``--compare-offline`` equivalence check and the experiment tables always
    describe the same workload.  ``warmup`` is zero
    because the server has no warm-up notion — all-time counters must match
    the offline run's.
    """
    return traffic_config(
        trace,
        constraint_average=100.0 * KILO,
        constraint_variation=1.0,
        cost_factor=1.0,
        seed=seed,
    ).with_changes(warmup=0.0)


def exact_caching_policy(
    cost_factor: float = 1.0, reevaluation_window: int = 20
) -> ExactCachingPolicy:
    """Build the WJH97 baseline with costs matching a cost factor ``rho``."""
    query_refresh_cost = 2.0
    value_refresh_cost = cost_factor * query_refresh_cost / 2.0
    return ExactCachingPolicy(
        value_refresh_cost=value_refresh_cost,
        query_refresh_cost=query_refresh_cost,
        reevaluation_window=reevaluation_window,
    )


def traffic_config(
    trace: Trace,
    query_period: float = 1.0,
    constraint_average: float = 100.0 * KILO,
    constraint_variation: float = 1.0,
    constraint_bounds: Optional[Tuple[float, float]] = None,
    cost_factor: float = 1.0,
    cache_capacity: Optional[int] = None,
    aggregates: Sequence[AggregateKind] = (AggregateKind.SUM,),
    seed: int = 0,
    track_keys: Sequence[Hashable] = (),
    query_size: Optional[int] = None,
) -> SimulationConfig:
    """Build a simulation config for the network-monitoring workload.

    ``query_size`` defaults to one fifth of the host population, preserving
    the paper's ratio (10 values per query out of 50 hosts) and therefore the
    per-item read rate when experiments run on a reduced host count.
    """
    if query_size is None:
        query_size = max(len(trace.keys) // 5, 1)
    query_refresh_cost = 2.0
    value_refresh_cost = cost_factor * query_refresh_cost / 2.0
    return SimulationConfig(
        duration=trace.duration,
        warmup=trace.duration * DEFAULT_WARMUP_FRACTION,
        query_period=query_period,
        query_size=query_size,
        aggregates=tuple(aggregates),
        constraint_average=constraint_average,
        constraint_variation=constraint_variation,
        constraint_bounds=constraint_bounds,
        cache_capacity=cache_capacity,
        value_refresh_cost=value_refresh_cost,
        query_refresh_cost=query_refresh_cost,
        seed=seed,
        track_keys=tuple(track_keys),
    )


def run_traffic_simulation(
    config: SimulationConfig,
    streams: Dict[Hashable, UpdateStream],
    policy,
) -> SimulationResult:
    """Run one simulation (thin wrapper kept for experiment readability)."""
    return CacheSimulation(config, streams, policy).run()


def best_exact_caching_result(
    config: SimulationConfig,
    stream_factory,
    cost_factor: float,
    windows: Sequence[int] = (5, 10, 20, 40),
) -> SimulationResult:
    """Run the WJH97 baseline for several ``x`` windows and keep the best.

    The paper tunes ``x`` (3 to 45) per run and reports the best value, which
    this helper mirrors with a small grid.  ``stream_factory`` must build a
    fresh set of update streams per run because streams are consumed.
    """
    best: Optional[SimulationResult] = None
    for window in windows:
        policy = exact_caching_policy(cost_factor, reevaluation_window=window)
        result = CacheSimulation(config, stream_factory(), policy).run()
        if best is None or result.cost_rate < best.cost_rate:
            best = result
    assert best is not None
    return best
