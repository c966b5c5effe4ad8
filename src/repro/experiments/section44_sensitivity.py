"""Section 4.4 sensitivity claims: the lower threshold and constraint spread.

Two textual claims from Section 4.4 are reproduced:

1. **Lower threshold** — with ``theta_0 = 1K`` (a small positive constant)
   the performance of workloads with moderate precision constraints degrades
   by well under a few percent relative to ``theta_0 = 0``, while workloads
   demanding exact answers (``delta_avg = 0``) need ``theta_0 > 0`` at all to
   benefit from caching.
2. **Constraint variation** — widening the spread of precision constraints
   (``sigma`` from 0 to 1) degrades performance only slightly (the paper
   reports 1.9% at ``delta_avg = 100K``, 5.5% at 10K, <1% at 5K).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.experiments.base import ExperimentResult
from repro.experiments.runner import ExperimentPlan, SubRun, run_plan
from repro.experiments.workloads import (
    DEFAULT_HOST_COUNT,
    DEFAULT_TRACE_DURATION,
    KILO,
    adaptive_policy,
    traffic_config,
    traffic_streams,
    traffic_trace,
)
from repro.simulation.simulator import CacheSimulation


def lower_threshold_rows(
    lower_threshold: float,
    constraint_bounds: Tuple[float, float],
    host_count: int,
    duration: int,
    seed: int,
) -> List[Tuple]:
    """The row for one ``theta_0`` setting (picklable sub-run unit)."""
    trace = traffic_trace(host_count=host_count, duration=duration)
    config = traffic_config(
        trace,
        query_period=1.0,
        constraint_bounds=constraint_bounds,
        cost_factor=1.0,
        seed=seed,
    )
    policy = adaptive_policy(
        cost_factor=1.0,
        adaptivity=1.0,
        lower_threshold=lower_threshold,
        upper_threshold=math.inf,
        initial_width=KILO,
        seed=seed,
    )
    result = CacheSimulation(config, traffic_streams(trace), policy).run()
    return [("theta0_study", lower_threshold / KILO, "", result.cost_rate)]


def run_lower_threshold_study(
    constraint_bounds: Tuple[float, float] = (5.0 * KILO, 15.0 * KILO),
    lower_thresholds: Sequence[float] = (0.0, 1.0 * KILO, 5.0 * KILO),
    host_count: int = DEFAULT_HOST_COUNT,
    duration: int = DEFAULT_TRACE_DURATION,
    seed: int = 21,
) -> List[Tuple]:
    """Cost rate as a function of ``theta_0`` for a moderate-constraint workload."""
    rows: List[Tuple] = []
    for lower_threshold in lower_thresholds:
        rows.extend(
            lower_threshold_rows(
                lower_threshold=lower_threshold,
                constraint_bounds=constraint_bounds,
                host_count=host_count,
                duration=duration,
                seed=seed,
            )
        )
    return rows


def constraint_variation_rows(
    constraint_average: float,
    variation: float,
    host_count: int,
    duration: int,
    seed: int,
) -> List[Tuple]:
    """The row for one (delta_avg, sigma) cell (picklable sub-run unit)."""
    trace = traffic_trace(host_count=host_count, duration=duration)
    config = traffic_config(
        trace,
        query_period=1.0,
        constraint_average=constraint_average,
        constraint_variation=variation,
        cost_factor=1.0,
        seed=seed,
    )
    policy = adaptive_policy(
        cost_factor=1.0,
        adaptivity=1.0,
        lower_threshold=1.0 * KILO,
        upper_threshold=math.inf,
        initial_width=KILO,
        seed=seed,
    )
    result = CacheSimulation(config, traffic_streams(trace), policy).run()
    return [("sigma_study", constraint_average / KILO, variation, result.cost_rate)]


def run_constraint_variation_study(
    constraint_averages: Sequence[float] = (5.0 * KILO, 10.0 * KILO, 100.0 * KILO),
    variations: Sequence[float] = (0.0, 1.0),
    host_count: int = DEFAULT_HOST_COUNT,
    duration: int = DEFAULT_TRACE_DURATION,
    seed: int = 21,
) -> List[Tuple]:
    """Cost rate as the constraint spread ``sigma`` widens, per ``delta_avg``."""
    rows: List[Tuple] = []
    for constraint_average in constraint_averages:
        for variation in variations:
            rows.extend(
                constraint_variation_rows(
                    constraint_average=constraint_average,
                    variation=variation,
                    host_count=host_count,
                    duration=duration,
                    seed=seed,
                )
            )
    return rows


DEFAULT_LOWER_THRESHOLDS: Tuple[float, ...] = (0.0, 1.0 * KILO, 5.0 * KILO)
DEFAULT_CONSTRAINT_BOUNDS: Tuple[float, float] = (5.0 * KILO, 15.0 * KILO)
DEFAULT_CONSTRAINT_AVERAGES: Tuple[float, ...] = (5.0 * KILO, 10.0 * KILO, 100.0 * KILO)
DEFAULT_VARIATIONS: Tuple[float, ...] = (0.0, 1.0)


def plan(
    host_count: int = DEFAULT_HOST_COUNT,
    duration: int = DEFAULT_TRACE_DURATION,
    seed: int = 21,
) -> ExperimentPlan:
    """Decompose both studies into one sub-run per parameter cell."""
    subruns = [
        SubRun(
            label=f"theta0={lower_threshold / KILO:g}K",
            func=lower_threshold_rows,
            kwargs=dict(
                lower_threshold=lower_threshold,
                constraint_bounds=DEFAULT_CONSTRAINT_BOUNDS,
                host_count=host_count,
                duration=duration,
                seed=seed,
            ),
        )
        for lower_threshold in DEFAULT_LOWER_THRESHOLDS
    ]
    subruns.extend(
        SubRun(
            label=f"sigma={variation:g}/delta={constraint_average / KILO:g}K",
            func=constraint_variation_rows,
            kwargs=dict(
                constraint_average=constraint_average,
                variation=variation,
                host_count=host_count,
                duration=duration,
                seed=seed,
            ),
        )
        for constraint_average in DEFAULT_CONSTRAINT_AVERAGES
        for variation in DEFAULT_VARIATIONS
    )
    return ExperimentPlan(
        experiment_id="section44",
        title="Section 4.4 sensitivity: lower threshold theta_0 and constraint spread sigma",
        columns=("study", "theta_0 (K) / delta_avg (K)", "sigma", "Omega"),
        subruns=tuple(subruns),
        notes=(
            "Expected: a small positive theta_0 (1K) costs only a few percent for "
            "moderate constraints; widening sigma from 0 to 1 degrades performance "
            "by only a few percent."
        ),
    )


def run(
    host_count: int = DEFAULT_HOST_COUNT,
    duration: int = DEFAULT_TRACE_DURATION,
    seed: int = 21,
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Produce both Section 4.4 sensitivity studies."""
    return run_plan(
        plan(
            host_count=host_count,
            duration=duration,
            seed=seed,
        ),
        workers=workers,
    )
