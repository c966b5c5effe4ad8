"""Shard-count scaling sweep on the network-monitoring workload.

This experiment is not a paper reproduction — it characterises the sharded
multi-cache topology (:mod:`repro.sharding`) that the production-scale
roadmap adds on top of the paper's algorithm.  A large host population runs
the standard adaptive policy behind 1, 2, 4 and 8 cache shards at a fixed
total cache capacity, and the table records, per shard count:

* ``Omega`` — the cost rate, which must stay essentially flat: partitioning
  only changes *where* an approximation lives, while per-shard eviction
  budgets can shift which victims are chosen when space is tight;
* ``hit_rate`` and ``skew`` — the global workload hit rate plus the spread
  (max - min) of the per-shard hit rates, the load-balance signal of the
  hash partitioning;
* ``events`` and ``events/s(sim)`` — the kernel's total event count and
  its per-simulated-second rate.  Both are deterministic (wall-clock
  throughput depends on the host machine, which would break the
  identical-rows guarantee of the parallel runner; wall-clock comparisons
  belong to ``benchmarks/``).

Every (shard count) cell is an independent, deterministically seeded
simulation, so the sweep fans out over the process pool like any other
experiment plan.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.experiments.base import ExperimentResult
from repro.experiments.runner import ExperimentPlan, SubRun, run_plan
from repro.experiments.workloads import (
    KILO,
    adaptive_policy,
    traffic_config,
    traffic_streams,
    traffic_trace,
)
from repro.simulation.simulator import CacheSimulation

#: Larger than the paper-reproduction defaults (25 hosts): the sharded
#: topology only becomes interesting when each shard holds a real population.
DEFAULT_HOST_COUNT = 100
DEFAULT_DURATION = 600
DEFAULT_SHARD_COUNTS: Tuple[int, ...] = (1, 2, 4, 8)

#: Fraction of the host population the total cache capacity covers; below
#: 1.0 so per-shard eviction budgets are actually exercised.
DEFAULT_CAPACITY_FRACTION = 0.6


def scaling_rows(
    shard_count: int,
    host_count: int,
    duration: int,
    capacity_fraction: float,
    seed: int,
    engine: str = "reference",
) -> List[Tuple]:
    """The row for one shard count (picklable sub-run unit)."""
    trace = traffic_trace(host_count=host_count, duration=duration, engine=engine)
    capacity = max(shard_count, int(host_count * capacity_fraction))
    config = traffic_config(
        trace,
        query_period=1.0,
        constraint_average=100.0 * KILO,
        constraint_variation=1.0,
        cost_factor=1.0,
        cache_capacity=capacity,
        seed=seed,
        shards=shard_count,
        engine=engine,
    )
    policy = adaptive_policy(
        cost_factor=1.0,
        lower_threshold=1.0 * KILO,
        initial_width=KILO,
        seed=seed,
    )
    result = CacheSimulation(config, traffic_streams(trace), policy).run()
    events_per_second = result.events_processed / config.duration
    return [
        (
            shard_count,
            host_count,
            capacity,
            result.cost_rate,
            result.cache_hit_rate,
            result.hit_rate_skew,
            result.events_processed,
            events_per_second,
        )
    ]


def plan(
    shard_counts: Sequence[int] = DEFAULT_SHARD_COUNTS,
    host_count: int = DEFAULT_HOST_COUNT,
    duration: int = DEFAULT_DURATION,
    capacity_fraction: float = DEFAULT_CAPACITY_FRACTION,
    seed: int = 29,
    shards: Optional[int] = None,
    engine: str = "reference",
) -> ExperimentPlan:
    """Decompose into one sub-run per shard count.

    ``shards`` (the CLI ``--shards`` flag) narrows the sweep to that single
    shard count; the default sweeps ``shard_counts``.  ``engine`` selects
    the stream engine generating the trace (CLI ``--engine``).
    """
    if shards is not None:
        shard_counts = (shards,)
    subruns = tuple(
        SubRun(
            label=f"shards={shard_count}",
            func=scaling_rows,
            kwargs=dict(
                shard_count=shard_count,
                host_count=host_count,
                duration=duration,
                capacity_fraction=capacity_fraction,
                seed=seed,
                engine=engine,
            ),
        )
        for shard_count in shard_counts
    )
    return ExperimentPlan(
        experiment_id="sharded_scaling",
        title="Sharded multi-cache topology: shard-count sweep at fixed capacity",
        columns=(
            "shards",
            "hosts",
            "kappa",
            "Omega",
            "hit_rate",
            "skew",
            "events",
            "events/s(sim)",
        ),
        subruns=subruns,
        notes=(
            "Omega should stay essentially flat across shard counts (per-shard "
            "eviction budgets can shift individual victims); skew is the "
            "max-min spread of per-shard hit rates under CRC-32 partitioning. "
            "Event counts are simulated-time throughput, deterministic by "
            "construction."
        ),
    )


def run(
    shard_counts: Sequence[int] = DEFAULT_SHARD_COUNTS,
    host_count: int = DEFAULT_HOST_COUNT,
    duration: int = DEFAULT_DURATION,
    capacity_fraction: float = DEFAULT_CAPACITY_FRACTION,
    seed: int = 29,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
    engine: str = "reference",
) -> ExperimentResult:
    """Sweep shard counts at a large host population."""
    return run_plan(
        plan(
            shard_counts=shard_counts,
            host_count=host_count,
            duration=duration,
            capacity_fraction=capacity_fraction,
            seed=seed,
            shards=shards,
            engine=engine,
        ),
        workers=workers,
    )
