"""Section 4.5: the unsuccessful variations.

Three intuitive variations of the algorithm are compared against the standard
centred, constant-interval, memoryless controller:

* uncentered intervals (independently adapted upper/lower widths),
* history-window adjustment (grow/shrink by majority of the last ``r``
  refreshes), and
* (for the time-varying case) the
  :class:`~repro.core.variations.TimeVaryingWidthController`, exercised by the
  unit tests; in the simulation comparison we represent it through the
  uncentered/history policies since the paper's conclusion is the same for
  all three: none beats the standard algorithm on unbiased data, and only
  biased (trending) data benefits from asymmetry.

The experiment runs on unbiased and biased random walks, reproducing the
paper's conclusion that the variations only help when the data predictably
trends.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence, Tuple

from repro.caching.policies.adaptive import (
    AdaptivePrecisionPolicy,
    UncenteredAdaptivePolicy,
)
from repro.core.parameters import PrecisionParameters
from repro.experiments.base import ExperimentResult
from repro.experiments.runner import ExperimentPlan, SubRun, run_plan
from repro.experiments.workloads import random_walk_streams
from repro.queries.aggregates import AggregateKind
from repro.simulation.config import SimulationConfig
from repro.simulation.simulator import CacheSimulation

DEFAULT_DURATION = 3000.0
DEFAULT_SOURCE_COUNT = 5


def _config(
    duration: float,
    seed: int,
) -> SimulationConfig:
    return SimulationConfig(
        duration=duration,
        warmup=duration * 0.1,
        query_period=2.0,
        query_size=min(DEFAULT_SOURCE_COUNT, 5),
        aggregates=(AggregateKind.SUM,),
        constraint_average=40.0,
        constraint_variation=1.0,
        value_refresh_cost=1.0,
        query_refresh_cost=2.0,
        seed=seed,
    )


def _parameters() -> PrecisionParameters:
    return PrecisionParameters(
        value_refresh_cost=1.0,
        query_refresh_cost=2.0,
        adaptivity=1.0,
        lower_threshold=0.0,
        upper_threshold=math.inf,
    )


def variation_rows(
    up_probability: float,
    variant: str,
    duration: float,
    source_count: int,
    seed: int,
) -> List[Tuple]:
    """The row for one (walk bias, placement variant) cell (picklable)."""
    walk_kind = "unbiased walk" if up_probability == 0.5 else "biased walk"
    config = _config(duration, seed)
    if variant == "centred":
        policy = AdaptivePrecisionPolicy(
            _parameters(), initial_width=4.0, rng=random.Random(seed)
        )
        variant_label = "centred (paper default)"
    elif variant == "uncentered":
        policy = UncenteredAdaptivePolicy(
            _parameters(), initial_width=4.0, rng=random.Random(seed)
        )
        variant_label = "uncentered (Section 4.5)"
    else:
        raise ValueError(f"unknown variant {variant!r}")
    result = CacheSimulation(
        config,
        random_walk_streams(source_count, seed, up_probability=up_probability),
        policy,
    ).run()
    return [(walk_kind, variant_label, result.cost_rate)]


def plan(
    duration: float = DEFAULT_DURATION,
    source_count: int = DEFAULT_SOURCE_COUNT,
    up_probabilities: Sequence[float] = (0.5, 0.8),
    seed: int = 23,
) -> ExperimentPlan:
    """Decompose into one sub-run per (walk bias, placement variant) cell."""
    subruns = tuple(
        SubRun(
            label=f"p_up={up_probability:g}/{variant}",
            func=variation_rows,
            kwargs=dict(
                up_probability=up_probability,
                variant=variant,
                duration=duration,
                source_count=source_count,
                seed=seed,
            ),
        )
        for up_probability in up_probabilities
        for variant in ("centred", "uncentered")
    )
    return ExperimentPlan(
        experiment_id="section45",
        title="Unsuccessful variations: centred vs uncentered intervals",
        columns=("data", "variant", "Omega"),
        subruns=subruns,
        notes=(
            "Expected: on the unbiased walk the centred strategy is at least as "
            "good as the uncentered one; on the strongly biased walk the "
            "uncentered strategy can win slightly (the one case the paper reports "
            "it helping)."
        ),
    )


def run(
    duration: float = DEFAULT_DURATION,
    source_count: int = DEFAULT_SOURCE_COUNT,
    up_probabilities: Sequence[float] = (0.5, 0.8),
    seed: int = 23,
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Compare centred vs uncentered placement on unbiased and biased walks."""
    return run_plan(
        plan(
            duration=duration,
            source_count=source_count,
            up_probabilities=up_probabilities,
            seed=seed,
        ),
        workers=workers,
    )


