"""Simulation configuration.

Bundles every knob of the Section 4.1 simulation environment: the number of
sources (implied by the update streams), cache capacity ``kappa``, query
period ``T_q``, query fan-out, aggregate mix, precision-constraint
distribution (``delta_avg``, ``sigma``), refresh costs, duration, warm-up and
random seed.  Every run replays its events on the batch kernel
(:mod:`repro.simulation.kernel`) over one state layout, the per-source and
per-entry objects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Hashable, Optional, Sequence, Tuple

from repro.data.engine import DEFAULT_ENGINE, ENGINE_NAMES, StreamEngine, get_engine
from repro.queries.aggregates import AggregateKind
from repro.queries.constraints import PrecisionConstraintGenerator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.queries.workload import QueryWorkload


def get_default_core() -> str:
    """The simulator's state layout, recorded in benchmark environments.

    Always ``"object"``: every run keeps its state in the per-source and
    per-entry objects, and there is no other layout to select.
    """
    return "object"


@dataclass(frozen=True)
class SimulationConfig:
    """All scalar parameters of one simulation run.

    Parameters
    ----------
    duration:
        Total simulated time in seconds.
    warmup:
        Initial period excluded from the reported metrics.
    query_period:
        ``T_q`` — seconds between queries.
    query_size:
        Number of distinct values each query touches (10 in the paper's
        network experiments, clamped to the source count by the workload).
    aggregates:
        The aggregate kinds the workload alternates among.
    constraint_average / constraint_variation:
        ``delta_avg`` and ``sigma`` of the precision-constraint distribution.
    constraint_bounds:
        Optional explicit ``(delta_min, delta_max)`` range; when given it
        overrides ``constraint_average`` / ``constraint_variation``.
    cache_capacity:
        ``kappa`` — maximum number of cached approximations (``None`` means
        large enough for everything).
    engine:
        Name of the stream-generation engine of the run's data plane
        (:mod:`repro.data.engine`).  ``"reference"`` (the default) keeps the
        ``random.Random`` sequences behind the committed figure tables;
        ``"vector"`` selects numpy batch synthesis for paper-scale sweeps.
        The simulator consumes pre-built streams, so this field does not
        rebuild them: the workload builders and experiment plans
        (:mod:`repro.experiments.workloads`, CLI ``--engine``) resolve it
        when constructing streams and record it here so a run's provenance
        travels with its config.  Callers wiring streams by hand must build
        them against :meth:`stream_engine` themselves.
    value_refresh_cost / query_refresh_cost:
        ``C_vr`` and ``C_qr`` charged per refresh.
    seed:
        Master random seed; sub-generators (workload, constraints, policies)
        derive their seeds from it so runs are reproducible.
    track_keys:
        Keys whose (value, interval) evolution is sampled for time-series
        figures.
    """

    duration: float
    warmup: float = 0.0
    query_period: float = 1.0
    query_size: int = 10
    aggregates: Tuple[AggregateKind, ...] = (AggregateKind.SUM,)
    constraint_average: float = 0.0
    constraint_variation: float = 0.0
    constraint_bounds: Optional[Tuple[float, float]] = None
    cache_capacity: Optional[int] = None
    engine: str = DEFAULT_ENGINE
    value_refresh_cost: float = 1.0
    query_refresh_cost: float = 2.0
    seed: int = 0
    track_keys: Tuple[Hashable, ...] = ()

    def __post_init__(self) -> None:
        # ``not x > 0`` rather than ``x <= 0``: every comparison with NaN is
        # false, so the negated form rejects NaN along with the bad signs.
        if not self.duration > 0:
            raise ValueError("duration must be positive")
        if not self.warmup >= 0:
            raise ValueError("warmup must be non-negative")
        if self.warmup >= self.duration:
            raise ValueError("warmup must be shorter than the duration")
        if not self.query_period > 0:
            raise ValueError("query_period (T_q) must be positive")
        if self.query_size < 1:
            raise ValueError("query_size must be at least 1")
        if not self.aggregates:
            raise ValueError("at least one aggregate kind is required")
        if not self.constraint_average >= 0:
            raise ValueError("constraint_average (delta_avg) must be non-negative")
        if not self.constraint_variation >= 0:
            raise ValueError("constraint_variation (sigma) must be non-negative")
        if self.constraint_bounds is not None:
            low, high = self.constraint_bounds
            if not 0 <= low <= high:
                raise ValueError("constraint_bounds must satisfy 0 <= min <= max")
        if self.cache_capacity is not None and self.cache_capacity < 1:
            raise ValueError("cache_capacity (kappa) must be at least 1")
        if self.engine not in ENGINE_NAMES:
            raise ValueError(
                f"unknown engine {self.engine!r}; available: "
                f"{', '.join(ENGINE_NAMES)}"
            )
        if not (self.value_refresh_cost > 0 and self.query_refresh_cost > 0):
            raise ValueError("refresh costs must be positive")

    # ------------------------------------------------------------------
    # Derived objects
    # ------------------------------------------------------------------
    @property
    def cost_factor(self) -> float:
        """``rho = 2 * C_vr / C_qr`` implied by the configured costs."""
        return 2.0 * self.value_refresh_cost / self.query_refresh_cost

    def stream_engine(self) -> StreamEngine:
        """The resolved :class:`~repro.data.engine.StreamEngine` instance."""
        return get_engine(self.engine)

    def constraint_generator(self, rng: random.Random) -> PrecisionConstraintGenerator:
        """Build the precision-constraint generator this config describes."""
        if self.constraint_bounds is not None:
            low, high = self.constraint_bounds
            return PrecisionConstraintGenerator.from_bounds(low, high, rng=rng)
        return PrecisionConstraintGenerator(
            average=self.constraint_average,
            variation=self.constraint_variation,
            rng=rng,
        )

    def build_workload(self, keys: Sequence[Hashable]) -> "QueryWorkload":
        """Build the run's query workload over ``keys``.

        Query *i* is draw *i* of ``random.Random(seed)`` (its keys and kind)
        and of ``random.Random(seed + 1)`` (the uniform scaled into the
        constraint range).  Neither draws from simulation state, so every
        caller handing this method the same key sequence regenerates the
        identical query stream.  That property is what lets the serving
        load generator drive a live server through the exact offline query
        sequence.  It also lets every run of a sweep replay one shared
        :class:`~repro.queries.workload.DrawScript` of those draws instead
        of drawing its own: the script is looked up here, by seed, keys,
        query size and aggregate set.
        """
        from repro.queries.workload import QueryWorkload, shared_draw_script

        keys = list(keys)
        return QueryWorkload(
            keys=keys,
            period=self.query_period,
            constraint_generator=self.constraint_generator(
                random.Random(self.seed + 1)
            ),
            query_size=self.query_size,
            aggregates=self.aggregates,
            script=shared_draw_script(
                self.seed, keys, self.query_size, self.aggregates
            ),
        )

    def with_changes(self, **changes) -> "SimulationConfig":
        """Return a modified copy (thin wrapper over :func:`dataclasses.replace`)."""
        return replace(self, **changes)
