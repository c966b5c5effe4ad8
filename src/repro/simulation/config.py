"""Simulation configuration.

Bundles every knob of the Section 4.1 simulation environment: the number of
sources (implied by the update streams), cache capacity ``kappa``, query
period ``T_q``, query fan-out, aggregate mix, precision-constraint
distribution (``delta_avg``, ``sigma``), refresh costs, duration, warm-up and
random seed.  Every run replays its events on the batch kernel
(:mod:`repro.simulation.kernel`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Hashable, Optional, Sequence, Tuple

from repro.data.engine import DEFAULT_ENGINE, ENGINE_NAMES, StreamEngine, get_engine
from repro.queries.aggregates import AggregateKind
from repro.queries.constraints import PrecisionConstraintGenerator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.queries.workload import QueryWorkload

#: The valid ``SimulationConfig.core`` values: the numpy struct-of-arrays
#: columnar hot path (default) and the paper-exact per-object compat mode.
#: Both produce bit-identical results; ``"object"`` is the reference
#: implementation the columnar path is diffed against.
CORE_NAMES = ("columnar", "object")
DEFAULT_CORE = "columnar"

_default_core = DEFAULT_CORE


def set_default_core(name: str) -> None:
    """Set the process-wide default for ``SimulationConfig.core``.

    Experiment plans build their configs internally, so the CLI's ``--core``
    flag sets this module default instead of threading a keyword through
    every plan factory.  Configs constructed afterwards (including in worker
    processes, which receive already-built configs by pickle) pick it up via
    the field's ``default_factory``.
    """
    global _default_core
    if name not in CORE_NAMES:
        raise ValueError(f"unknown core {name!r}; available: {', '.join(CORE_NAMES)}")
    _default_core = name


def get_default_core() -> str:
    """The current process-wide default for ``SimulationConfig.core``."""
    return _default_core


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
    shards:
        Number of cache shards.  ``1`` (the default) runs the paper's single
        ``ApproximateCache``; larger values front the run with a
        :class:`~repro.sharding.coordinator.ShardedCacheCoordinator` that
        hash-partitions keys over this many shards and splits
        ``cache_capacity`` into per-shard eviction budgets.
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
    core:
        Hot-state layout of the simulation run.  ``"columnar"`` (the default)
        mirrors the cache/source state into numpy struct-of-arrays so the
        batch kernel's bound maintenance and SUM/AVG refresh selection
        vectorise across keys; ``"object"`` forces the paper-exact per-object
        walk everywhere (the compat mode the figure tables were originally
        generated under).  Results are bit-identical either way — the
        columnar path silently falls back to the object path whenever an
        observable (interval sampling, policy read/write observers, bounded
        capacity, sharding) requires per-event object semantics.
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
    shards: int = 1
    engine: str = DEFAULT_ENGINE
    core: str = field(default_factory=get_default_core)
    value_refresh_cost: float = 1.0
    query_refresh_cost: float = 2.0
    seed: int = 0
    track_keys: Tuple[Hashable, ...] = ()

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.warmup < 0:
            raise ValueError("warmup must be non-negative")
        if self.warmup >= self.duration:
            raise ValueError("warmup must be shorter than the duration")
        if self.query_period <= 0:
            raise ValueError("query_period (T_q) must be positive")
        if self.query_size < 1:
            raise ValueError("query_size must be at least 1")
        if not self.aggregates:
            raise ValueError("at least one aggregate kind is required")
        if self.constraint_average < 0:
            raise ValueError("constraint_average (delta_avg) must be non-negative")
        if self.constraint_variation < 0:
            raise ValueError("constraint_variation (sigma) must be non-negative")
        if self.constraint_bounds is not None:
            low, high = self.constraint_bounds
            if low < 0 or high < low:
                raise ValueError("constraint_bounds must satisfy 0 <= min <= max")
        if self.cache_capacity is not None and self.cache_capacity < 1:
            raise ValueError("cache_capacity (kappa) must be at least 1")
        if self.shards < 1:
            raise ValueError("shards must be at least 1")
        if self.cache_capacity is not None and self.cache_capacity < self.shards:
            raise ValueError(
                "cache_capacity must be at least the shard count so every "
                "shard receives an eviction budget"
            )
        if self.engine not in ENGINE_NAMES:
            raise ValueError(
                f"unknown engine {self.engine!r}; available: "
                f"{', '.join(ENGINE_NAMES)}"
            )
        if self.core not in CORE_NAMES:
            raise ValueError(
                f"unknown core {self.core!r}; available: {', '.join(CORE_NAMES)}"
            )
        if self.value_refresh_cost <= 0 or self.query_refresh_cost <= 0:
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

        The workload and constraint RNGs are derived from ``seed`` exactly as
        :class:`~repro.simulation.simulator.CacheSimulation` has always done,
        and neither draws from simulation state — so every caller handing
        this method the same key sequence regenerates the identical query
        stream.  That property is what lets the serving load generator
        drive a live server through the exact offline query sequence.
        """
        from repro.queries.workload import QueryWorkload

        workload_rng = random.Random(self.seed)
        constraint_rng = random.Random(self.seed + 1)
        return QueryWorkload(
            keys=list(keys),
            period=self.query_period,
            constraint_generator=self.constraint_generator(constraint_rng),
            query_size=self.query_size,
            aggregates=self.aggregates,
            rng=workload_rng,
        )

    def with_changes(self, **changes) -> "SimulationConfig":
        """Return a modified copy (thin wrapper over :func:`dataclasses.replace`)."""
        return replace(self, **changes)
