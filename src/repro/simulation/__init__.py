"""Discrete-event simulation of the approximate caching environment.

The simulator mirrors Section 4.1 of the paper: ``n`` data sources each
hosting one numeric value, a single cache holding up to ``kappa`` interval
approximations, source updates arriving from per-source update streams, and
bounded-aggregate queries arriving every ``T_q`` seconds.  The output of a
run is the average cost per time unit ``Omega`` (after a warm-up period),
split into value-initiated and query-initiated refresh cost.
"""

from repro.simulation.config import SimulationConfig
from repro.simulation.kernel import run_batch_kernel
from repro.simulation.metrics import MetricsCollector, SimulationResult
from repro.simulation.network import NetworkModel
from repro.simulation.simulator import CacheSimulation

__all__ = [
    "SimulationConfig",
    "run_batch_kernel",
    "MetricsCollector",
    "SimulationResult",
    "NetworkModel",
    "CacheSimulation",
]
