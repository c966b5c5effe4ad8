"""repro — Adaptive Precision Setting for Cached Approximate Values.

A from-scratch reproduction of Olston, Loo and Widom's SIGMOD 2001 paper.
The package provides:

* the adaptive width-setting algorithm (:mod:`repro.core`),
* interval approximations and placements (:mod:`repro.intervals`),
* the caching substrate — sources, cache, eviction, refresh accounting and
  pluggable precision policies including the WJH97 exact-caching and HSW94
  Divergence Caching baselines (:mod:`repro.caching`),
* bounded-aggregate queries with precision constraints (:mod:`repro.queries`),
* a discrete-event simulator of the whole environment (:mod:`repro.simulation`),
* synthetic data generators standing in for the paper's workloads
  (:mod:`repro.data`),
* the Appendix A analysis (:mod:`repro.analysis`), and
* one experiment module per paper table/figure (:mod:`repro.experiments`).
"""

from repro.caching.cache import ApproximateCache
from repro.caching.policies.adaptive import AdaptivePrecisionPolicy
from repro.caching.policies.divergence import DivergenceCachingPolicy
from repro.caching.policies.exact_caching import ExactCachingPolicy
from repro.caching.policies.static import StaticWidthPolicy
from repro.core.cost_model import CostModel
from repro.core.parameters import PrecisionParameters
from repro.core.policy import AdaptiveWidthController, WidthAdjustment
from repro.intervals.interval import UNBOUNDED, Interval
from repro.simulation.config import SimulationConfig
from repro.simulation.metrics import SimulationResult
from repro.simulation.simulator import CacheSimulation, run_simulation

__version__ = "1.1.0"

__all__ = [
    "Interval",
    "UNBOUNDED",
    "PrecisionParameters",
    "AdaptiveWidthController",
    "WidthAdjustment",
    "CostModel",
    "AdaptivePrecisionPolicy",
    "ExactCachingPolicy",
    "DivergenceCachingPolicy",
    "StaticWidthPolicy",
    "ApproximateCache",
    "SimulationConfig",
    "SimulationResult",
    "CacheSimulation",
    "run_simulation",
    "__version__",
]
