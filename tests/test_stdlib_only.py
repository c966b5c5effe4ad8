"""The simulator runs on the standard library alone.

numpy is a dev dependency only (the repository benchmark, ``perfbench/``,
imports it), so no module the simulator loads may import it at module level.
The check runs in a fresh interpreter where any ``import numpy`` raises
:class:`ImportError`.
"""

import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"

#: A small seeded simulation over random walks and the synthetic trace; it
#: prints the run's result so the blocked run can be compared with this one.
_SIMULATION = """
import random

from repro.caching.policies.adaptive import AdaptivePrecisionPolicy
from repro.core.parameters import PrecisionParameters
from repro.experiments.workloads import random_walk_streams, traffic_config
from repro.experiments.workloads import traffic_streams, traffic_trace
from repro.simulation.config import SimulationConfig
from repro.simulation.simulator import CacheSimulation


def policy():
    return AdaptivePrecisionPolicy(
        PrecisionParameters(), initial_width=2.0, rng=random.Random(3)
    )


walks = CacheSimulation(
    SimulationConfig(
        duration=200.0,
        warmup=20.0,
        query_size=3,
        constraint_average=8.0,
        constraint_variation=1.0,
        seed=3,
    ),
    random_walk_streams(5, seed=3),
    policy(),
).run()
trace = traffic_trace(6, 300, 4)
monitoring = CacheSimulation(
    traffic_config(trace, seed=4), traffic_streams(trace), policy()
).run()
print(repr(walks))
print(repr(monitoring))
"""


def _run(block_numpy: bool) -> str:
    prelude = "import sys; sys.modules['numpy'] = None\n" if block_numpy else ""
    completed = subprocess.run(
        [sys.executable, "-c", prelude + _SIMULATION],
        env={**os.environ, "PYTHONPATH": str(_SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def test_simulation_runs_with_numpy_blocked():
    blocked = _run(block_numpy=True)
    assert "SimulationResult" in blocked
    assert blocked == _run(block_numpy=False)
