"""Chaos sweep: the serving stack's containment guarantee under faults.

Not a paper reproduction — this experiment characterises the fault-tolerant
serving fabric (:mod:`repro.serving.faults`) the production-scale roadmap
adds on top of the reproduced algorithm.  Each row replays the
deterministic trace replay under one seeded :class:`FaultPlan`, from the
zero plan (which must stay bit-identical to the offline simulator) through
escalating drop/truncate rates and feeder kill/outage schedules, and
records what the paper's approximate-caching contract promises even then:

* ``violations`` — answers whose returned interval excluded the true
  aggregate.  **This column must be zero in every row**: faults may widen
  answers, they may never make them wrong.
* ``degraded`` — answers served from the mirror with a widened bound while
  the owning feeder was down (tagged ``degraded: true`` on the wire);
* ``drops`` / ``truncs`` — injected connection drops and truncated frames;
* ``reconnects`` / ``retries`` — feeder reconnect-and-resync cycles and
  client retry attempts the fabric absorbed;
* ``v_refresh`` / ``q_refresh`` / ``hit_rate`` — the replay's behaviour,
  which for the zero plan equals the offline run's exactly.

Every fault schedule is derived from the plan's seed alone, so the rows are
deterministic per seed — same table on every host, replayable one row at a
time with ``repro loadgen --fault-plan``.
"""

from __future__ import annotations

import asyncio
from typing import Sequence, Tuple

from repro.experiments.base import ExperimentResult
from repro.experiments.workloads import (
    serving_config,
    serving_policy,
    traffic_trace,
)
from repro.serving.faults import FaultPlan
from repro.serving.loadgen import replay_trace_deterministic
from repro.serving.server import CacheServer

DEFAULT_HOST_COUNT = 25
DEFAULT_DURATION = 300

#: The swept chaos schedules: a zero-plan control row, then escalating
#: frame faults, then feeder kill/outage schedules, then everything at once.
DEFAULT_PLANS: Tuple[FaultPlan, ...] = (
    FaultPlan(seed=11),
    FaultPlan(seed=11, drop_rate=0.02, truncate_rate=0.01),
    FaultPlan(seed=11, drop_rate=0.08, truncate_rate=0.04),
    FaultPlan(seed=11, kill_every=25, outage_queries=0),
    FaultPlan(seed=11, kill_every=25, outage_queries=4),
    FaultPlan(
        seed=11,
        drop_rate=0.05,
        truncate_rate=0.02,
        kill_every=20,
        outage_queries=3,
    ),
)


def chaos_row(
    plan: FaultPlan,
    host_count: int,
    duration: int,
    seed: int,
) -> Tuple:
    """Replay the deterministic trace under one fault plan, audited."""
    trace = traffic_trace(host_count=host_count, duration=duration)
    config = serving_config(trace, seed=seed)

    async def drive():
        server = CacheServer(
            serving_policy(cost_factor=1.0, seed=seed),
            value_refresh_cost=config.value_refresh_cost,
            query_refresh_cost=config.query_refresh_cost,
        )
        try:
            return await replay_trace_deterministic(
                server,
                trace,
                config,
                fault_plan=plan,
                check_invariant=True,
            )
        finally:
            await server.close()

    report = asyncio.run(drive())
    return (
        plan.describe(),
        report.invariant_violations,
        report.degraded_answers,
        report.faults_injected.get("drops", 0),
        report.faults_injected.get("truncations", 0),
        report.reconnects,
        report.retries,
        report.value_refreshes,
        report.query_refreshes,
        report.hit_rate,
    )


def run(
    plans: Sequence[FaultPlan] = DEFAULT_PLANS,
    host_count: int = DEFAULT_HOST_COUNT,
    duration: int = DEFAULT_DURATION,
    seed: int = 5,
) -> ExperimentResult:
    """Sweep fault plans over the audited deterministic replay."""
    rows = [
        chaos_row(
            plan,
            host_count=host_count,
            duration=duration,
            seed=seed,
        )
        for plan in plans
    ]
    return ExperimentResult(
        experiment_id="serving_faults",
        title="Serving fabric under deterministic fault injection",
        columns=(
            "plan",
            "violations",
            "degraded",
            "drops",
            "truncs",
            "reconnects",
            "retries",
            "v_refresh",
            "q_refresh",
            "hit_rate",
        ),
        rows=rows,
        notes=(
            "Every answer is audited against the replay's ground truth: the "
            "'violations' column counts returned intervals that excluded the "
            "true aggregate and must be zero in every row — faults widen "
            "answers (the 'degraded' column), they never falsify them.  All "
            "fault schedules derive from the plan seed, so rows are "
            "deterministic per seed.  The first (zero-plan) row doubles as a "
            "control: its refresh counts and hit rate equal the offline "
            "simulator's."
        ),
    )
