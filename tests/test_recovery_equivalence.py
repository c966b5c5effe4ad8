"""Crash recovery must be invisible in the numbers.

The durability tentpole's acceptance property: a deterministic replay whose
partitions are SIGKILLed mid-run (at seeded batch positions) and recovered
from snapshot+WAL must end with a report *identical* to the same replay
with no crashes — same hits, misses, refreshes, costs, degraded counts and
a clean containment audit.  The kill plans land at three different WAL
lifecycle points (before any checkpoint, between checkpoints, and under a
checkpoint-per-record cadence, where kills sit adjacent to the
scratch-and-replace window), across partition counts 1, 2 and 4.

The restart-budget tests cover the typed give-up path: a pool whose budget
is exhausted raises :class:`SupervisionExhausted`, and the gateway
downgrades that partition to permanent-degraded — answers widen, they
never turn into errors.  A partition whose recovery raises (a corrupt
snapshot the WAL can no longer stand in for) exits before it reports a
port; every such exit spends one restart of the budget.
"""

import asyncio
import math

import pytest

from repro.experiments.workloads import traffic_config, traffic_trace
from repro.serving.errors import SupervisionExhausted
from repro.serving.faults import FaultPlan
from repro.serving.gateway import GatewayServer
from repro.serving.loadgen import replay_trace_deterministic
from repro.serving.procs import ProcessPartitionPool

HOSTS = 10
DURATION = 60

#: Three kill points in the WAL lifecycle.  ``checkpoint_every`` places the
#: kills relative to checkpoints; the kill batches themselves come from the
#: plan's seeded stream, so every parametrization is fully replayable.
KILL_POINTS = {
    # No checkpoint ever happens before the kill: recovery is a pure WAL
    # replay from an empty snapshot.
    "pre-checkpoint": dict(checkpoint_every=1_000_000, kill_every=8, kills=2),
    # Ordinary cadence: recovery restores a snapshot and replays the WAL
    # records appended after it.
    "mid-wal": dict(checkpoint_every=32, kill_every=10, kills=2),
    # A checkpoint after every record keeps the process inside the
    # scratch-write/replace/truncate window as often as possible when the
    # SIGKILL lands.
    "during-checkpoint": dict(checkpoint_every=1, kill_every=12, kills=2),
}


def _workload():
    trace = traffic_trace(host_count=HOSTS, duration=DURATION)
    return trace, traffic_config(trace, seed=5).with_changes(warmup=0.0)


async def _durable_replay(partitions, wal_dir, checkpoint_every, plan):
    trace, config = _workload()
    spec = {
        "seed": 0,
        "wal_dir": str(wal_dir),
        "checkpoint_every": checkpoint_every,
    }
    with ProcessPartitionPool(partitions, spec) as pool:
        gateway = GatewayServer(pool.targets(), pool=pool)
        await gateway.start()
        gateway.start_supervisor(poll_interval=0.05)
        try:
            report = await replay_trace_deterministic(
                gateway,
                trace,
                config,
                fault_plan=plan,
                check_invariant=True,
                partition_pool=pool if plan is not None else None,
            )
        finally:
            await gateway.close()
        return report, pool.restarts


_baselines = {}


def _baseline_summary(partitions, tmp_path_factory):
    """The no-crash summary for one partition count (computed once)."""
    if partitions not in _baselines:
        wal_dir = tmp_path_factory.mktemp(f"baseline-{partitions}")
        report, restarts = asyncio.run(
            _durable_replay(partitions, wal_dir, 32, None)
        )
        assert restarts == 0
        assert report.invariant_violations == 0
        _baselines[partitions] = report.deterministic_summary()
    return _baselines[partitions]


@pytest.mark.parametrize("partitions", [1, 2, 4])
@pytest.mark.parametrize("kill_point", sorted(KILL_POINTS))
def test_killed_partitions_recover_to_identical_report(
    partitions, kill_point, tmp_path_factory
):
    profile = KILL_POINTS[kill_point]
    plan = FaultPlan(
        seed=11,
        partition_kill_every=profile["kill_every"],
        partition_kills=profile["kills"],
    )
    wal_dir = tmp_path_factory.mktemp(f"chaos-{partitions}-{kill_point}")
    report, restarts = asyncio.run(
        _durable_replay(partitions, wal_dir, profile["checkpoint_every"], plan)
    )

    assert report.partition_kills == profile["kills"]
    assert restarts >= profile["kills"]
    assert report.invariant_checks == report.queries
    assert report.invariant_violations == 0
    assert report.deterministic_summary() == _baseline_summary(
        partitions, tmp_path_factory
    )


def _corrupt_snapshot(wal_dir, index=0):
    """Overwrite partition ``index``'s snapshot with garbage.

    Call it after a register reply under ``checkpoint_every=1``: the
    partition replies only after its checkpoint has truncated the WAL, so
    the log no longer holds record 1 and cannot stand in for the snapshot.
    Recovery then raises :class:`~repro.serving.errors.UnrecoverablePartition`.
    """
    (wal_dir / f"partition-{index}.snapshot").write_bytes(b"not a snapshot" * 8)


class TestSupervisionExhausted:
    def test_pool_restart_budget_raises_typed_error(self):
        with ProcessPartitionPool(2, {"seed": 0}, max_restarts=0) as pool:
            pool.kill(1)
            with pytest.raises(SupervisionExhausted, match="giving up") as excinfo:
                pool.restart(1)
            error = excinfo.value
            assert isinstance(error, RuntimeError)  # old callers still catch
            assert error.index == 1
            assert error.crashes == {0: 0, 1: 0}

    def test_pool_within_budget_still_restarts(self):
        with ProcessPartitionPool(1, {"seed": 0}, max_restarts=1) as pool:
            pool.kill(0)
            target = pool.restart(0)
            assert target.startswith("tcp://")
            assert pool.worker_restarts(0) == 1
            pool.kill(0)
            with pytest.raises(SupervisionExhausted) as excinfo:
                pool.restart(0)
            assert excinfo.value.crashes == {0: 1}

    def test_pool_unrecoverable_partition_spends_its_budget(self, tmp_path):
        from repro.serving.api import Client, dial

        async def register_then_kill(pool):
            client = await Client.from_transport(await dial(pool.target(0)))
            try:
                await client.register(["h0", "h1"], [0.0, 1.0])
                # Killed before the hang-up, so no later record or
                # checkpoint reaches the files.
                pool.kill(0)
            finally:
                await client.close()

        spec = {"seed": 0, "wal_dir": str(tmp_path), "checkpoint_every": 1}
        with ProcessPartitionPool(1, spec, max_restarts=2) as pool:
            asyncio.run(register_then_kill(pool))
            _corrupt_snapshot(tmp_path)
            with pytest.raises(SupervisionExhausted, match="giving up") as excinfo:
                pool.restart(0)
            assert excinfo.value.index == 0
            assert excinfo.value.crashes == {0: 2}

    @pytest.mark.parametrize(
        "unrecoverable", [False, True], ids=["budget-zero", "corrupt-snapshot"]
    )
    def test_gateway_downgrades_exhausted_partition_to_degraded(
        self, tmp_path, unrecoverable
    ):
        from repro.serving.api import Client

        spec = {"seed": 0}
        max_restarts = 0
        if unrecoverable:
            # One restart is allowed, but the fresh process cannot recover.
            spec.update(wal_dir=str(tmp_path), checkpoint_every=1)
            max_restarts = 1

        async def drive():
            with ProcessPartitionPool(2, spec, max_restarts=max_restarts) as pool:
                gateway = GatewayServer(pool.targets(), pool=pool)
                await gateway.start()
                gateway.start_supervisor(poll_interval=0.05)
                try:
                    values = {f"h{i}": float(i) for i in range(8)}
                    feeder = await Client.from_transport(
                        gateway.connect(), on_refresh=values.__getitem__
                    )
                    await feeder.register(
                        list(values), list(values.values()), feeder="f0", time=1.0
                    )
                    if unrecoverable:
                        _corrupt_snapshot(tmp_path)
                    pool.kill(0)
                    for _ in range(200):
                        if gateway.partition_state(0) == "degraded":
                            break
                        await asyncio.sleep(0.05)
                    assert gateway.partition_state(0) == "degraded"

                    # The contract under permanent loss: answers widen (the
                    # mirror's divergence-bounded intervals), they never
                    # become errors or 500s.
                    probe = await Client.from_transport(gateway.connect())
                    try:
                        answer = await probe.query(
                            list(values), constraint=0.0, time=2.0
                        )
                        assert answer.degraded
                        assert answer.low <= sum(values.values()) <= answer.high
                        assert math.isfinite(answer.low)
                        stats = await probe.stats()
                        assert stats["partition_health"][0] == "degraded"
                    finally:
                        await probe.close()

                    health = gateway.health()
                    assert health["ok"] is False
                    assert health["role"] == "gateway"
                    states = {p["index"]: p["state"] for p in health["partitions"]}
                    assert states[0] == "degraded" and states[1] == "ok"
                    assert pool.worker_restarts(0) == max_restarts
                    await feeder.close()
                finally:
                    await gateway.close()

        asyncio.run(drive())
