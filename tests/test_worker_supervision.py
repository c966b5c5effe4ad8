"""Worker supervision: stop escalation, restart, and crash resync.

Covers the fault-tolerance contract of the process plumbing:

* :class:`WorkerHandle` / :func:`persistent_worker_pool` escalate
  ``join(grace)`` -> ``terminate()`` -> ``kill()`` and report workers that
  needed force, so even a SIGTERM-immune worker cannot outlive its pool;
* a shard worker SIGKILLed mid-exchange is restarted by the coordinator's
  :class:`_ExchangeSupervisor` and resynced by replaying the journal of
  broadcast replies — and the merged result still equals the serial run
  bit for bit.
"""

import os
import random
import signal
import time
import warnings

import pytest

from repro.caching.policies.adaptive import AdaptivePrecisionPolicy
from repro.core.parameters import PrecisionParameters
from repro.data.random_walk import RandomWalkGenerator
from repro.data.streams import RandomWalkStream
from repro.experiments.runner import WorkerHandle, persistent_worker_pool
from repro.sharding import workers as shard_workers
from repro.simulation.config import SimulationConfig
from repro.simulation.simulator import CacheSimulation


# ----------------------------------------------------------------------
# Worker targets (module-level: must be importable in the child process)
# ----------------------------------------------------------------------
def _echo_worker(channel):
    """Echo payloads back until the parent closes the pipe."""
    try:
        while True:
            channel.send(channel.recv())
    except EOFError:
        pass


def _stubborn_worker(channel):
    """Ignore SIGTERM and never exit: only SIGKILL can stop this worker."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    channel.send("ready")
    while True:
        time.sleep(60.0)


def _sleepy_worker(channel):
    """Exit only when terminated (honours SIGTERM, ignores the pipe)."""
    channel.send("ready")
    while True:
        time.sleep(60.0)


class _DyingChannel:
    """A pipe wrapper that SIGKILLs its own process after N sends.

    Simulates a shard worker crashing mid-exchange — after it has shipped
    some partials but before the run completes — without any cooperation
    from the worker loop.
    """

    def __init__(self, channel, die_after):
        self._channel = channel
        self._die_after = die_after
        self._sends = 0

    def send(self, payload):
        if self._sends >= self._die_after:
            os.kill(os.getpid(), signal.SIGKILL)
        self._sends += 1
        self._channel.send(payload)

    def __getattr__(self, name):
        return getattr(self._channel, name)


def _crashy_worker_main(worker_main, channel, sentinel, config, *args):
    """Run the real shard worker, but the first incarnation dies early.

    Exactly one worker process wins the sentinel-file race (``open(..,
    "x")`` is atomic) and replaces its channel with a :class:`_DyingChannel`
    that SIGKILLs after two sends; every restart (and every other worker)
    runs clean.  ``worker_main`` is the *unpatched*
    :func:`repro.sharding.workers._worker_main`, passed explicitly because
    the module attribute is monkeypatched to this wrapper during the test.
    """
    try:
        with open(sentinel, "x"):
            pass
        channel = _DyingChannel(channel, die_after=2)
    except FileExistsError:
        pass
    worker_main(channel, config, *args)


# ----------------------------------------------------------------------
# WorkerHandle / persistent_worker_pool
# ----------------------------------------------------------------------
class TestStopEscalation:
    def test_clean_exit_needs_no_force(self):
        handle = WorkerHandle(0, _echo_worker, ())
        handle.start()
        handle.send("ping")
        assert handle.recv() == "ping"
        handle.close_connection()  # worker sees EOF and exits
        assert handle.stop(grace=10.0) is None
        assert handle.force_stopped is None

    def test_sigterm_honouring_worker_is_terminated(self):
        handle = WorkerHandle(0, _sleepy_worker, ())
        handle.start()
        assert handle.recv() == "ready"
        assert handle.stop(grace=0.1) == "terminated"
        assert handle.force_stopped == "terminated"
        assert not handle.is_alive()

    def test_sigterm_immune_worker_is_killed(self):
        handle = WorkerHandle(0, _stubborn_worker, ())
        handle.start()
        assert handle.recv() == "ready"  # SIGTERM handler is installed
        assert handle.stop(grace=0.1) == "killed"
        assert handle.force_stopped == "killed"
        assert not handle.is_alive()

    def test_restart_replaces_a_dead_worker(self):
        handle = WorkerHandle(0, _echo_worker, ())
        handle.start()
        handle.process.kill()
        handle.process.join()
        handle.restart(grace=1.0)
        assert handle.restarts == 1
        handle.send("again")
        assert handle.recv() == "again"
        handle.close_connection()
        handle.stop(grace=10.0)

    def test_pool_reports_force_stopped_workers(self):
        with pytest.warns(RuntimeWarning, match="force-stopped.*worker 0"):
            with persistent_worker_pool(
                [(_stubborn_worker, ())], grace=0.1
            ) as handles:
                assert handles[0].recv() == "ready"

    def test_pool_is_quiet_for_clean_exits(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with persistent_worker_pool([(_echo_worker, ())], grace=10.0) as handles:
                handles[0].send("ok")
                assert handles[0].recv() == "ok"


# ----------------------------------------------------------------------
# Crash resync: a killed shard worker replays back to lock-step
# ----------------------------------------------------------------------
def _walk_streams(count, seed=3):
    return {
        f"walk-{index}": RandomWalkStream(
            RandomWalkGenerator(start=100.0, rng=random.Random(seed * 100 + index))
        )
        for index in range(count)
    }


def _config(shards, shard_workers_count, **overrides):
    defaults = dict(
        duration=120.0,
        warmup=12.0,
        query_period=2.0,
        query_size=5,
        constraint_average=40.0,
        constraint_variation=1.0,
        seed=3,
        shards=shards,
        shard_workers=shard_workers_count,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def _adaptive_policy(seed=3):
    return AdaptivePrecisionPolicy(
        PrecisionParameters(), initial_width=4.0, rng=random.Random(seed)
    )


def test_killed_worker_is_restarted_and_resynced(tmp_path, monkeypatch):
    """SIGKILL one worker mid-run: the supervisor restarts it, replays the
    reply journal, and the merged result still equals the serial run."""
    serial = CacheSimulation(_config(4, 0), _walk_streams(8), _adaptive_policy()).run()

    sentinel = str(tmp_path / "crashed-once")
    original = shard_workers._worker_main

    def crashy(channel, config, *args):
        _crashy_worker_main(original, channel, sentinel, config, *args)

    # run_concurrent_shards resolves `_worker_main` from the module's
    # globals when building targets; the fork start method carries the
    # patched binding into the child.
    monkeypatch.setattr(shard_workers, "_worker_main", crashy)
    with pytest.warns(RuntimeWarning, match="restarting and replaying"):
        merged = CacheSimulation(
            _config(4, 2), _walk_streams(8), _adaptive_policy()
        ).run()

    assert os.path.exists(sentinel)  # the crash actually happened
    assert merged.total_cost == serial.total_cost
    assert merged.value_refresh_count == serial.value_refresh_count
    assert merged.query_refresh_count == serial.query_refresh_count
    assert merged.query_count == serial.query_count
    assert merged.cache_hit_rate == serial.cache_hit_rate
    assert merged.final_widths == serial.final_widths


def test_repeatedly_dying_worker_fails_the_run(tmp_path, monkeypatch):
    """A worker that dies on every incarnation exhausts its restart budget
    and surfaces a typed :class:`SupervisionExhausted` (still a
    RuntimeError for old callers) instead of looping forever."""
    from repro.serving.errors import SupervisionExhausted

    original = shard_workers._worker_main

    def always_dying(channel, config, *args):
        channel = _DyingChannel(channel, die_after=1)
        original(channel, config, *args)

    monkeypatch.setattr(shard_workers, "_worker_main", always_dying)
    with pytest.warns(RuntimeWarning):
        with pytest.raises(RuntimeError, match="giving up") as excinfo:
            CacheSimulation(
                _config(4, 2), _walk_streams(8), _adaptive_policy()
            ).run()
    error = excinfo.value
    assert isinstance(error, SupervisionExhausted)
    assert error.index in error.crashes
    assert error.crashes[error.index] == shard_workers.MAX_WORKER_RESTARTS
