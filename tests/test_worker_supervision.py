"""Worker supervision: stop escalation and restart.

:class:`WorkerHandle` — the process plumbing under
:class:`~repro.serving.procs.ProcessPartitionPool` — escalates
``join(grace)`` -> ``terminate()`` -> ``kill()`` and records the force it
needed, so even a SIGTERM-immune worker cannot outlive its owner, and
``restart`` replaces a dead worker with a fresh process on a new pipe.
"""

import signal
import time

from repro.experiments.runner import WorkerHandle


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


# ----------------------------------------------------------------------
# WorkerHandle
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
