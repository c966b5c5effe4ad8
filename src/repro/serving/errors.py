"""Typed client-side errors of the serving stack.

The resilient client paths (deadlines, retries, reconnect-and-resume) need
to tell failure modes apart: a lost connection is retryable after a
reconnect, a deadline expiry is retryable on the same connection, a
rejected request is not retryable at all, and a stale-epoch rejection means
another session took over the feeder identity.  Each error type *also*
subclasses the stdlib exception the pre-typed code paths raised
(``ConnectionResetError``, ``TimeoutError``, ``RuntimeError``), so existing
handlers — the server's dispatch fallback, tests catching ``RuntimeError``
— keep working unchanged.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional


class ServingError(Exception):
    """Base class of every typed serving-client error."""


class ConnectionLost(ServingError, ConnectionResetError):
    """The connection died (EOF, reset, corrupt frame, injected drop).

    Retryable after reconnecting; a feeder should re-register with
    ``resync`` so the server mirror catches up on missed updates.
    """


class DeadlineExceeded(ServingError, asyncio.TimeoutError):
    """A request missed its per-operation deadline.

    The response may still arrive later and is then dropped; retrying is
    safe for idempotent operations (queries, stats, resync registration).
    """


class RequestRejected(ServingError, RuntimeError):
    """The server answered with an error reply (``ok: false``)."""


class StaleEpochError(RequestRejected):
    """A newer session holds this feeder identity; this one is fenced off.

    The only recovery is a fresh registration (which mints the next epoch);
    retrying the rejected operation on this session can never succeed.
    """


class SupervisionExhausted(ServingError, RuntimeError):
    """A supervised worker died more times than its restart budget allows.

    Raised by :class:`~repro.serving.procs.ProcessPartitionPool` and the
    shard-worker :class:`~repro.sharding.workers._ExchangeSupervisor` in
    place of the bare ``RuntimeError`` they used to raise (still caught by
    handlers matching ``RuntimeError``).  ``crashes`` maps each worker
    index to its crash count at the moment supervision gave up; ``index``
    is the worker whose death exhausted the budget.  A gateway catching
    this downgrades the partition to permanent-degraded: its keys answer
    from the divergence-widened mirror instead of erroring.
    """

    def __init__(self, message: str, *, index: int, crashes: Dict[int, int]) -> None:
        super().__init__(message)
        self.index = index
        self.crashes = dict(crashes)


class UnrecoverablePartition(ServingError, RuntimeError):
    """A partition's WAL directory cannot rebuild its state.

    Raised by :meth:`~repro.serving.durability.PartitionDurability.load`
    when the surviving WAL records do not run contiguously from the
    snapshot's sequence (a lost or corrupt snapshot, a gap in the log), so
    replay would silently come back with a fraction of the state.  The
    files are left in place for inspection.  ``expected`` is the first
    sequence number replay needed; ``found`` is the first one present
    (``None`` for an empty log).
    """

    def __init__(self, message: str, *, expected: int, found: Optional[int]) -> None:
        super().__init__(message)
        self.expected = expected
        self.found = found
